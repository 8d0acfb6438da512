"""The five workloads: the paper's protocol through ``repro``'s public API.

Each workload is a function ``(seed, size, score_wrap) -> Rep`` that
builds its inputs from ``seed``, times its set-up and its run, and
checks its outputs.  ``score_wrap`` wraps the gateway scoring callback,
which is this file's own code, so the traced run can time it.

Tip-selection latencies come from the callers each workload already
has: the clients' own walks in the round workloads (the program's
``RoundRecord.walk_duration``), every engine walk in ``async-churn``
and the callers' ``TangleGateway.tips`` requests in ``gateway-mixed``.

Sizes live in ``SIZES`` (the benchmark's) and ``TINY`` (the self-test's).
``rep_seconds`` is the nominal length of one repetition on a 2-core x86
VM; it only sets how many repetitions a run of a given length makes.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro.data as data
import repro.metrics as metrics
from repro.dag import walk_engine
from repro.dag.tangle import Tangle
from repro.fl import (
    Client,
    DagConfig,
    FedAvgServer,
    FedProxServer,
    TangleLearning,
    TrainingConfig,
    table1_config,
)
from repro.nn import zoo
from repro.service import GatewayConfig, TangleGateway
from repro.sim import EventDrivenTangleLearning, SimConfig, random_churn

__all__ = ["WORKLOADS", "SIZES", "TINY", "Rep"]

#: Generous per-request budget, so the deadline ladder never cuts the
#: paper's accuracy walk short and timings measure the full walk.  A
#: degraded response is counted as a failed operation all the same.
DEADLINE_S = 5.0


@dataclass
class Rep:
    """What one repetition of a workload measured and produced."""

    setup_s: float
    wall_s: float
    window: tuple[float, float]
    round_ms: list[float]
    tips_ms: list[float]
    requests: int
    updates: int
    final_accuracy: float
    pureness: float
    checks: dict[str, bool]
    ops: int
    failed_ops: int
    peak_rss_mb: float = 0.0
    lanes: list[int] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


def _late(series, k=5) -> float:
    return float(np.mean(series[-k:]))


def _tangle_digest(tangle) -> str:
    """Order-sensitive digest of every transaction id and its parents."""
    text = repr([(tx.tx_id, tuple(tx.parents)) for tx in tangle.transactions()])
    return hashlib.sha256(text.encode()).hexdigest()


@contextmanager
def _timed(module, attr, sink):
    """Record the duration (ms) of every call of ``module.attr`` into
    ``sink`` while the block runs; two clock reads per call."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((perf_counter() - t0) * 1000.0)

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


def _walk_ms(history) -> list[float]:
    """Every honest client's tip-selection time (ms), as the round
    simulator itself measured it around ``select_tips``."""
    return [1000.0 * seconds for record in history
            for seconds in record.walk_duration.values()]


def _round_rep(seed, size, score_wrap, build):
    """The shared body of the two community workloads (CNN and LSTM);
    ``build`` returns the dataset, the simulator and a function that runs
    one round and returns its record."""
    start = perf_counter()
    dataset, sim, run_round = build(seed, size)
    setup_s = perf_counter() - start
    labels = dataset.cluster_labels()
    rounds, measure_every = size["rounds"], size["measure_every"]
    round_ms, history, report = [], [], None
    start = perf_counter()
    for index in range(rounds):
        t0 = perf_counter()
        history.append(run_round())
        if (index + 1) % measure_every == 0 or index == rounds - 1:
            report = metrics.analyze_specialization(sim.tangle, labels, seed=seed)
        round_ms.append((perf_counter() - t0) * 1000.0)
    late_pureness = metrics.approval_pureness(sim.tangle, labels, since_round=rounds // 2)
    end = perf_counter()
    sim.close()

    accuracy = [record.mean_accuracy for record in history]
    honest = sum(len(record.client_accuracy) for record in history)
    published = sum(len(record.published) for record in history)
    tips_ms = _walk_ms(history)
    checks = {
        "pureness_above_base": max(report.pureness, late_pureness) > report.base_pureness,
    }
    return Rep(
        setup_s=setup_s, wall_s=end - start, window=(start, end),
        round_ms=round_ms, tips_ms=tips_ms,
        requests=len(tips_ms) + published,
        updates=honest, final_accuracy=_late(accuracy),
        pureness=float(report.pureness), checks=checks,
        ops=rounds, failed_ops=0,
        counts={"published": published, "honest_updates": honest},
        outputs={"accuracy": accuracy, "tangle": _tangle_digest(sim.tangle),
                 "pureness": [report.pureness, late_pureness]},
    )


def _build_fmnist(seed, size):
    # The event engine's round regime: bit-identical records to
    # TangleLearning.run for the same seed (no churn), and the gated
    # round workload then reaches the sim layer as well.
    dataset = data.make_fmnist_clustered(
        num_clients=size["clients"], samples_per_client=size["samples"],
        image_size=14, seed=seed)
    engine = EventDrivenTangleLearning(
        dataset,
        lambda rng: zoo.build_fmnist_cnn(rng, image_size=14, size="small"),
        table1_config("fmnist-clustered").scaled(local_batches=size["local_batches"]),
        DagConfig(alpha=10.0), seed=seed)
    return dataset, engine, lambda: engine.run_rounds(1, size["per_round"])[0]


def _build_poets(seed, size):
    dataset = data.make_poets(
        num_clients=size["clients"], samples_per_client=size["samples"],
        seq_len=size["seq_len"], seed=seed)
    sim = TangleLearning(
        dataset,
        lambda rng: zoo.build_poets_lstm(rng, vocab_size=dataset.num_classes, size="small"),
        table1_config("poets").scaled(
            local_batches=size["local_batches"], learning_rate=0.5, momentum=0.9),
        DagConfig(alpha=10.0, normalization="dynamic"),
        clients_per_round=size["per_round"], seed=seed)
    return dataset, sim, sim.run_round


def fmnist_cnn(seed, size, score_wrap):
    """Figure 5 at alpha=10: FMNIST-clustered CNN rounds through the
    event engine's round regime, community metrics every
    ``measure_every`` rounds."""
    return _round_rep(seed, size, score_wrap, _build_fmnist)


def poets_lstm(seed, size, score_wrap):
    """Table 2's Poets row: LSTM rounds with dynamic normalization."""
    return _round_rep(seed, size, score_wrap, _build_poets)


def logreg_rounds(seed, size, score_wrap):
    """Figures 10-11: FedAvg, FedProx and the DAG on synthetic(0.5, 0.5),
    the DAG run continued past the baselines' length to grow a large
    tangle; the figures' claims are checked at equal rounds."""
    start = perf_counter()
    dataset = data.make_fedprox_synthetic(
        num_clients=size["clients"], mean_samples=40, seed=seed)
    config = TrainingConfig(local_epochs=1, local_batches=10, batch_size=10,
                            learning_rate=0.05)
    per_round = size["per_round"]
    fedavg = FedAvgServer(dataset, zoo.build_logistic_regression, config,
                          clients_per_round=per_round, seed=seed)
    fedprox = FedProxServer(dataset, zoo.build_logistic_regression, config,
                            clients_per_round=per_round, seed=seed, mu=0.5)
    dag = TangleLearning(dataset, zoo.build_logistic_regression, config,
                         DagConfig(alpha=10.0), clients_per_round=per_round, seed=seed)
    setup_s = perf_counter() - start

    compare = size["compare_rounds"]
    start = perf_counter()
    fedavg.run(compare)
    fedprox.run(compare)
    round_ms = []
    for _ in range(size["rounds"]):
        t0 = perf_counter()
        dag.run_round()
        round_ms.append((perf_counter() - t0) * 1000.0)
    labels = dataset.cluster_labels()
    pureness = metrics.approval_pureness(dag.tangle, labels)
    end = perf_counter()
    dag.close()

    def series(history, attr):
        return [getattr(record, attr) for record in history]

    dag_acc = series(dag.history, "mean_accuracy")
    # The figures' claim is made at equal training rounds.
    at_compare = {
        "fedavg": (_late(series(fedavg.history, "mean_accuracy")),
                   _late(series(fedavg.history, "mean_loss"))),
        "fedprox": (_late(series(fedprox.history, "mean_accuracy")),
                    _late(series(fedprox.history, "mean_loss"))),
        "dag": (_late(dag_acc[:compare]),
                _late(series(dag.history, "mean_loss")[:compare])),
    }
    checks = {
        "all_learn": all(acc > 0.3 for acc, _ in at_compare.values()),
        "dag_beats_fedavg_accuracy": at_compare["dag"][0] > at_compare["fedavg"][0],
        "dag_beats_fedavg_loss": at_compare["dag"][1] < at_compare["fedavg"][1],
    }
    honest = sum(len(record.client_accuracy) for record in dag.history)
    published = sum(len(record.published) for record in dag.history)
    tips_ms = _walk_ms(dag.history)
    baseline_updates = 2 * compare * per_round
    return Rep(
        setup_s=setup_s, wall_s=end - start, window=(start, end),
        round_ms=round_ms, tips_ms=tips_ms,
        requests=len(tips_ms) + published,
        updates=honest + baseline_updates, final_accuracy=_late(dag_acc),
        pureness=float(pureness), checks=checks,
        ops=2 * compare + size["rounds"], failed_ops=0,
        counts={"published": published, "honest_updates": honest},
        outputs={"accuracy": dag_acc, "tangle": _tangle_digest(dag.tangle),
                 "baselines": at_compare},
    )


def async_churn(seed, size, score_wrap):
    """The event-driven engine: ~1000 logistic-regression clients,
    accuracy selector, quantum batching, stragglers and Poisson churn."""
    horizon, step = size["horizon"], size["step"]
    start = perf_counter()
    clients = size["clients"]
    dataset = data.make_fedprox_synthetic(num_clients=clients, mean_samples=10, seed=seed)
    features = dataset.clients[0].x_train.shape[1]
    churn = random_churn(range(clients), mean_uptime=12.0, mean_downtime=3.0,
                         horizon=horizon, rng=np.random.default_rng(seed))
    engine = EventDrivenTangleLearning(
        dataset,
        lambda rng: zoo.build_logistic_regression(rng, in_features=features, num_classes=10),
        TrainingConfig(local_epochs=1, local_batches=4, batch_size=10, learning_rate=0.05),
        DagConfig(),
        sim_config=SimConfig(quantum=step, straggler_fraction=0.1,
                             straggler_slowdown=4.0, churn=churn),
        seed=seed)
    setup_s = perf_counter() - start

    # Under quantum batching the engine walks once per cycle through
    # ``lockstep_walks`` and records no walk time itself.
    round_ms, tips_ms = [], []
    now = 0.0
    start = perf_counter()
    with _timed(walk_engine, "lockstep_walks", tips_ms):
        while now < horizon:
            now = min(now + step, horizon)
            t0 = perf_counter()
            engine.run_until(now)
            round_ms.append((perf_counter() - t0) * 1000.0)
    labels = dataset.cluster_labels()
    pureness = metrics.approval_pureness(engine.tangle, labels)
    end = perf_counter()
    engine.close()

    trains = [event for event in engine.events if event.kind == "train"]
    honest = [event for event in trains if event.accuracy is not None]
    published = sum(1 for event in trains if event.published)
    txs = engine.tangle.transactions()
    timeline = engine.accuracy_timeline()
    checks = {
        "cycles_complete": len(trains) > 0 and engine.completed_cycles == len(trains),
        "parents_exist": all(p in engine.tangle for tx in txs for p in tx.parents),
    }
    quarantined = sum(1 for event in trains if event.quarantined)
    return Rep(
        setup_s=setup_s, wall_s=end - start, window=(start, end),
        round_ms=round_ms, tips_ms=tips_ms,
        requests=len(tips_ms) + published,
        updates=len(honest), final_accuracy=float(timeline[-1][1]),
        pureness=float(pureness), checks=checks,
        ops=len(trains), failed_ops=quarantined,
        counts={"published": published, "honest_updates": len(honest),
                "sim.events": len(engine.events), "sim.cycles": len(trains)},
        outputs={"accuracy": [a for _, a in timeline],
                 "tangle": _tangle_digest(engine.tangle)},
    )


def gateway_mixed(seed, size, score_wrap):
    """Figure 5's clients served by the in-process gateway: ``callers``
    closed-loop threads (Figure 5's clients per round), each cycling its
    share of the clients through accuracy-scored tips -> average the
    parents -> train -> publish, as ``experiments service-demo`` does."""
    start = perf_counter()
    dataset = data.make_fmnist_clustered(
        num_clients=size["clients"], samples_per_client=size["samples"],
        image_size=14, seed=seed)
    train_config = table1_config("fmnist-clustered").scaled(
        local_batches=size["local_batches"])

    def build():
        # Every model starts from the same initialization; callers train
        # concurrently, so each client owns its model instance.
        return zoo.build_fmnist_cnn(np.random.default_rng(seed), image_size=14, size="small")

    tangle = Tangle(build().get_weights())
    clients = {
        cd.client_id: Client(cd, build(), train_config,
                             np.random.default_rng([seed, cd.client_id]))
        for cd in dataset.clients
    }

    def score_provider(key):
        client = clients[key]
        return score_wrap(lambda tx_ids: client.tx_accuracies(tangle, tx_ids))

    gateway = TangleGateway(
        tangle, config=GatewayConfig(deadline_budget=DEADLINE_S, seed=seed),
        score_provider=score_provider)
    setup_s = perf_counter() - start

    spec = tangle.spec
    callers, cycles = size["callers"], size["cycles"]
    ids = sorted(clients)
    lock = threading.Lock()
    statuses: Counter = Counter()
    degraded = [0]
    cycle_ms, tips_ms, lanes = [], [], []
    last_trained: dict[int, list] = {}
    errors: list[BaseException] = []

    def caller(index):
        lanes.append(threading.get_ident())
        mine = ids[index::callers]
        try:
            for step in range(cycles):
                client = clients[mine[step % len(mine)]]
                t0 = perf_counter()
                response = gateway.tips(2, score_key=client.client_id)
                t1 = perf_counter()
                with lock:
                    statuses[("tips", response.status)] += 1
                    tips_ms.append((t1 - t0) * 1000.0)
                    degraded[0] += bool(response.degraded)
                if not response.ok:
                    continue
                parents = list(dict.fromkeys(response.body["tips"]))
                stacked = np.stack([tangle.flat_weights(p) for p in parents])
                trained, _ = client.train(spec.unflatten(stacked.mean(axis=0)))
                published = gateway.publish(
                    spec.flatten(trained), parents, issuer=client.client_id,
                    round_index=step)
                with lock:
                    statuses[("publish", published.status)] += 1
                    cycle_ms.append((perf_counter() - t0) * 1000.0)
                    last_trained[client.client_id] = trained
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
            raise

    before = len(tangle)
    threads = [threading.Thread(target=caller, args=(i,)) for i in range(callers)]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = perf_counter()
    if errors:
        raise errors[0]
    health = gateway.health().body
    gateway.close()

    labels = dataset.cluster_labels()
    pureness = metrics.approval_pureness(tangle, labels)
    final_accuracy = float(np.mean([
        clients[cid].evaluate_weights(weights)[1]
        for cid, weights in sorted(last_trained.items())
    ]))
    outcomes = {status for _, status in statuses}
    ok_publishes = statuses[("publish", "ok")]
    requests = sum(statuses.values())
    ok = sum(n for (_, status), n in statuses.items() if status == "ok")
    coalescer = health.get("coalescer", {})
    checks = {
        "closed_taxonomy": outcomes <= {"ok", "shed", "rejected"},
        "tangle_grows_by_ok_publishes": len(tangle) - before == ok_publishes,
    }
    return Rep(
        setup_s=setup_s, wall_s=end - start, window=(start, end),
        round_ms=cycle_ms, tips_ms=tips_ms,
        requests=requests,
        updates=len(cycle_ms), final_accuracy=final_accuracy,
        pureness=float(pureness), checks=checks,
        ops=requests, failed_ops=requests - ok + degraded[0], lanes=lanes,
        counts={"published": ok_publishes, "honest_updates": len(cycle_ms),
                "service.batches": coalescer.get("batches", 0),
                "service.batched": coalescer.get("requests", statuses[("tips", "ok")]),
                "service.degraded": degraded[0],
                "service.tips_ok": statuses[("tips", "ok")]},
        outputs={"tangle": _tangle_digest(tangle),
                 "accuracy": [final_accuracy]},
    )


WORKLOADS = {
    "fmnist-cnn": fmnist_cnn,
    "poets-lstm": poets_lstm,
    "logreg-rounds": logreg_rounds,
    "async-churn": async_churn,
    "gateway-mixed": gateway_mixed,
}

SIZES = {
    "fmnist-cnn": {"clients": 30, "samples": 80, "local_batches": 8, "per_round": 10,
                   "rounds": 10, "measure_every": 3, "rep_seconds": 4.1},
    "poets-lstm": {"clients": 6, "samples": 300, "seq_len": 8, "local_batches": 20,
                   "per_round": 6, "rounds": 16, "measure_every": 4, "rep_seconds": 4.0},
    "logreg-rounds": {"clients": 30, "per_round": 10, "compare_rounds": 30,
                      "rounds": 100, "rep_seconds": 4.0},
    "async-churn": {"clients": 1000, "horizon": 8.0, "step": 0.5, "rep_seconds": 4.9},
    "gateway-mixed": {"clients": 30, "samples": 80, "local_batches": 8,
                      "callers": 10, "cycles": 12, "rep_seconds": 5.4},
}

#: Self-test sizes: every code path of every workload, in seconds.
TINY = {
    "fmnist-cnn": {**SIZES["fmnist-cnn"], "clients": 6, "samples": 30, "per_round": 3,
                   "local_batches": 2, "rounds": 3},
    "poets-lstm": {**SIZES["poets-lstm"], "clients": 4, "samples": 60, "per_round": 2,
                   "local_batches": 2, "rounds": 3},
    "logreg-rounds": {**SIZES["logreg-rounds"], "clients": 12, "per_round": 4,
                      "compare_rounds": 6, "rounds": 8},
    "async-churn": {**SIZES["async-churn"], "clients": 60, "horizon": 2.0},
    "gateway-mixed": {**SIZES["gateway-mixed"], "clients": 6, "samples": 30,
                      "local_batches": 2, "callers": 1, "cycles": 6},
}
