"""Spans around calls into the ``repro`` layers, installed from outside.

The traced run wraps public functions and methods of each layer
(``nn``, ``fl``, ``dag``, ``substrate``, ``metrics``, ``sim``,
``service``, ``data``) with a timer, runs the workload, and restores the
originals.  Nothing under ``src/`` changes, and the wrappers draw from no
random generator, so a traced run produces the same outputs as an
untraced one (``selftest.py`` checks this).

A span is ``[name, start, end, parent, run_id, thread]``; ``parent`` is
the enclosing span on the same thread.  A call whose name is already open
on the thread's stack records nothing (``Dense.forward_many_train``
calling ``Dense.forward_many`` counts once), and a call listed with
``skip_under`` records nothing below one of those names.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "install", "layer_metrics", "coverage", "PER_LAYER"]


class Tracer:
    """In-memory span and counter store, one per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def span(self, fn, name, *, skip_under=(), hook=None):
        """``fn`` wrapped in a span; ``name`` may be a function of the
        call's first argument.  ``hook(args, kwargs)`` runs before a
        recorded call and may return a function of the result to run
        after it (for counters measured at the same boundary)."""
        tracer = self
        blocked = set(skip_under)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args[0]) if callable(name) else name
            stack = tracer.stack()
            for open_span in stack:
                if open_span[0] == label or open_span[0] in blocked:
                    return fn(*args, **kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else None,
                    tracer.run_id, threading.get_ident()]
            after = hook(args, kwargs) if hook is not None else None
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                after(result)
            return result

        return traced


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, tracer, cls, attr, name, **options) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            self.set(cls, attr, classmethod(tracer.span(raw.__func__, name, **options)))
        else:
            self.set(cls, attr, tracer.span(raw, name, **options))

    def function(self, tracer, fn, name, **options) -> None:
        """Replace ``fn`` in every ``repro`` module that holds it, so
        callers that imported it by name see the wrapper too."""
        wrapper = tracer.span(fn, name, **options)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


_FWD = ("forward", "forward_many", "forward_many_train")
_BWD = ("backward", "backward_many", "backward_many_train")
_EVALS = ("evaluate_weights", "accuracy_of_weights", "accuracy_of_flat", "evaluate_flat")


def install(tracer: Tracer) -> _Patches:
    """Wrap every layer boundary the per-layer metrics name; returns the
    patch set whose ``restore()`` puts the originals back."""
    import repro.data
    import repro.metrics
    from repro.dag import tip_selection, walk_engine
    from repro.dag.tangle import Tangle
    from repro.fl import Client, FedAvgServer, FedProxServer
    from repro.nn import (
        LSTM, Conv2D, Dense, Embedding, MaxPool2D, ReLU, Sigmoid, Tanh,
    )
    from repro.nn.model import Classifier
    from repro.nn.training_plane import train_grouped
    from repro.service import TangleGateway
    from repro.sim import EventDrivenTangleLearning
    from repro.substrate import execute_round

    patches = _Patches()
    kernels = {"Conv2D": [Conv2D], "MaxPool2D": [MaxPool2D], "LSTM": [LSTM],
               "Embedding": [Embedding], "Dense": [Dense],
               "act": [ReLU, Tanh, Sigmoid]}
    for label, classes in kernels.items():
        for cls in classes:
            for attr in _FWD:
                patches.method(tracer, cls, attr, f"nn.{label}.fwd")
            for attr in _BWD:
                patches.method(tracer, cls, attr, f"nn.{label}.bwd")
    patches.method(tracer, Classifier, "train_local", "nn.train_local")
    patches.method(tracer, Classifier, "accuracy", "nn.accuracy")

    def stacked_rows(args, kwargs):
        rows = len(args[1])
        return lambda _: tracer.add("nn.accuracy_many_rows", rows)

    patches.method(tracer, Classifier, "accuracy_many", "nn.accuracy_many",
                   hook=stacked_rows)

    def grouped_rows(args, kwargs):
        rows = sum(len(jobs) for _, jobs in args[0])
        return lambda _: tracer.add("nn.train_grouped_rows", rows)

    patches.function(tracer, train_grouped, "nn.train_grouped", hook=grouped_rows)

    def lookups(args, kwargs):
        client = args[0]
        before = client.evaluations
        asked = len(args[2]) if len(args) > 2 else 1

        def done(_):
            tracer.add("fl.lookups", asked)
            tracer.add("fl.misses", client.evaluations - before)
            if any(s[0] == "dag.select_tips" for s in tracer.stack()):
                tracer.add("dag.walk_lookups", asked)

        return done

    for attr in ("tx_accuracies", "tx_accuracy"):
        patches.method(tracer, Client, attr, "fl.tx_accuracies", hook=lookups)
    patches.method(tracer, Client, "train", "fl.train")
    for attr in _EVALS:
        patches.method(tracer, Client, attr, "fl.gate_eval",
                       skip_under=("fl.tx_accuracies",))
    patches.method(
        tracer, FedAvgServer, "run_round",
        lambda server: "fl.fedprox_round" if isinstance(server, FedProxServer)
        else "fl.fedavg_round",
    )

    for cls in (tip_selection.AccuracyTipSelector, tip_selection.WeightedTipSelector,
                tip_selection.RandomTipSelector):
        patches.method(tracer, cls, "select_tips", "dag.select_tips")
    patches.function(tracer, walk_engine.lockstep_walks, "dag.select_tips")
    patches.method(tracer, Tangle, "add", "dag.tangle_add")
    patches.method(tracer, walk_engine.TangleSnapshot, "build", "dag.snapshot_build")
    patches.method(tracer, walk_engine.TangleSnapshot, "extend", "dag.snapshot_extend")
    patches.function(tracer, walk_engine.snapshot_for, "dag.snapshot_for")

    patches.function(tracer, execute_round, "substrate.execute_round")
    patches.function(tracer, repro.metrics.analyze_specialization,
                     "metrics.analyze_specialization")
    patches.function(tracer, repro.metrics.approval_pureness,
                     "metrics.approval_pureness")
    patches.method(tracer, EventDrivenTangleLearning, "run_until", "sim.run_until")
    patches.method(tracer, EventDrivenTangleLearning, "run_rounds", "sim.run_rounds")
    patches.method(tracer, TangleGateway, "tips", "service.tips")
    patches.method(tracer, TangleGateway, "publish", "service.publish")
    for attr in sorted(vars(repro.data)):
        if attr.startswith("make_"):
            patches.function(tracer, getattr(repro.data, attr), "data.build_dataset")
    return patches


#: Span names whose busy seconds and call counts are reported.
TIMED = (
    "nn.Conv2D.fwd", "nn.Conv2D.bwd", "nn.MaxPool2D.fwd", "nn.MaxPool2D.bwd",
    "nn.LSTM.fwd", "nn.LSTM.bwd", "nn.Embedding.fwd", "nn.Embedding.bwd",
    "nn.Dense.fwd", "nn.Dense.bwd", "nn.act.fwd", "nn.act.bwd",
    "nn.train_local", "nn.accuracy", "nn.accuracy_many", "nn.train_grouped",
    "fl.train", "fl.tx_accuracies", "fl.gate_eval", "fl.fedavg_round",
    "fl.fedprox_round",
    "dag.select_tips", "dag.tangle_add", "dag.snapshot_build",
    "dag.snapshot_extend",
    "substrate.execute_round",
    "metrics.analyze_specialization", "metrics.approval_pureness",
    "sim.run_until", "sim.run_rounds",
    "service.tips", "service.score", "service.publish",
    "data.build_dataset",
)
#: Span names that call into other layers, reported with self time.
SELF_TIMED = ("dag.select_tips", "substrate.execute_round", "sim.run_until",
              "sim.run_rounds", "service.tips")

#: Every per-layer metric: (name, unit, better).
PER_LAYER = (
    [(f"{n}_s", "s", "lower") for n in TIMED]
    + [(f"{n}_calls", "count", "lower") for n in TIMED]
    + [(f"{n}.self_s", "s", "lower") for n in SELF_TIMED]
    + [
        ("nn.accuracy_many_rows", "count", "higher"),
        ("nn.train_grouped_rows_per_call", "count", "higher"),
        ("fl.eval_cache_hit_ratio", "ratio", "higher"),
        ("fl.publish_ratio", "ratio", "higher"),
        ("dag.walk_evals_per_selection", "count", "lower"),
        ("dag.snapshot_extend_ratio", "ratio", "higher"),
        ("sim.events", "count", "higher"),
        ("sim.cycles", "count", "higher"),
        ("service.batch_width", "count", "higher"),
        ("service.degraded_frac", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
    ]
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, traced_reps: int) -> dict[str, float]:
    """Busy seconds, calls and self seconds per traced repetition, and
    the ratios built from the counters.  ``service.tips.self_s`` is tips
    latency minus scoring time: scoring runs on the coalescer's thread,
    so it is subtracted in total rather than per span."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    for span in tracer.spans:
        if span[3] is not None:
            children[id(span[3])] += span[2] - span[1]
    for span in tracer.spans:
        duration = span[2] - span[1]
        busy[span[0]] += duration
        calls[span[0]] += 1
        self_time[span[0]] += duration - children.get(id(span), 0.0)
    self_time["service.tips"] = max(busy["service.tips"] - busy["service.score"], 0.0)

    reps = max(traced_reps, 1)
    counts = tracer.counts
    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}_s"] = busy[name] / reps
        out[f"{name}_calls"] = calls[name] / reps
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_time[name] / reps
    out["nn.accuracy_many_rows"] = counts["nn.accuracy_many_rows"] / reps
    out["nn.train_grouped_rows_per_call"] = _ratio(
        counts["nn.train_grouped_rows"], calls["nn.train_grouped"])
    out["fl.eval_cache_hit_ratio"] = _ratio(
        counts["fl.lookups"] - counts["fl.misses"], counts["fl.lookups"])
    out["fl.publish_ratio"] = _ratio(counts["published"], counts["honest_updates"])
    out["dag.walk_evals_per_selection"] = _ratio(
        counts["dag.walk_lookups"], calls["dag.select_tips"])
    out["dag.snapshot_extend_ratio"] = _ratio(
        calls["dag.snapshot_extend"], calls["dag.snapshot_for"])
    out["sim.events"] = counts["sim.events"] / reps
    out["sim.cycles"] = counts["sim.cycles"] / reps
    out["service.batch_width"] = _ratio(counts["service.batched"], counts["service.batches"])
    out["service.degraded_frac"] = _ratio(counts["service.degraded"], counts["service.tips_ok"])
    out["trace.spans"] = len(tracer.spans) / reps
    return out


def coverage(tracer: Tracer, windows) -> float:
    """Share of measured wall time covered by top-level spans on the
    threads that drive the workload (``windows``: run id -> (start, end,
    thread idents)), so time no layer accounts for stays visible."""
    covered = 0.0
    total = sum((end - start) * len(lanes) for start, end, lanes in windows.values())
    for span in tracer.spans:
        window = windows.get(span[4])
        if span[3] is None and window and span[5] in window[2] \
                and window[0] <= span[1] < window[1]:
            covered += span[2] - span[1]
    return _ratio(covered, total)
