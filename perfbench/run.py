"""Benchmark of the paper's own runs: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fmnist-cnn --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repetitions on the
same inputs and prints the per-layer metrics, the tracing overhead and
the span coverage.  How many repetitions a run makes depends on
``--seconds`` and the workload only, never on how fast they go.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Details (environment,
every repetition, tail percentiles, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics: (name, unit).  Direction and bounds live in
#: BENCHMARK.json and README.md.
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("updates_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("ok_frac", "ratio"),
    ("round_p50_ms", "ms"), ("round_tail_ms", "ms"),
    ("tips_p50_ms", "ms"), ("tips_tail_ms", "ms"), ("requests_per_s", "1/s"),
    ("final_accuracy", "ratio"), ("pureness", "ratio"),
)


def identity(fn):
    return fn


def repetitions(size, seconds) -> int:
    """Repetitions in a run of ``seconds``: as many nominal repetitions
    of the workload as fit, at least two.  Repetition ``r`` of
    ``--seed n`` uses seed ``1000 n + r``, so one seed gives the same
    inputs and every run of one length averages the same inputs."""
    return max(2, int(seconds // size["rep_seconds"]))


def reset_peak_rss() -> None:
    """Restart the kernel's peak-resident-memory mark of this process, so
    ``ru_maxrss`` afterwards is the peak since now (Linux; elsewhere the
    mark keeps the process-wide peak)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def fresh(workload, seed, size, score_wrap=identity):
    """One repetition, after collecting what earlier ones left behind, so
    no repetition pays for its predecessor's garbage, with its own peak
    resident memory."""
    gc.collect()
    reset_peak_rss()
    rep = workload(seed, size, score_wrap)
    rep.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rep


def tail(samples):
    """(value, percentile, count): the highest percentile that has at
    least ten samples beyond it."""
    ordered = sorted(samples)
    count = len(ordered)
    index = max(count - 11, 0)
    return ordered[index], 100.0 * (index + 1) / count, count


def end_to_end(reps) -> tuple[dict, dict]:
    rounds = [ms for rep in reps for ms in rep.round_ms]
    tips = [ms for rep in reps for ms in rep.tips_ms]
    attempted, failed = tally(reps)
    round_tail = tail(rounds)
    # Tip selections are many per repetition, so their tail is taken per
    # repetition and the median reported.  Pooled, the slowest eleven of
    # ~20000 async-churn walks are whichever ones a full garbage
    # collection landed in, and that count varies with the seeds.
    tips_tails = [tail(rep.tips_ms) for rep in reps]
    values = {
        "setup_s": statistics.median(rep.setup_s for rep in reps),
        # The mean, not the median: the host alternates between a fast
        # and a slow speed for tens of seconds at a time, and a median of
        # a few repetitions jumps between the two.
        "wall_s": statistics.fmean(rep.wall_s for rep in reps),
        "updates_per_s": sum(rep.updates for rep in reps) / sum(rep.wall_s for rep in reps),
        # Per repetition, so one seed's peak does not set the run's.
        "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in reps),
        "ok_frac": (attempted - failed) / attempted,
        "round_p50_ms": statistics.median(rounds),
        "round_tail_ms": round_tail[0],
        "tips_p50_ms": statistics.median(tips),
        "tips_tail_ms": statistics.median(t[0] for t in tips_tails),
        "requests_per_s": sum(rep.requests for rep in reps) / sum(rep.wall_s for rep in reps),
        "final_accuracy": statistics.fmean(rep.final_accuracy for rep in reps),
        "pureness": statistics.fmean(rep.pureness for rep in reps),
    }
    details = {
        "round_tail_ms": {"percentile": round_tail[1], "samples": round_tail[2]},
        "tips_tail_ms": {"percentile": statistics.median(t[1] for t in tips_tails),
                         "samples": statistics.median(t[2] for t in tips_tails),
                         "repetitions": len(reps)},
    }
    return values, details


def tally(reps) -> tuple[int, int]:
    """(attempted, failed): operations plus checks."""
    attempted = sum(rep.ops + len(rep.checks) for rep in reps)
    failed = sum(rep.failed_ops + sum(not ok for ok in rep.checks.values()) for rep in reps)
    return attempted, failed


def run_traced(workload, seed, size, pairs):
    """``pairs`` pairs of (untraced, traced) repetitions on the same inputs."""
    import spans

    tracer = spans.Tracer()
    untraced, traced, windows = [], [], {}

    for index in range(pairs):
        rep_seed = seed * 1000 + index
        untraced.append(fresh(workload, rep_seed, size))
        tracer.run_id = index
        patches = spans.install(tracer)
        try:
            rep = fresh(workload, rep_seed, size,
                        lambda fn: tracer.span(fn, "service.score"))
        finally:
            patches.restore()
        windows[index] = (*rep.window, rep.lanes or [threading.get_ident()])
        for name, value in rep.counts.items():
            tracer.add(name, value)
        traced.append(rep)
    values = spans.layer_metrics(tracer, len(traced))
    values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                  - statistics.median(r.wall_s for r in untraced))
    values["trace.coverage"] = spans.coverage(tracer, windows)
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    return untraced + traced, values, units, tracer, windows


def write_spans(path: Path, tracer, windows) -> None:
    index = {id(span): i for i, span in enumerate(tracer.spans)}
    rows = [
        [span[0], span[1], span[2], index.get(id(span[3])), span[4], span[5]]
        for span in tracer.spans
    ]
    with path.open("w") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "run_id", "thread"],
                   "windows": windows, "spans": rows}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # String hashing is randomized per process, which reorders sets and
    # dicts and moved a seed's peak memory by up to 15% between runs.
    # Fix it, so one seed gives one run, by restarting the interpreter.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from envinfo import environment

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.workload]
    reps_per_run = repetitions(size, args.seconds)
    # A traced run makes half as many pairs, so it lasts about as long.
    count = max(1, reps_per_run // 2) if args.trace else reps_per_run
    env = environment(args.seed, args.workload,
                      {**size, "repetitions": count, "traced": bool(args.trace)})
    print("env", json.dumps(env), flush=True)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details: dict = {}
    if args.trace:
        reps, values, units, tracer, windows = run_traced(
            workload, args.seed, size, count)
        write_spans(out_dir / f"{stem}-spans.json", tracer, windows)
    else:
        reps = [fresh(workload, args.seed * 1000 + index, size)
                for index in range(count)]
        values, details = end_to_end(reps)
        units = dict(END_TO_END)

    attempted, failed = tally(reps)
    failed_checks = sorted({name for rep in reps for name, ok in rep.checks.items() if not ok})
    correct = not failed_checks
    for name, value in values.items():
        extra = details.get(name)
        note = f"  (p{extra['percentile']:.1f} of {extra['samples']:g}" if extra else ""
        if extra:
            note += (f" per repetition, median of {extra['repetitions']})"
                     if "repetitions" in extra else ")")
        print(f"  {name:40s} {value:14.6g} {units[name]}{note}")
    print(f"  checks: {'all passed' if correct else 'FAILED ' + ', '.join(failed_checks)}")
    with (out_dir / f"{stem}.json").open("w") as handle:
        json.dump({"env": env, "metrics": values, "details": details,
                   "failed_checks": failed_checks,
                   "reps": [{"setup_s": r.setup_s, "wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb,
                             "final_accuracy": r.final_accuracy,
                             "pureness": r.pureness, "checks": r.checks,
                             "ops": r.ops, "failed_ops": r.failed_ops}
                            for r in reps]}, handle, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
