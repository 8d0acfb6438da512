"""Self-test: tracing from outside never changes a seeded result.

Runs every workload at a tiny size twice, untraced and traced, and
requires identical outputs (accuracy series, a digest of every
transaction id and its parents, pureness) and a non-empty trace.  Also
checks that the wrappers come off again, and that ``BENCHMARK.json``
lists exactly the workloads and metrics the code emits.  Takes under a minute::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.fl import Client  # noqa: E402


def check(name: str, seed: int = 3) -> list[str]:
    size = workloads.TINY[name]
    workload = workloads.WORKLOADS[name]
    plain = workload(seed, size, lambda fn: fn)
    original = Client.__dict__["tx_accuracies"]
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        traced = workload(seed, size, lambda fn: tracer.span(fn, "service.score"))
    finally:
        patches.restore()
    problems = []
    if repr(plain.outputs) != repr(traced.outputs):
        problems.append(f"outputs differ:\n  untraced {plain.outputs}\n  traced   {traced.outputs}")
    if not tracer.spans:
        problems.append("the traced run recorded no spans")
    if Client.__dict__["tx_accuracies"] is not original:
        problems.append("wrappers were not removed")
    return problems


def check_manifest() -> list[str]:
    """BENCHMARK.json names exactly the metrics the code emits, and only
    workloads the code has (it gates a subset of them)."""
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {
        "workloads": [w["name"] for w in manifest["workloads"]
                      if w["name"] in workloads.WORKLOADS],
        "end_to_end": [(m["name"], m["unit"]) for m in manifest["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]],
    }
    emitted = {
        "workloads": [w["name"] for w in manifest["workloads"]],
        "end_to_end": list(run.END_TO_END),
        "per_layer": list(spans.PER_LAYER),
    }
    return [f"BENCHMARK.json {key} differ from the code"
            for key in declared if declared[key] != emitted[key]]


def main() -> int:
    failures = 0
    problems = check_manifest()
    failures += bool(problems)
    print(f"{'BENCHMARK.json':16s} {'ok' if not problems else 'FAILED'}")
    for problem in problems:
        print("  " + problem)
    for name in workloads.WORKLOADS:
        problems = check(name)
        failures += bool(problems)
        print(f"{name:16s} {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print("  " + problem)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
