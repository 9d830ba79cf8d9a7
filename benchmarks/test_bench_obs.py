"""Telemetry-overhead A/B bench: instrumented engines vs uninstrumented.

Runs the same engine workload (a spread of benchmark workflows on both
engine modes, each as ``run_trials`` trials) twice over:

- **off** — the default ``NULL_SPANS`` path: every producer holds the
  null span tracer and pays one ``enabled`` attribute check per site;
- **on** — ``collect_telemetry=True``: a span tracer whose only sink is
  a ``MetricsRegistry`` on the simulated clock folds every span the
  engines, runtime, FaaStore, network and containers report, and each
  trial ships a full snapshot.

The headline number is the instrumented-over-off wall-clock ratio
(best-of rounds on both sides); CI gates on ``overhead_ratio`` staying
under ``_MAX_OVERHEAD_RATIO``.  The bench also re-asserts the parallel
merge contract — per-trial snapshots merged in trial order at
``jobs=2`` must be bit-identical to the ``jobs=1`` run — so a
determinism regression invalidates the bench, not just a test.

Run directly (``python benchmarks/test_bench_obs.py``) to refresh the
committed ``BENCH_obs.json``; ``--quick`` is the CI smoke variant
(fewer invocations, one round, same gates).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.obs.telemetry import merge_snapshots
from repro.runner import run_trials

_HERE = Path(__file__).resolve().parent
_ROUNDS = 3
# Acceptance gate: the instrumented run may cost at most this multiple
# of the zero-cost-off run's wall clock.  Generous on purpose — CI
# machines are noisy and the quick workload is small — while still
# catching an accidental hot-path regression (an unguarded emit or a
# per-event allocation shows up as 3-10x, not 1.x).
_MAX_OVERHEAD_RATIO = 2.0
_INVOCATIONS = 6
_QUICK_INVOCATIONS = 2
_TRIALS = 2

_WORKLOADS = [
    ("file-processing", "worker", 13, 3),
    ("cycles", "worker", 7, 3),
    ("video-ffmpeg", "worker", 29, 4),
    ("genome", "master", 17, 4),
]


def _run(invocations: int, telemetry: bool, jobs: int = 1) -> list:
    """Every workload's trials, in workload then trial order."""
    extra = {"collect_telemetry": True} if telemetry else {}
    summaries = []
    for source, engine, seed, workers in _WORKLOADS:
        summaries += run_trials(
            source, trials=_TRIALS, jobs=jobs, seed=seed, engine=engine,
            invocations=invocations, workers=workers, **extra,
        )
    return summaries


def _best_of(fn, rounds: int) -> float:
    wall = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        wall = min(wall, time.perf_counter() - start)
    return wall


def _canon(snapshot) -> str:
    return json.dumps(snapshot, sort_keys=True)


def _measure(invocations: int, rounds: int = _ROUNDS) -> dict:
    total_invocations = invocations * len(_WORKLOADS) * _TRIALS

    # Merge contract first: trials run on two worker processes must
    # merge to the exact snapshot the serial run produces.  A failure
    # here means the overhead number would be measuring a broken
    # subsystem.
    serial = _run(invocations, telemetry=True, jobs=1)
    pooled = _run(invocations, telemetry=True, jobs=2)
    merged_serial = merge_snapshots([s["telemetry"] for s in serial])
    merged_pooled = merge_snapshots([s["telemetry"] for s in pooled])
    if _canon(merged_pooled) != _canon(merged_serial):
        raise AssertionError(
            "telemetry merge at jobs=2 diverged from the serial run"
        )
    series = len(merged_serial["metrics"])

    off_wall = _best_of(lambda: _run(invocations, telemetry=False), rounds)
    on_wall = _best_of(lambda: _run(invocations, telemetry=True), rounds)
    return {
        "invocations_per_trial": invocations,
        "workloads": len(_WORKLOADS),
        "trials_per_workload": _TRIALS,
        "total_invocations": total_invocations,
        "metric_series": series,
        "off_wall_seconds": round(off_wall, 6),
        "on_wall_seconds": round(on_wall, 6),
        "off_invocations_per_sec": round(total_invocations / off_wall, 2),
        "on_invocations_per_sec": round(total_invocations / on_wall, 2),
        "overhead_ratio": round(on_wall / off_wall, 4),
        "parallel_merge_identical": True,
    }


def test_telemetry_overhead_bounded(benchmark):
    result = benchmark.pedantic(
        lambda: _measure(_QUICK_INVOCATIONS, rounds=1),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(result)
    assert result["parallel_merge_identical"]
    assert result["metric_series"] > 0
    assert result["overhead_ratio"] < _MAX_OVERHEAD_RATIO


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    invocations = _QUICK_INVOCATIONS if quick else _INVOCATIONS
    rounds = 1 if quick else _ROUNDS
    result = _measure(invocations, rounds=rounds)
    payload = {
        "bench": "engine wall clock with streaming telemetry on vs off "
        f"(best of {rounds} round(s) per side)",
        "baseline": "NULL_SPANS zero-cost-off path (one enabled-check "
        "per instrumented site)",
        "instrumented": "telemetry-only span tracer: a MetricsRegistry on "
        "the simulated clock folds the spans of the engines, runtime, "
        "faastore, network, and containers",
        "workload": "run_trials over file-processing/cycles/"
        "video-ffmpeg/genome, both engine modes",
        "invariant": "per-trial snapshots from jobs=2, merged in trial "
        "order, are bit-identical to the jobs=1 run",
        "max_overhead_ratio": _MAX_OVERHEAD_RATIO,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        **result,
    }
    out = _HERE.parent / "BENCH_obs.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwritten to {out}")
    if payload["overhead_ratio"] >= _MAX_OVERHEAD_RATIO:
        print(
            f"WARNING: telemetry overhead ratio "
            f"{payload['overhead_ratio']} exceeds bound "
            f"{_MAX_OVERHEAD_RATIO}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
