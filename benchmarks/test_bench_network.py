"""Cluster-scale network-model regression bench vs the frozen seed.

``_seed_network.py`` is a verbatim copy of ``sim/network.py`` as it
stood before the scaling work (flow aggregation into route classes,
component-local rebalancing, per-component analytic progress, timer
cancellation, the water-filling level cache).  Both modules are driven
by the byte-exact same workload —
``repro.experiments.fig_scale.drive_network``, a seeded mix of
worker-group transfers with a per-group collector hotspot — and must
produce the same transfer records: identical routes, sizes and start
times, and finish times within ``_FINISH_REL_TOL`` (the live model
advances a flow's bytes only at its own component's events, so finish
times differ from the seed's in the last bits).  Each cell reports its
``max_finish_rel_diff``; the bench then compares
wall-clock/events-per-second across a nodes x concurrent-flows sweep.

Run directly (``python benchmarks/test_bench_network.py``) to refresh
the committed ``BENCH_network.json``; pass ``--quick`` for the small
sweep the CI smoke job uses.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import sys
import time
from pathlib import Path

from repro.experiments.fig_scale import drive_network
from repro.sim import network as new_network

_HERE = Path(__file__).resolve().parent
_ROUNDS = 3
# Per-record finish-time tolerance against the seed model (measured
# worst case over the full sweep: 3.2e-15).  tests/sim/test_network_model.py
# asserts the same bound in the tier-1 suite.
_FINISH_REL_TOL = 1e-12
# High-contention sweep points (>= 64 nodes or >= 500 concurrent flows)
# must hold this geometric-mean speedup; every 8-node point must not
# regress below 1.0x.
_TARGET_HIGH_GEOMEAN = 3.0
# A drive shorter than this is dominated by scheduler noise (the 8-node,
# 10-flow cell takes about 0.3 ms): such cells are timed in batches of
# repeated drives, so that every timing sample covers at least this much
# measured wall clock.
_MIN_SAMPLE_SECONDS = 0.010
_CELLS = [
    (8, 10),
    (8, 100),
    (8, 1000),
    (32, 200),
    (64, 500),
    (128, 1000),
]
_QUICK_CELLS = [
    (8, 10),
    (8, 100),
    (16, 100),
    (32, 200),
]


def _load_seed_network():
    spec = importlib.util.spec_from_file_location(
        "faasflow_seed_network", _HERE / "_seed_network.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclass creation reads sys.modules[cls.__module__] during
    # exec_module, so the module must be registered first.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _is_high_contention(nodes: int, flows: int) -> bool:
    return nodes >= 64 or flows >= 500


def _max_finish_rel_diff(reference: list, candidate: list) -> float:
    """Largest relative finish-time difference, record by record.

    Raises if the records differ in anything but finish time, or if a
    finish time is off by more than ``_FINISH_REL_TOL``.
    """
    if len(reference) != len(candidate):
        raise AssertionError(
            f"{len(candidate)} records against the seed's {len(reference)}"
        )
    worst = 0.0
    for theirs, ours in zip(reference, candidate):
        if ours[:4] != theirs[:4] or ours[5:] != theirs[5:]:
            raise AssertionError(f"record {ours} differs from seed {theirs}")
        diff = abs(ours[4] - theirs[4]) / abs(theirs[4])
        if diff > _FINISH_REL_TOL:
            raise AssertionError(
                f"finish time {ours[4]!r} vs seed {theirs[4]!r}: relative "
                f"difference {diff:.3g} exceeds {_FINISH_REL_TOL}"
            )
        worst = max(worst, diff)
    return worst


def _sample(module, nodes: int, flows: int, batch: int) -> float:
    """Mean wall clock of one drive over ``batch`` repeated drives."""
    total = 0.0
    for _ in range(batch):
        total += drive_network(module, nodes, flows)["wall_seconds"]
    return total / batch


def _measure(cells, rounds: int = _ROUNDS):
    """Per-cell best-of-``rounds`` wall clock, interleaved A/B.

    A sample of a cell shorter than ``_MIN_SAMPLE_SECONDS`` is the mean
    of a batch of repeated drives that together last that long.

    Round one of every cell also collects transfer records from both
    modules and checks them with :func:`_max_finish_rel_diff` — the
    bench is invalid if the optimized model drifts from the reference
    beyond float rounding.
    """
    seed_mod = _load_seed_network()
    results = []
    for nodes, flows in cells:
        reference = drive_network(seed_mod, nodes, flows, collect_records=True)
        candidate = drive_network(new_network, nodes, flows, collect_records=True)
        max_diff = _max_finish_rel_diff(
            reference["records"], candidate["records"]
        )
        seed_wall = float("inf")
        new_wall = float("inf")
        batch = max(
            1, math.ceil(_MIN_SAMPLE_SECONDS / reference["wall_seconds"])
        )
        # Short cells also get more rounds, so that min-of-rounds
        # converges to the true cost.
        if reference["wall_seconds"] < 0.100:
            cell_rounds = max(rounds, 8)
        else:
            cell_rounds = rounds
        for _ in range(cell_rounds):
            seed_wall = min(seed_wall, _sample(seed_mod, nodes, flows, batch))
            new_wall = min(new_wall, _sample(new_network, nodes, flows, batch))
        events = reference["events"]
        results.append(
            {
                "nodes": nodes,
                "flows": flows,
                "events": events,
                "seed_wall_seconds": round(seed_wall, 6),
                "optimized_wall_seconds": round(new_wall, 6),
                "seed_events_per_sec": round(events / seed_wall),
                "optimized_events_per_sec": round(events / new_wall),
                "drives_per_sample": batch,
                "speedup": round(seed_wall / new_wall, 3),
                "high_contention": _is_high_contention(nodes, flows),
                "max_finish_rel_diff": max_diff,
            }
        )
    return results


def _geomean(values) -> float:
    values = list(values)
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _aggregate(results) -> dict:
    high = [r["speedup"] for r in results if r["high_contention"]]
    small = [r["speedup"] for r in results if r["nodes"] == 8]
    return {
        "geomean_speedup": round(_geomean(r["speedup"] for r in results), 3),
        "geomean_high_contention_speedup": round(_geomean(high), 3),
        "min_8_node_speedup": round(min(small), 3) if small else None,
    }


def test_network_speedup_vs_seed(benchmark):
    def run_ab():
        results = _measure(_QUICK_CELLS, rounds=2)
        return results, _aggregate(results)

    results, aggregate = benchmark.pedantic(run_ab, rounds=1, iterations=1)
    benchmark.extra_info["cells"] = results
    benchmark.extra_info.update(aggregate)
    assert all(r["max_finish_rel_diff"] <= _FINISH_REL_TOL for r in results)
    assert aggregate["geomean_speedup"] >= 1.0, (
        f"network model slower than the frozen seed: {aggregate} {results}"
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    cells = _QUICK_CELLS if quick else _CELLS
    rounds = 2 if quick else _ROUNDS
    results = _measure(cells, rounds=rounds)
    aggregate = _aggregate(results)
    payload = {
        "bench": "fluid network model at cluster scale (wall-clock per "
        f"sweep cell, best of {rounds} interleaved rounds)",
        "baseline": "benchmarks/_seed_network.py (pre-optimization model)",
        "workload": "fig_scale.drive_network: worker-group transfers "
        "with a per-group collector hotspot (group_size=8)",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "cells": results,
        **aggregate,
    }
    out = _HERE.parent / "BENCH_network.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwritten to {out}")
    if not quick and (
        payload["geomean_high_contention_speedup"] < _TARGET_HIGH_GEOMEAN
        or (payload["min_8_node_speedup"] or 1.0) < 1.0
    ):
        print("WARNING: speedup targets not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
