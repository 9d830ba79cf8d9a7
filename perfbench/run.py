#!/usr/bin/env python3
"""End-to-end benchmark of the FaaSFlow reproduction.

Runs one workload (see ``perfbench/workloads.py``) in this process::

    python3 perfbench/run.py --workload serve-ctl --seed 1 --seconds 15 --trace 0

``--trace 0`` builds the system several times (``setup_s`` is the
median), then serves the workload once with nothing wrapped and
reports the end-to-end metrics.  ``--trace 1`` serves the workload
untraced and then again with every layer's entry points wrapped
(``perfbench/layers.py``), checks that both produce the same simulated
outcome stream, and reports the per-layer metrics.

Every metric's time base is in ``perfbench/metrics.json``: *host*
numbers are the simulator's own wall clock and vary between runs;
*sim* numbers are the modelled cluster's clock and repeat exactly at a
fixed seed and run length.  Human-readable lines come first; the last
line of standard output is one JSON object.  The exit code is non-zero
when any correctness check fails.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

# Invocations that finish ok within this many times their critical
# path's execution time meet the SLO.
SLOWDOWN_LIMIT = 3.0
# Set-ups timed per run; setup_s reports the median import time of
# this many fresh interpreters plus the median of this many builds.
SETUP_REPEATS = 5
# Pieces of the measured run, each followed by a host-speed probe.
SLICES = 20
# A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def import_seconds(repeats: int) -> list[float]:
    """Host time a fresh interpreter spends importing the program.

    Each sample is a new ``python3`` process timing the same imports
    this benchmark's own start-up makes; the processes are waited for.
    """
    probe = (
        "import sys, time; sys.path[:0] = sys.argv[1:3]; "
        "t = time.perf_counter(); import perfbench.workloads; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", probe, str(_ROOT / "src"), str(_ROOT)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout))
    return samples


def serve(built) -> tuple[float, float]:
    """Run every client to completion.

    Returns the host seconds spent in ``Environment.run`` and the same
    time normalised to a nominal-speed host: the run is cut into
    ``SLICES`` pieces of simulated time, and each piece's host time is
    scaled by how much slower than nominal the reference probe ran
    right after it.  Stopping and resuming ``run`` at a simulated time
    changes no simulated outcome.
    """
    from perfbench import reference
    from perfbench.workloads import due_times

    env = built.env
    done = env.all_of([env.process(client.run()) for client in built.clients])
    horizon = max(due_times(c, s)[-1] for c, s in zip(built.clients, built.seeds))
    host_s = normalised_s = 0.0
    for piece in range(1, SLICES + 1):
        started = time.perf_counter()
        env.run(until=done if piece == SLICES else horizon * piece / SLICES)
        elapsed = time.perf_counter() - started
        host_s += elapsed
        normalised_s += elapsed * reference.NOMINAL_S / reference.probe()
    return host_s, normalised_s


def digest(records) -> str:
    """Hash of the simulated outcome stream, in completion order."""
    h = hashlib.sha256()
    for r in records:
        h.update(
            f"{r.workflow}|{r.invocation_id}|{r.status}|"
            f"{r.started_at!r}|{r.finished_at!r}\n".encode()
        )
    return h.hexdigest()


def outcome(built, host_s: float, normalised_s: float) -> dict:
    """End-to-end metrics and correctness checks of one served run."""
    from repro.metrics import InvocationStatus, percentile
    from repro.sim import MB

    from perfbench.workloads import due_times

    system, cluster = built.system, built.cluster
    records = system.metrics.invocations
    attempted = sum(client.invocations for client in built.clients)
    cap = system.config.execution_timeout
    by_status = {
        s: 0 for s in (InvocationStatus.OK, InvocationStatus.TIMEOUT, InvocationStatus.FAILED)
    }
    for r in records:
        by_status[r.status] = by_status.get(r.status, 0) + 1
    ok = by_status[InvocationStatus.OK]

    def latency(r):
        # A timeout's record already ends at the cap; a failure counts
        # as missing every limit, so it too is charged the cap.
        return r.latency if r.status != InvocationStatus.FAILED else cap

    latencies = [latency(r) for r in records]
    p99 = percentile(latencies, 99)
    per_workflow: dict[str, list[float]] = {}
    for r, value in zip(records, latencies):
        per_workflow.setdefault(r.workflow, []).append(value)
    tenant_p90 = {wf: percentile(v, 90) for wf, v in per_workflow.items()}

    lateness = 0.0
    for client, seed in zip(built.clients, built.seeds):
        starts = sorted(r.started_at for r in records if r.workflow == client.workflow)
        for start, due in zip(starts, due_times(client, seed)):
            lateness = max(lateness, start - due)

    ok_records = [r for r in records if r.status == InvocationStatus.OK]
    too_fast = [r for r in ok_records if r.latency < r.critical_path_exec]
    memstores = [w.memstore for w in cluster.workers]
    storage_nic = cluster.storage_node.nic
    metrics = {
        "invocations_per_host_s": ok / host_s,
        "invocations_per_norm_s": ok / normalised_s,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "latency_p99_s": p99,
        "tenant_p90_max_s": max(tenant_p90.values()),
        "tenant_p99_max_s": max(percentile(v, 99) for v in per_workflow.values()),
        "sched_overhead_p50_s": percentile(
            [r.scheduling_overhead for r in records], 50
        ),
        "slo_attainment": sum(
            1 for r in ok_records
            if r.latency <= SLOWDOWN_LIMIT * r.critical_path_exec
        ) / attempted,
        "failed_fraction": (attempted - ok) / attempted,
        "remote_mb_per_invocation": cluster.remote_store.stats.total_bytes / MB / attempted,
        "storage_nic_mb_per_invocation": (
            storage_nic.bytes_sent + storage_nic.bytes_received
        ) / MB / attempted,
    }
    checks = {
        "all_attempts_accounted": len(records) == attempted
        and sum(by_status.values()) == attempted,
        "remote_store_drained": cluster.remote_store.key_count == 0,
        # No object left in any node's store (the byte gauge is a float
        # accumulator, so allow it sub-byte residue) and no FaaStore
        # reference count or single-flight fetch outstanding.
        "faastores_drained": all(m.key_count == 0 and abs(m.used) < 1.0 for m in memstores)
        and not getattr(system.policy, "_refcounts", None)
        and not getattr(system.policy, "_inflight", None),
        "none_faster_than_critical_path": not too_fast,
        "arrivals_on_time": lateness == 0.0,
        "tail_samples": sum(1 for v in latencies if v > p99) >= MIN_TAIL_SAMPLES
        and all(
            sum(1 for v in values if v > tenant_p90[wf]) >= MIN_TAIL_SAMPLES
            for wf, values in per_workflow.items()
        ),
    }
    return {
        "attempted": attempted,
        "by_status": by_status,
        "samples": len(latencies),
        "beyond_p99": sum(1 for v in latencies if v > p99),
        "digest": digest(records),
        "events": built.env._eid,
        "sim_s": built.env.now,
        "host_s": host_s,
        "normalised_s": normalised_s,
        "max_lateness_s": lateness,
        "metrics": metrics,
        "checks": checks,
    }


def measure(workload, seed: int, seconds: float, repeats: int = SETUP_REPEATS) -> dict:
    """Untraced run: set up ``repeats`` times, serve the last build."""
    setups = []
    for _ in range(repeats):
        started = time.perf_counter()
        built = workload.build(seed, seconds)
        setups.append(time.perf_counter() - started)
    result = outcome(built, *serve(built))
    result["setup_builds_s"] = setups
    return result


def measure_traced(workload, seed: int, seconds: float) -> dict:
    """One untraced and one traced run of the same inputs."""
    from perfbench.layers import LayerTracer

    plain = measure(workload, seed, seconds, repeats=1)
    with LayerTracer() as tracer:
        built = workload.build(seed, seconds)
        traced = outcome(built, *serve(built))
    counts, samples = tracer.counts, tracer.samples
    fetched = [t for t in built.system.metrics.transfers if t.phase == "get"]
    fetched_bytes = sum(t.size for t in fetched)
    data_events = built.system.metrics.transfers
    acquires = counts.get("container.acquires", 0.0)
    functions = counts.get("scheduler.functions", 0.0)
    ok_records = [r for r in built.system.metrics.invocations if r.status == "ok"]
    layers = {
        "kernel.events": float(traced["events"]),
        "kernel.host_self_s": tracer.kernel_self_s(),
        "kernel.host_us_per_event": plain["host_s"] / plain["events"] * 1e6,
        "engine.functions_triggered": counts.get("engine.functions_triggered", 0.0),
        "engine.control_messages": counts.get("engine.control_messages", 0.0),
        "engine.host_self_s": tracer.self_s["engine"],
        "engine.sim_engine_s_mean": _mean(
            [r.latency - min(r.critical_path_exec, r.latency) for r in ok_records]
        ),
        "runtime.executions": counts.get("runtime.executions", 0.0),
        "runtime.retries": counts.get("runtime.retries", 0.0),
        "runtime.host_self_s": tracer.self_s["runtime"],
        "runtime.sim_execute_s_mean": _mean(samples.get("runtime.sim_execute_s", [])),
        "container.acquires": acquires,
        "container.cold_starts": counts.get("container.cold_starts", 0.0),
        "container.cold_start_ratio": (
            counts.get("container.cold_starts", 0.0) / acquires if acquires else 0.0
        ),
        "container.sim_queue_wait_s_mean": _mean(samples.get("container.sim_queue_wait_s", [])),
        "container.sim_cold_start_s_mean": _mean(samples.get("container.sim_cold_start_s", [])),
        "faastore.saves": counts.get("faastore.saves", 0.0),
        "faastore.fetches": counts.get("faastore.fetches", 0.0),
        "faastore.pushes": counts.get("faastore.pushes", 0.0),
        "faastore.spills": counts.get("faastore.spills", 0.0),
        "faastore.local_hit_ratio": (
            sum(t.size for t in fetched if t.local) / fetched_bytes if fetched_bytes else 0.0
        ),
        "faastore.host_self_s": tracer.self_s["faastore"],
        "faastore.sim_transfer_s_mean": _mean([t.duration for t in data_events]),
        "network.transfers": counts.get("network.transfers", 0.0),
        "network.mb": counts.get("network.bytes", 0.0) / (1024.0 * 1024.0),
        "network.host_s": tracer.self_s["network"],
        "scheduler.schedule_calls": counts.get("scheduler.schedule_calls", 0.0),
        "scheduler.host_s": tracer.self_s["scheduler"],
        "scheduler.localized_fraction": (
            counts.get("scheduler.localized", 0.0) / functions if functions else 0.0
        ),
        "client.arrivals": counts.get("client.arrivals", 0.0),
        "client.max_lateness_s": traced["max_lateness_s"],
        "trace.overhead_ratio": traced["normalised_s"] / plain["normalised_s"],
    }
    traced["checks"]["traced_digest_matches"] = traced["digest"] == plain["digest"]
    traced["checks"]["traced_events_match"] = traced["events"] == plain["events"]
    return {"plain": plain, "traced": traced, "layers": layers}


def _load_spec() -> dict:
    with open(_HERE / "metrics.json") as handle:
        return json.load(handle)


def _print_metric(name: str, value: float, spec: dict) -> None:
    meta = spec[name]
    print(f"  {name:34s} {value:16.6f} {meta['unit']:8s} [{meta['base']}]")


def _print_checks(checks: dict) -> None:
    for name, passed in checks.items():
        print(f"  check {name:34s} {'ok' if passed else 'FAILED'}")


def _summary(result: dict) -> None:
    print(
        f"  attempted {result['attempted']} ({result['by_status']}); "
        f"{result['samples']} latency samples, {result['beyond_p99']} beyond p99; "
        f"{result['events']} events over {result['sim_s']:.3f} sim s in "
        f"{result['host_s']:.3f} host s"
    )
    print(f"  digest {result['digest']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        from perfbench.workloads import WORKLOADS
    except ImportError as error:
        print(f"error: cannot import the program from {_ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    spec = _load_spec()["metrics"]
    bench = json.loads((_ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(
        f"workload {workload.name}: seed {args.seed}, {workload.invocations(args.seconds)} "
        f"invocations, slowdown limit {SLOWDOWN_LIMIT}, trace {args.trace}"
    )
    if args.trace == 0:
        result = measure(workload, args.seed, args.seconds)
        imports = [import_s, *import_seconds(SETUP_REPEATS - 1)]
        result["metrics"]["setup_s"] = _median(imports) + _median(result["setup_builds_s"])
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        print(
            f"  setup: median of {len(imports)} imports {_median(imports):.4f} s + "
            f"median of {len(result['setup_builds_s'])} builds "
            f"{_median(result['setup_builds_s']):.4f} s"
        )
        _summary(result)
        for name, value in result["metrics"].items():
            _print_metric(name, value, spec)
        checks = result["checks"]
        reported = {m["name"]: result["metrics"][m["name"]] for m in bench["end_to_end"]}
        attempted = result["attempted"]
        failed = attempted - result["by_status"]["ok"]
    else:
        result = measure_traced(workload, args.seed, args.seconds)
        print("untraced pass:")
        _summary(result["plain"])
        print("traced pass:")
        _summary(result["traced"])
        for name, value in result["layers"].items():
            _print_metric(name, value, spec)
        checks = {**result["plain"]["checks"], **result["traced"]["checks"]}
        reported = {m["name"]: result["layers"][m["name"]] for m in bench["per_layer"]}
        attempted = result["traced"]["attempted"]
        failed = attempted - result["traced"]["by_status"]["ok"]
    _print_checks(checks)
    correct = all(checks.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
