"""Smoke tests of the benchmark at a small size.

Run from the repository root with ``python -m pytest perfbench``.  At
this size a run has too few invocations for a p99 with ten samples
beyond it, so the ``tail_samples`` check is the one expected to fail;
the full-size runs enforce it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.layers import LayerTracer, _Timed  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC_FILE = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
SPEC = SPEC_FILE["metrics"]
SMALL = 0.3  # seconds of run length: a few dozen invocations


def _sim_metrics(result):
    return {k: v for k, v in result["metrics"].items() if SPEC[k]["base"] == "sim"}


def _checks_without_tail(checks):
    return {k: v for k, v in checks.items() if k != "tail_samples"}


def test_benchmark_file_matches_workloads_and_spec():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert run.SLOWDOWN_LIMIT == SPEC_FILE["slowdown_limit"]
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert SPEC[metric["name"]]["unit"] == metric["unit"]
        assert SPEC[metric["name"]]["base"] in ("host", "sim")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_runs_repeat_exactly(name):
    workload = WORKLOADS[name]
    first = run.measure(workload, seed=5, seconds=SMALL, repeats=2)
    second = run.measure(workload, seed=5, seconds=SMALL, repeats=1)
    assert first["digest"] == second["digest"]
    assert first["events"] == second["events"]
    assert _sim_metrics(first) == _sim_metrics(second)
    assert all(_checks_without_tail(first["checks"]).values()), first["checks"]
    other = run.measure(workload, seed=6, seconds=SMALL, repeats=1)
    assert other["digest"] != first["digest"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    result = run.measure_traced(WORKLOADS[name], seed=5, seconds=SMALL)
    for metric in BENCH["per_layer"]:
        assert metric["name"] in result["layers"]
    checks = {**result["plain"]["checks"], **result["traced"]["checks"]}
    assert checks["traced_digest_matches"] and checks["traced_events_match"]
    assert all(_checks_without_tail(checks).values()), checks
    assert result["layers"]["client.max_lateness_s"] == 0.0
    assert result["layers"]["client.arrivals"] == result["traced"]["attempted"]
    pushes = result["layers"]["faastore.pushes"]
    assert (pushes > 0) == (name == "sci-dataflow")


def test_tracer_restores_the_program():
    from repro.core import FaaSFlowSystem
    from repro.sim import Network

    before = (FaaSFlowSystem.__dict__["invoke"], Network.__dict__["message"])
    with LayerTracer():
        assert FaaSFlowSystem.__dict__["invoke"] is not before[0]
    assert (FaaSFlowSystem.__dict__["invoke"], Network.__dict__["message"]) == before


def test_timed_generator_forwards_protocol():
    log = []

    def body():
        try:
            got = yield 1
            log.append(got)
            yield 2
        except ValueError as error:
            log.append(str(error))
            yield 3
        finally:
            log.append("closed")
        return "done"

    tracer = LayerTracer()
    returned = []
    gen = _Timed(body(), tracer, "engine", returned.append)
    assert gen.__name__ == "body"
    assert next(gen) == 1
    assert gen.send("x") == 2
    assert gen.throw(ValueError("boom")) == 3
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "done" and returned == ["done"]
    assert log == ["x", "boom", "closed"]

    def outer():
        return (yield from _Timed(body(), tracer, "runtime"))

    delegating = outer()
    assert next(delegating) == 1
    delegating.close()
    assert log[-1] == "closed"
    assert tracer.self_s["engine"] > 0 and tracer.self_s["runtime"] > 0


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_result_as_last_line():
    proc = _cli(ROOT, "--workload", "serve-ctl", "--seed", "3", "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "serve-ctl", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
