"""Multi-trial runs are identical for any number of worker processes.

``runner.run_trials`` deals independent trials to
``ParallelRunner(jobs)`` workers.  Exactness rests on two facts these
tests pin across ``jobs`` ∈ {1, 2, 4} and all three engines:

- each trial is causally closed (its own environment, a seed derived
  from the trial index), so *where* it runs cannot change its events;
- each trial's invocation-id range is pinned by
  ``reset_invocation_ids(index * stride + 1)``, so even the ids in its
  records do not depend on what its worker ran before.

Telemetry snapshots are collected per trial and merged in trial order,
so the merged snapshot is byte-identical for any ``jobs`` too.
"""

import json

import pytest

from repro.metrics import MetricsCollector
from repro.obs.spans import BREAKDOWN_COMPONENTS
from repro.obs.telemetry import merge_snapshots, validate_snapshot
from repro.runner import _TRIAL_ID_STRIDE, main, run_trials

TRIALS = 3
KWARGS = dict(
    trials=TRIALS, invocations=2, workers=3, seed=13, collect_telemetry=True
)


def canon(snapshot):
    return json.dumps(snapshot, sort_keys=True)


@pytest.fixture(scope="module", params=["master", "worker", "dataflow"])
def serial(request):
    engine = request.param
    return engine, run_trials("cycles", engine=engine, jobs=1, **KWARGS)


@pytest.mark.parametrize("jobs", [2, 4])
def test_trials_identical_across_jobs(serial, jobs):
    engine, one = serial
    many = run_trials("cycles", engine=engine, jobs=jobs, **KWARGS)
    # Scalars, records and per-trial telemetry, trial by trial.
    assert [dict(s) for s in many] == [dict(s) for s in one]
    assert canon(merge_snapshots(s.telemetry for s in many)) == canon(
        merge_snapshots(s.telemetry for s in one)
    )


def test_records_live_in_the_trial_id_range(serial):
    engine, summaries = serial
    for index, summary in enumerate(summaries):
        assert summary.engine == engine
        assert len(summary.records) == 2  # invocations per trial
        base = index * _TRIAL_ID_STRIDE
        for record in summary.records:
            assert base < record.invocation_id < base + _TRIAL_ID_STRIDE
            assert record.status == "ok"


def test_every_trial_carries_a_valid_snapshot(serial):
    _, summaries = serial
    for summary in summaries:
        snapshot = summary.telemetry
        assert validate_snapshot(snapshot) == []
        names = {m["name"] for m in snapshot["metrics"]}
        assert "workflow.latency" in names
        assert "function.execute_seconds" in names
        invocations = [
            m for m in snapshot["metrics"] if m["name"] == "workflow.invocations"
        ]
        assert sum(int(m["total"]) for m in invocations) == len(summary.records)
    assert validate_snapshot(merge_snapshots(s.telemetry for s in summaries)) == []


def _breakdowns(summaries):
    collector = MetricsCollector()
    for summary in summaries:
        for record in summary.records:
            collector.record_invocation(record)
    return [collector.breakdown(r.invocation_id) for r in collector.invocations]


def test_breakdown_sums_to_e2e_and_matches_across_jobs(serial):
    engine, one = serial
    parts_list = _breakdowns(one)
    assert len(parts_list) == 2 * TRIALS
    for parts in parts_list:
        total = sum(parts[c] for c in BREAKDOWN_COMPONENTS)
        assert total == pytest.approx(parts["e2e"], abs=1e-9)
    many = run_trials("cycles", engine=engine, jobs=2, **KWARGS)
    assert _breakdowns(many) == parts_list


def test_trials_validated():
    with pytest.raises(ValueError):
        run_trials("cycles", trials=0)


def test_cli_merged_telemetry_identical_for_any_jobs(tmp_path, capsys):
    paths = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.json"
        argv = [
            "genome", "--trials", "4", "--jobs", str(jobs),
            "--invocations", "2", "--workers", "3",
            "--telemetry-out", str(out),
        ]
        assert main(argv) == 0
        paths.append(out)
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_has_no_shards_option(capsys):
    with pytest.raises(SystemExit):
        main(["genome", "--trials", "2", "--shards", "2"])
    assert "--shards" in capsys.readouterr().err
