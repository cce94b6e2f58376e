"""Tests of the benchmark's own code: cohort generators and span arithmetic.

    python3 -m pytest bench/tests -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {"participants": 4, "shifts_per_trial": 50, "max_trials": 2}


@pytest.mark.parametrize("name", sorted(workloads.COHORTS))
def test_generator_smoke_is_seeded(name, tmp_path):
    cohort = workloads.scaled(workloads.COHORTS[name], **TINY)
    a = workloads.generate(cohort, 7, str(tmp_path / "a"))
    b = workloads.generate(cohort, 7, str(tmp_path / "b"))
    c = workloads.generate(cohort, 8, str(tmp_path / "c"))
    assert checks.tree_digest(str(tmp_path / "a")) == checks.tree_digest(str(tmp_path / "b"))
    assert checks.tree_digest(str(tmp_path / "a")) != checks.tree_digest(str(tmp_path / "c"))
    assert a == b
    sizes = a["sizes"]
    assert sizes["participants"] == len(a["truth"]) == cohort.participants
    assert sizes["trial_pairs"] == cohort.trial_pairs
    missing = sum(f["reason"] == "missing_stream" for f in a["faults"])
    assert sizes["csv_files"] == 2 * cohort.trial_pairs - missing
    assert len(os.listdir(tmp_path / "a")) == sizes["csv_files"]
    injected = sorted(workloads.FAULT_REASONS) if cohort.inject_faults else []
    assert sorted(f["reason"] for f in a["faults"]) == injected


def test_injected_faults_are_exactly_what_preprocess_reports(tmp_path):
    from eyehead.cli import dispatch

    cohort = workloads.scaled(workloads.COHORTS["uneven-cohort"], **TINY)
    info = workloads.generate(cohort, 3, str(tmp_path / "traces"))
    assert sorted(f["reason"] for f in info["faults"]) == sorted(workloads.FAULT_REASONS)
    out = tmp_path / "out"
    assert dispatch(["preprocess", "--in-dir", str(tmp_path / "traces"),
                     "--out", str(out / "shifts.csv")]) == 0
    errors = []
    facts = checks.check_sanity(str(out), info, errors)
    assert errors == []
    assert facts == {"trials_found": cohort.trial_pairs, "trials_failed": 3}


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        ["cli.fit", 0.0, 10.0, -1],
        ["fitting.fit_participant", 1.0, 4.0, 0],
        ["fitting.fit_participant", 5.0, 7.0, 0],
        ["fitting.fit_soft_hinge", 1.5, 3.0, 1],
        ["fitting.fit_hinge", 3.0, 3.5, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 2.0, 1.5, 0.5])
    metrics = tracing.summarize(spans, {})
    assert metrics["cli.fit.busy_s"] == pytest.approx(10.0)
    assert metrics["cli.fit.self_s"] == pytest.approx(5.0)
    assert metrics["fitting.fit_participant.busy_s"] == pytest.approx(5.0)
    assert metrics["fitting.fit_participant.calls"] == 2
    assert metrics["fitting.fit_participant.call_p50_s"] == pytest.approx(2.5)
    assert metrics["fitting.fit_participant.call_tail_pct"] == 50


def test_overlapping_children_are_covered_once():
    assert tracing.covered([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(6.0)
    spans = [["cli.preprocess", 0.0, 10.0, -1],
             ["ingest.load_trace_csv", 1.0, 4.0, 0],
             ["ingest.load_trace_csv", 3.0, 6.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_tail_percentile_leaves_ten_calls_above():
    assert tracing.tail_percentile(10) is None
    assert tracing.tail_percentile(48) == 79
    assert tracing.tail_percentile(192) == 94
    for n in (11, 24, 48, 192, 1000):
        q = tracing.tail_percentile(n)
        assert n - n * q / 100 >= 10
        assert n - n * (q + 1) / 100 < 10


def test_install_wraps_every_binding_and_undoes():
    import eyehead.events as events
    import eyehead.ingest as ingest

    orig = ingest.one_euro
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert events.one_euro is ingest.one_euro is not orig
        out = events.one_euro(np.arange(5.0), np.ones(5))
        assert out.size == 5
    finally:
        uninstall()
    assert ingest.one_euro is orig and events.one_euro is orig
    assert [s[0] for s in tracer.spans] == ["ingest.one_euro"]
    assert tracer.counters["ingest.one_euro.samples"] == 5


def test_host_speed_leaves_its_samples_out_of_the_block_time():
    import signal
    import time

    import worker

    handler = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with worker.HostSpeed() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * worker.SAMPLE_PERIOD_S:
            pass
    wall = time.perf_counter() - t0
    assert len(speed.refs) >= 4  # before, at least two samples, after
    assert speed.sampled_s > 0
    assert speed.own_s + speed.sampled_s < wall
    assert speed.ref_s == pytest.approx(sum(speed.refs) / len(speed.refs))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert worker.normalised(2.0, 2 * worker.REF_NOMINAL_S) == pytest.approx(1.0)
