"""Metric arithmetic of the benchmark on fixed inputs.

    python3 -m pytest -q benchmarks
"""

import hashlib
import math

import pytest

import metrics
import tracing


def test_tail_percentile_keeps_ten_samples_beyond():
    assert metrics.tail_percentile(100) == 90
    assert metrics.tail_percentile(50) == 80
    assert metrics.tail_percentile(55) == 81
    assert metrics.tail_percentile(10) is None
    for n in range(11, 400):
        p = metrics.tail_percentile(n)
        beyond = n - math.ceil(p * n / 100)
        assert beyond >= 10
        assert n - math.ceil((p + 1) * n / 100) < 10  # one percent higher keeps fewer


def test_latency_summary_tail_of_fifty():
    values = [float(v) for v in range(1, 51)]  # 1..50
    s = metrics.latency_summary(values)
    assert s == {"n": 50, "p50": 25.5, "tail_pct": 80, "tail": 40.0}
    assert sum(v > s["tail"] for v in values) == 10


def test_latency_summary_percentile_follows_the_plan_size():
    values = [float(v) for v in range(1, 101)]  # two plans of 50
    s = metrics.latency_summary(values, planned=50)
    assert s["tail_pct"] == 80 and s["tail"] == 80.0 and s["n"] == 100


def test_latency_summary_small_sample_reports_maximum():
    s = metrics.latency_summary([3.0, 1.0, 2.0])
    assert s["tail_pct"] is None and s["tail"] == 3.0 and s["p50"] == 2.0
    s = metrics.latency_summary([float(v) for v in range(19)])  # p47 would sit below the median
    assert s["tail_pct"] is None and s["tail"] == 18.0
    assert metrics.latency_summary([float(v) for v in range(20)])["tail_pct"] == 50


def test_calibrated_latency_follows_the_reference_loop():
    # the machine ran the reference at 20 and 30 ms around a 0.5 s command: 25 ms on average
    assert metrics.calibrated(0.5, 0.020, 0.030, 0.010) == pytest.approx(0.2)
    # a machine twice as fast halves the command and the reference alike
    assert metrics.calibrated(0.25, 0.005, 0.005, 0.010) == pytest.approx(0.5)
    assert metrics.calibrated(0.5, 0.010, 0.010, 0.010) == pytest.approx(0.5)


def test_self_time_nested_spans():
    spans = [
        ("root", 0.0, 10.0, None, None),
        ("child", 1.0, 4.0, 0, None),
        ("grandchild", 2.0, 3.0, 1, None),
        ("child", 5.0, 6.0, 0, None),
    ]
    assert metrics.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_overlapping_and_overhanging_children():
    spans = [
        ("root", 0.0, 10.0, None, None),
        ("a", 1.0, 5.0, 0, None),
        ("b", 3.0, 7.0, 0, None),    # overlaps a: the union 1..7 counts once
        ("c", 9.0, 12.0, 0, None),   # runs past the parent: only 9..10 is covered
    ]
    assert metrics.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_leaves_out_the_tracer_cost():
    spans = [
        ("root", 0.0, 10.0, None, None),
        ("a", 1.0, 2.0, 0, None),
        ("b", 3.0, 4.0, 0, None),
        ("leaf", 3.2, 3.4, 2, None),
        ("c", 5.0, 5.001, None, None),
        ("d", 5.0005, 5.0006, 4, None),
    ]
    selfs = metrics.self_times(spans, metrics.SpanCost(inside=0.0, outside=0.5))
    assert selfs[:4] == pytest.approx([10.0 - 2.0 - 2 * 0.5, 1.0, 1.0 - 0.2 - 0.5, 0.2])
    assert selfs[4] == 0.0  # never below zero
    selfs = metrics.self_times(spans, metrics.SpanCost(inside=0.1, outside=0.5))
    assert selfs[:4] == pytest.approx([7.0 - 0.1, 0.9, 0.3 - 0.1, 0.1])


def test_group_time_counts_outermost_calls_only():
    spans = [
        ("q", 0.0, 4.0, None, None),
        ("inner", 1.0, 3.0, 0, None),
        ("q", 1.5, 2.5, 1, None),     # nested inside another q through a non-group span
        ("q", 5.0, 6.0, None, None),
    ]
    assert metrics.group_time(spans, {"q"}) == (pytest.approx(5.0), 2)


def test_failure_summary_keeps_both_counts():
    assert metrics.failure_summary(512, 18) == {
        "attempted": 512, "failed": 18, "failed_ratio": 18 / 512}
    assert metrics.failure_summary(24, 0)["failed_ratio"] == 0.0
    with pytest.raises(ValueError):
        metrics.failure_summary(0, 0)
    with pytest.raises(ValueError):
        metrics.failure_summary(3, 4)


def test_figure_digest_mismatch_counts_as_failure():
    good, bad = b"r,N\n0,1\n", b"r,N\n0,0.999\n"
    expected = {"fig1.csv": hashlib.sha256(good).hexdigest(),
                "fig3.csv": hashlib.sha256(good).hexdigest()}
    assert metrics.digest_mismatches({"fig1.csv": good, "fig3.csv": good}, expected) == []
    assert metrics.digest_mismatches({"fig1.csv": good, "fig3.csv": bad}, expected) == ["fig3.csv"]
    # a missing file and an unexpected one are failures too
    assert metrics.digest_mismatches({"fig1.csv": good, "fig9.csv": good}, expected) == [
        "fig3.csv", "fig9.csv"]


PINNED = {"checks": ["channel_semigroup", "pipeline_vs_closed_fidelity_c->p"],
          "grid": {"r": [0.0, 0.5], "quadrature": [64, 128]},
          "teleport_c_to_p_calls": 1176}


def _report(names, grid):
    return {"passed": True, "grid": grid, "checks": [{"name": n, "pass": True} for n in names]}


def test_battery_of_the_pinned_size_passes():
    report = _report(PINNED["checks"], PINNED["grid"])
    assert metrics.battery_mismatches(report, 1176, PINNED) == []


def test_smaller_battery_counts_as_failure_even_when_every_check_passes():
    dropped = _report(PINNED["checks"][:1], PINNED["grid"])
    assert len(metrics.battery_mismatches(dropped, 1176, PINNED)) == 1
    coarser = _report(PINNED["checks"], {"r": [0.0], "quadrature": [64, 128]})
    assert metrics.battery_mismatches(coarser, 1176, PINNED) == [
        "grid differs from the pinned grid"]
    fewer_angles = _report(PINNED["checks"], PINNED["grid"])
    assert len(metrics.battery_mismatches(fewer_angles, 588, PINNED)) == 1
    assert len(metrics.battery_mismatches(dropped, 588, PINNED)) == 2


def test_unit_range():
    assert not metrics.out_of_unit_range(0.0) and not metrics.out_of_unit_range(1.0)
    for v in (-1.25, 1.0001, math.nan, math.inf):
        assert metrics.out_of_unit_range(v)


def test_layer_metrics_beam_splitter_cache_and_self_time():
    spans = [
        ("cli.main", 0.0, 10.0, None, None),
        ("teleport.pipeline_summary", 1.0, 9.0, 0, None),
        ("teleport.teleport_c_to_p", 1.5, 8.0, 1, None),
        ("fock.beam_splitter_50_50", 2.0, 6.0, 2, {"miss": True, "bytes": 1000}),
        ("teleport.teleport_c_to_p", 8.2, 8.8, 1, None),
        ("fock.beam_splitter_50_50", 8.3, 8.4, 4, {"miss": False, "bytes": 0}),
    ]
    m = tracing.layer_metrics(spans, rows_written=7)
    assert set(m) == set(tracing.LAYER_METRICS)
    assert m["fock.beam_splitter_50_50.builds"] == 1
    assert m["fock.beam_splitter_50_50.build_s"] == pytest.approx(4.0)
    assert m["fock.beam_splitter_50_50.hit_ratio"] == pytest.approx(0.5)
    assert m["fock.beam_splitter_50_50.bytes"] == 1000
    assert m["teleport.teleport_c_to_p.calls"] == 2
    assert m["teleport.teleport_c_to_p.self_s"] == pytest.approx(6.5 - 4.0 + 0.6 - 0.1)
    assert m["teleport.pipeline_summary.self_s"] == pytest.approx(8.0 - 6.5 - 0.6)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["cli.rows_written"] == 7
    assert m["averages.quadrature.calls"] == 0


def test_layer_metrics_self_time_leaves_out_the_tracer_cost():
    # a CLI command making many short closed-form calls: without the tracer's
    # cost per child taken off, cli.main would keep the recording time
    spans = [("cli.main", 0.0, 10.0, None, None)]
    spans += [("averages.avg_fidelity", 1.0 + i, 1.5 + i, 0, None) for i in range(8)]
    plain = tracing.layer_metrics(spans)
    assert plain["cli.self_s"] == pytest.approx(6.0)
    m = tracing.layer_metrics(spans, cost=metrics.SpanCost(inside=0.05, outside=0.25))
    assert m["cli.self_s"] == pytest.approx(6.0 - 0.05 - 8 * 0.25)
    assert m["averages.closed_form.s"] == pytest.approx(4.0 - 8 * 0.05)
    assert m["averages.closed_form.calls"] == 8
