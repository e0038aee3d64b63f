"""The verify report's check entries: how each is built, and which the battery makes."""

import inspect
import json
import math
from pathlib import Path

from hybrid_teleport import cli
from hybrid_teleport import teleport as tp
from hybrid_teleport import verify as vf

PINNED = Path(__file__).resolve().parents[1] / "benchmarks" / "verify_battery.json"

# the checks that report where their largest deviation sits
LOCATED = {
    "channel_pc_kraus_vs_closed",
    "channel_ps_kraus_vs_closed",
    "negativity_pc_numeric_vs_closed",
    *(f"pipeline_vs_closed_{quantity}_{d}"
      for quantity in ("fidelity", "probability") for d in ("p->c", "c->p", "p->s", "s->p")),
    "moment_integrals_vs_quadrature",
    "avg_closed_vs_quadrature",
    "crossing_alpha_star",
}


class TestWorst:
    def test_keeps_the_first_location_of_the_largest_deviation(self):
        entry = vf._worst("c", 1.0, [(0.1, "a"), (0.3, "b"), (0.2, "c"), (0.3, "d")])
        assert entry == {"name": "c", "max_abs_deviation": 0.3, "tolerance": 1.0,
                         "pass": True, "worst_at": "b"}

    def test_no_location_when_every_deviation_is_zero(self):
        entry = vf._worst("c", 1e-9, [(0.0, "a"), (0.0, "b")])
        assert entry["max_abs_deviation"] == 0.0
        assert "worst_at" not in entry

    def test_no_location_when_none_is_given(self):
        entry = vf._worst("c", 1e-9, [(1e-12, None), (3e-12, None)])
        assert entry["max_abs_deviation"] == 3e-12
        assert "worst_at" not in entry

    def test_no_deviations_read_as_zero(self):
        assert vf._worst("c", 0.0, []) == {"name": "c", "max_abs_deviation": 0.0,
                                          "tolerance": 0.0, "pass": True}

    def test_a_prefix_reduced_to_its_largest_pair_keeps_the_entry(self):
        # the pipeline phase reduces each channel's pairs before the next channel
        pairs = [(0.0, "z"), (0.1, "a"), (0.3, "b"), (0.2, "c"), (0.3, "d"), (0.05, "e")]
        whole = vf._worst("c", 1.0, pairs)
        assert whole["worst_at"] == "b"
        for cut in range(len(pairs) + 1):
            assert vf._worst("c", 1.0, [vf._largest(pairs[:cut])] + pairs[cut:]) == whole

    def test_a_deviation_equal_to_the_tolerance_passes(self):
        assert vf._worst("c", 1e-6, [(1e-6, None)])["pass"]
        assert not vf._worst("c", 1e-6, [(2e-6, None)])["pass"]

    def test_the_first_nan_is_the_largest_deviation_and_fails(self):
        entry = vf._worst("x", 1e-9, [(float("nan"), {"r": 0.1})])
        assert math.isnan(entry["max_abs_deviation"]) and not entry["pass"]
        assert entry["worst_at"] == {"r": 0.1}
        pairs = [(0.2, "a"), (float("nan"), "b"), (3.0, "c"), (float("nan"), "d"), (0.1, "e")]
        # also after the pipeline phase's per-channel carry, at every cut
        for cut in range(len(pairs) + 1):
            entry = vf._worst("x", 1.0, [vf._largest(pairs[:cut])] + pairs[cut:])
            assert math.isnan(entry["max_abs_deviation"]) and not entry["pass"]
            assert entry["worst_at"] == "b"


def test_a_nan_pipeline_fidelity_fails_its_check_where_it_arose(monkeypatch):
    # one p->c fidelity turns NaN on the first channel; later channels are finite
    summary = tp.pipeline_summary
    calls = []

    def first_nan(direction, *args, **kwargs):
        result = summary(direction, *args, **kwargs)
        if direction is tp.Direction.P_TO_C:
            calls.append(None)
            if len(calls) == 3:
                result["fidelity"] = float("nan")
        return result

    monkeypatch.setattr(tp, "pipeline_summary", first_nan)
    checks, _ = vf._pipeline_checks((0.0, 0.6), (0.5,), 2, 2)
    check = next(c for c in checks if c["name"] == "pipeline_vs_closed_fidelity_p->c")
    assert math.isnan(check["max_abs_deviation"]) and not check["pass"]
    # the third input of the first channel: theta = 2 pi / 3, phi = 0
    assert check["worst_at"] == {"r": 0.0, "alpha": 0.5, "theta": 2 * math.pi / 3, "phi": 0.0,
                                 "direction": "p->c"}


def test_negativity_audit_reads_null_when_no_point_is_entangled_enough():
    # near r = 1 no numeric negativity exceeds 1e-6, so there is no ratio to report
    checks, (audit,) = vf._negativity_checks((0.9999999, 0.99999999), (0.5,))
    assert [check["name"] for check in checks] == [
        "negativity_ps_numeric_vs_quartic", "negativity_pc_numeric_vs_closed",
        "negativity_pc_schmidt_point"]
    assert audit["name"] == "negativity_pc_variant_scale"
    assert audit["measured"] == {"ratio_min": None, "ratio_max": None, "ratio_mean": None}


def test_crossing_reads_the_paper_grid_whatever_r_range_is_given(tmp_path):
    # alpha* is a property of the paper's r grid; a narrowed range must not move it
    out = tmp_path / "report.json"
    cli.main(["verify", "--quick", "--r-min", "0.9999999", "--r-max", "0.99999999",
              "--r-steps", "2", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["grid"]["r"] == [0.9999999, 0.99999999]
    crossing = next(c for c in report["checks"] if c["name"] == "crossing_alpha_star")
    assert crossing["pass"]
    assert crossing["worst_at"]["alpha_star"] == 0.49


def test_quick_battery_makes_the_pinned_checks_in_order():
    report = vf.run_battery(pipeline_r=(0.0, 0.6), oracle_alphas=(0.5, 1.0), angle_grid=(4, 6))
    pinned = json.loads(PINNED.read_text())["checks"]
    assert [check["name"] for check in report["checks"]] == pinned
    assert {check["name"] for check in report["checks"] if "worst_at" in check} == LOCATED
    assert report["passed"]


def c_to_p_calls(oracle_alphas, pipeline_r, n_theta, n_phi):
    """c->p pipeline calls of a battery: per channel, two per input and two at the equator."""
    return len(oracle_alphas) * len(pipeline_r) * (2 * n_theta * n_phi + 2)


def test_battery_makes_the_pinned_number_of_c_to_p_calls(monkeypatch):
    # counted where callers resolve it, as the benchmark's tracer does, so a change
    # to the count fails here rather than in the benchmark's output check
    calls = [0]
    original = tp.teleport_c_to_p

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(tp, "teleport_c_to_p", counted)
    quick = {"oracle_alphas": (0.5, 1.0), "pipeline_r": (0.0, 0.6), "angle_grid": (4, 6)}
    vf.run_battery(**quick)
    assert calls[0] == c_to_p_calls(quick["oracle_alphas"], quick["pipeline_r"],
                                    *quick["angle_grid"])
    pinned = json.loads(PINNED.read_text())
    angle_grid = inspect.signature(vf.run_battery).parameters["angle_grid"].default
    assert angle_grid == (6, 8)
    assert c_to_p_calls(pinned["grid"]["oracle_alphas"], pinned["grid"]["pipeline_r"],
                        *angle_grid) == pinned["teleport_c_to_p_calls"] == 1176
