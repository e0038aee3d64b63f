"""Acceptance battery: one test per exit criterion, one PASS/FAIL line each.

Criterion 7's fidelity-gap clause is implemented exactly as stated and is
expected to fail: the closed forms themselves put the largest gap between the
p->s average fidelity and the postselected s->p average fidelity at ~0.054
(near r = 0.92), not below 0.01. See the decision notes accompanying the
repository and the `postselect_sp_fidelity_gap` audit in the verify report.
"""

import math
import time

import numpy as np
import pytest

import oracles
from hybrid_teleport import averages as av
from hybrid_teleport import channels as ch
from hybrid_teleport import cli
from hybrid_teleport import entanglement as ent
from hybrid_teleport import fock as fk
from hybrid_teleport import teleport as tp
from hybrid_teleport import verify as vf
from hybrid_teleport.teleport import Direction

R_GRID = [round(0.05 * i, 2) for i in range(20)]  # 0.0 .. 0.95
FIG_ALPHAS = (0.1, 1.0, 2.0, 10.0)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_channel_equivalence():
    started = time.time()
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        dim = fk.default_fock_dim(alpha)
        initial = ch.hybrid_pc_initial(alpha, dim)
        for r in [round(0.1 * i, 1) for i in range(10)]:
            params = ch.ChannelParams.from_r(r, alpha)
            worst = max(worst, fk.trace_distance(ch.evolve(initial, params.t),
                                                 ch.rho_pc_analytic(params, dim)))
    ps_initial = ch.hybrid_ps_initial()
    for r in [round(0.1 * i, 1) for i in range(10)]:
        params = ch.ChannelParams.from_r(r, 1.0)
        worst = max(worst, fk.trace_distance(ch.evolve(ps_initial, params.t),
                                             ch.rho_ps_analytic(params)))
    elapsed = time.time() - started
    ok = worst < 1e-9 and elapsed < 30.0
    report(1, ok, f"Kraus vs closed-form channels, max trace distance "
                  f"{worst:.3e} in {elapsed:.1f} s")
    assert worst < 1e-9
    assert elapsed < 30.0


def test_criterion_2_negativity(tmp_path):
    worst_ps = 0.0
    for r in R_GRID:
        params = ch.ChannelParams.from_r(r, 1.0)
        num = ent.negativity_numeric(ch.rho_ps_analytic(params))
        worst_ps = max(worst_ps, abs(num - params.t**4))
    assert worst_ps < 1e-12

    dim = fk.default_fock_dim(1.0)
    schmidt = oracles.schmidt_negativity(oracles.hybrid_pc_ket(1.0, dim), 3, dim)
    numeric = ent.negativity_numeric(ch.rho_pc_analytic(ch.ChannelParams(1.0, 1.0), dim))
    assert abs(numeric - math.sqrt(1.0 - math.exp(-4.0))) < 1e-9
    assert abs(numeric - schmidt) < 1e-9

    out = tmp_path / "fig1.csv"
    cli.main(["figure", "fig1", "--out", str(out)])
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    cols = {name: [float(line.split(",")[i]) for line in lines[1:]]
            for i, name in enumerate(header) if name != "engine"}
    for name in ("N_ps", "N_pc_a0.5", "N_pc_a1", "N_pc_a2"):
        series = cols[name]
        assert all(a >= b - 1e-12 for a, b in zip(series, series[1:])), name
    initial = [cols[f"N_pc_a{a}"][0] for a in ("0.5", "1", "2")]
    assert initial[0] < initial[1] < initial[2]
    mid = R_GRID.index(0.5)
    drops = [1.0 - cols[f"N_pc_a{a}"][mid] / cols[f"N_pc_a{a}"][0] for a in ("0.5", "1", "2")]
    assert drops[0] < drops[1] < drops[2]
    report(2, True, f"single-rail law within {worst_ps:.1e}, pure-state point "
                    f"{numeric:.6f}, figure-1 ordering and decay checks hold")


def test_criterion_3_closed_forms_vs_quadrature_and_pipeline():
    worst_quad = 0.0
    for alpha in (0.1, 0.54, 1.0, 2.0, 10.0):
        for r in R_GRID:
            params = ch.ChannelParams.from_r(r, alpha)
            for d in Direction:
                worst_quad = max(worst_quad, abs(
                    av.avg_fidelity(d, params) - av.avg_fidelity_quadrature(d, params)))
                worst_quad = max(worst_quad, abs(
                    av.avg_success_probability(d, params)
                    - av.avg_success_quadrature(d, params)))
            for d in (Direction.C_TO_P, Direction.S_TO_P):
                worst_quad = max(worst_quad, abs(
                    av.avg_fidelity(d, params, postselected=True)
                    - av.avg_fidelity_quadrature(d, params, postselected=True)))
                worst_quad = max(worst_quad, abs(
                    av.avg_success_probability(d, params, postselected=True)
                    - av.avg_success_quadrature(d, params, postselected=True)))
            worst_quad = max(worst_quad, abs(
                av.classical_limit(Direction.P_TO_C, params)
                - av.classical_limit_quadrature(params)))
    assert worst_quad < 1e-8

    worst_pipe = 0.0
    thetas = np.linspace(0.0, math.pi, 8)[1:-1]
    phis = np.linspace(0.0, 2 * math.pi, 6, endpoint=False)
    for alpha in (0.5, 1.0, 2.0):
        dim = fk.default_fock_dim(alpha)
        for r in (0.0, 0.3, 0.6, 0.8):
            params = ch.ChannelParams.from_r(r, alpha)
            chan_pc = ch.evolve(ch.hybrid_pc_initial(alpha, dim), params.t)
            chan_ps = ch.evolve(ch.hybrid_ps_initial(), params.t)
            for theta in thetas:
                for phi in phis:
                    inp = tp.BlochInput(float(theta), float(phi))
                    for d in Direction:
                        chan = chan_pc if d.coherent else chan_ps
                        s = tp.pipeline_summary(d, inp, params, channel=chan)
                        closed = tp.closed_summary(d, inp, params)
                        worst_pipe = max(worst_pipe, abs(s["fidelity"] - closed["fidelity"]),
                                         abs(s["success_probability"]
                                             - closed["success_probability"]))
    assert worst_pipe < 1e-6
    report(3, True, f"closed vs quadrature {worst_quad:.2e} (tol 1e-8), "
                    f"per-input vs pipeline {worst_pipe:.2e} (tol 1e-6)")


def test_criterion_4_exact_reference_numbers():
    for r in R_GRID:
        t2 = 1 - r * r
        for alpha in (0.1, 1.0, 10.0):
            params = ch.ChannelParams.from_r(r, alpha)
            assert av.avg_success_probability(Direction.P_TO_C, params) == \
                pytest.approx(t2 / 2, abs=1e-15)
        assert av.avg_success_probability(
            Direction.S_TO_P, ch.ChannelParams.from_r(r, 1.0)) == 0.5
    assert av.avg_fidelity(Direction.P_TO_S, ch.ChannelParams(1.0, 1.0)) == 1.0
    assert abs(av.avg_fidelity(Direction.P_TO_S, ch.ChannelParams(0.5, 1.0))
               - 0.7083333333333334) < 1e-12

    # averaged c->p closed form against the Bloch-averaged numeric pipeline;
    # the per-input quantity is a low-degree polynomial, so a 12x12 grid
    # integrates it exactly
    theta, w_theta, phi, w_phi = av._nodes(12, 12)
    worst = 0.0
    for r, alpha in ((0.3, 1.0), (0.6, 1.0), (0.3, 2.0)):
        params = ch.ChannelParams.from_r(r, alpha)
        dim = fk.default_fock_dim(alpha)
        chan = ch.evolve(ch.hybrid_pc_initial(alpha, dim), params.t)
        acc = 0.0
        for i, th in enumerate(theta):
            for j, ph in enumerate(phi):
                s = tp.pipeline_summary(Direction.C_TO_P,
                                        tp.BlochInput(float(th), float(ph)),
                                        params, channel=chan)
                acc += w_theta[i] * w_phi[j] * s["fidelity"]
        q = params.coherence_factor
        worst = max(worst, abs(acc - params.t**2 * (2 + q) / 3))
    assert worst < 1e-6
    report(4, True, f"exact reference values hold; pipeline-averaged c->p "
                    f"fidelity within {worst:.2e} of t^2(2+Q)/3")


def test_criterion_5_ordering_claims():
    for alpha in FIG_ALPHAS:
        for r in R_GRID:
            params = ch.ChannelParams.from_r(r, alpha)
            f_ptc = av.avg_fidelity(Direction.P_TO_C, params)
            assert f_ptc >= av.avg_fidelity(Direction.C_TO_P, params) - 1e-12
            assert f_ptc >= av.classical_limit(Direction.P_TO_C, params) - 1e-12
    for r in R_GRID:
        params = ch.ChannelParams.from_r(r, 1.0)
        assert av.avg_fidelity(Direction.P_TO_S, params) >= \
            av.avg_fidelity(Direction.S_TO_P, params) - 1e-12
    report(5, True, "direction and classical-limit orderings hold at every grid point")


def test_criterion_6_gap_formula():
    worst = 0.0
    for r in R_GRID:
        if r > 0.5:
            continue
        params = ch.ChannelParams.from_r(r, 10.0)
        gap = (av.avg_fidelity(Direction.P_TO_C, params)
               - av.avg_fidelity(Direction.C_TO_P, params))
        worst = max(worst, abs(gap - av.fidelity_gap_large_alpha(params)))
    assert worst < 1e-3
    report(6, True, f"large-amplitude gap formula within {worst:.2e} for r <= 0.5")


def test_criterion_7_postselect_fidelity_gap():
    # Faithful to the stated bound. The closed forms put the maximum gap at
    # ~0.0536 (r ~ 0.92), so this criterion fails; the bound holds only for
    # r <~ 0.52. Kept red on purpose rather than loosened.
    worst = 0.0
    for r in R_GRID:
        params = ch.ChannelParams.from_r(r, 1.0)
        gap = abs(av.avg_fidelity(Direction.P_TO_S, params)
                  - av.avg_fidelity(Direction.S_TO_P, params, postselected=True))
        worst = max(worst, gap)
    ok = worst < 0.01
    report("7 (fidelity-gap clause)", ok,
           f"max_r |F_p->s - F_post_s->p| = {worst:.4f} vs stated bound 0.01")
    assert worst < 0.01, (
        f"measured max gap {worst:.4f} exceeds the stated 0.01 bound; the "
        f"closed forms themselves peak near r = 0.92 (see decision notes; "
        f"bound holds only for r <= 0.52)"
    )


def test_criterion_7_postselected_pipeline_and_probability():
    # averaged postselected c->p fidelity against the postselected pipeline
    theta, w_theta, phi, w_phi = av._nodes(12, 12)
    worst = 0.0
    for r, alpha in ((0.3, 1.0), (0.7, 1.0), (0.5, 2.0)):
        params = ch.ChannelParams.from_r(r, alpha)
        dim = fk.default_fock_dim(alpha)
        chan = ch.evolve(ch.hybrid_pc_initial(alpha, dim), params.t)
        acc = 0.0
        for i, th in enumerate(theta):
            for j, ph in enumerate(phi):
                s = tp.pipeline_summary(Direction.C_TO_P,
                                        tp.BlochInput(float(th), float(ph)),
                                        params, channel=chan, postselected=True)
                acc += w_theta[i] * w_phi[j] * s["fidelity"]
        q = params.coherence_factor
        worst = max(worst, abs(acc - (2 + q) / 3))
    assert worst < 1e-10

    # protocol overhead is exactly t^2/2 in the formula engine
    for r in R_GRID:
        for d in (Direction.C_TO_P, Direction.S_TO_P):
            params = ch.ChannelParams.from_r(r, 1.0)
            assert av.avg_success_probability(d, params, postselected=True) == \
                pytest.approx(av.avg_success_probability(d, params) * params.t**2 / 2,
                              abs=1e-16)
    report("7 (pipeline and probability clauses)", True,
           f"postselected c->p average within {worst:.2e} of (2+Q)/3; "
           f"overhead factor exact")


def test_criterion_8_crossing_point():
    best_alpha, best_sup = None, None
    for k in range(0, 61):
        alpha = 0.30 + 0.01 * k
        sup = max(
            abs(av.avg_success_probability(Direction.C_TO_P, ch.ChannelParams.from_r(r, alpha))
                - (1 - r * r) / 2)
            for r in R_GRID
        )
        if best_sup is None or sup < best_sup:
            best_alpha, best_sup = alpha, sup
    ok = abs(best_alpha - 0.54) <= 0.05 + 1e-9
    report(8, ok, f"success probabilities closest at alpha = {best_alpha:.2f} "
                  f"(sup gap {best_sup:.4f}); window 0.54 +/- 0.05")
    assert ok


def test_criterion_9_verify_battery_and_audit_ledger():
    started = time.time()
    rep = vf.run_battery()
    elapsed = time.time() - started
    audits = {a["name"]: a["measured"] for a in rep["audits"]}

    scale = audits["negativity_pc_variant_scale"]
    assert abs(scale["ratio_mean"] - 4.0) < 1e-6
    assert abs(scale["ratio_mean"] - 1.0) > 1.0  # a genuinely nonzero deviation

    m4 = audits["fourth_moment_variant_limit"]
    assert abs(m4["value_at_1e-3"] + 1 / 6) < 1e-5

    weight = audits["cp_coherence_weight"]
    assert abs(weight["fitted_weight"] - 2.0) < 1e-9
    assert weight["variant_max_deviation"] > 0.01

    modulation = audits["pc_success_modulation_constant"]
    assert modulation["max_fit_residual"] < 1e-10
    for fit in modulation["fits"]:
        assert abs(fit["fitted"] - math.exp(-2 * fit["alpha"] ** 2)) < 1e-10

    assert "pc_average_assembly" in audits
    assert "classical_limit_expression" in audits
    assert audits["postselect_sp_fidelity_gap"]["max_gap"] > 0.05

    assert rep["passed"], [c["name"] for c in rep["checks"] if not c["pass"]]
    assert elapsed < 300.0
    report(9, True, f"verify battery: {len(rep['checks'])} checks pass, "
                    f"{len(rep['audits'])} audited deviations recorded, "
                    f"{elapsed:.0f} s")
