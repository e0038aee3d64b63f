import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hybrid_teleport import audits
from hybrid_teleport import averages as av
from hybrid_teleport import channels as ch
from hybrid_teleport import teleport as tp
from hybrid_teleport.teleport import Direction

R_GRID = [round(0.05 * i, 2) for i in range(20)]


def moment_kernel(kind):
    return {
        1: lambda th, ph: np.cos(th / 2) ** 4,
        2: lambda th, ph: (np.cos(th / 2) * np.sin(th / 2)) ** 2,
        3: lambda th, ph: np.sin(th) * np.cos(ph),
        4: lambda th, ph: 2 * (np.cos(th / 2) * np.sin(th / 2)) ** 2 * np.cos(2 * ph),
    }[kind]


class TestQuadrature:
    def test_normalization(self):
        assert av.bloch_average(lambda th, ph: np.ones_like(th)) == pytest.approx(
            1.0, abs=1e-14)

    def test_odd_moment_vanishes(self):
        val = av.bloch_average(lambda th, ph: np.sin(th) * np.cos(ph))
        assert abs(val) < 1e-13

    def test_standard_moments(self):
        assert av.bloch_average(moment_kernel(1)) == pytest.approx(1 / 3, abs=1e-13)
        assert av.bloch_average(moment_kernel(2)) == pytest.approx(1 / 6, abs=1e-13)
        assert abs(av.bloch_average(moment_kernel(4))) < 1e-13

    def test_deterministic(self):
        f = lambda th, ph: np.cos(th) ** 2 / (1 + 0.3 * np.sin(th) * np.cos(ph))
        assert av.bloch_average(f) == av.bloch_average(f)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_open_grid_matches_the_meshgrid_bit_for_bit(self, direction):
        spec = av.QuadratureSpec()
        theta, w_theta, phi, w_phi = av._nodes(spec.n_theta, spec.n_phi)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")

        def meshgrid_average(f):
            vals = np.broadcast_to(np.asarray(f(tt, pp), dtype=float), tt.shape)
            return float(np.einsum("i,ij,j->", w_theta, vals, w_phi))

        posts = (False, True) if direction in (Direction.C_TO_P, Direction.S_TO_P) else (False,)
        for alpha in (0.1, 1.0, 10.0):
            for r in R_GRID:
                params = ch.ChannelParams.from_r(r, alpha)
                for post in posts:
                    for kernel in (tp.fidelity_kernel, tp.success_kernel):
                        def f(th, ph):
                            return kernel(direction, tp._bloch_terms(th, ph), params, post)
                        assert av.bloch_average(f, spec) == meshgrid_average(f)

    @pytest.mark.parametrize("alpha", (0.1, 1.0, 10.0))
    def test_cached_grid_gives_the_angle_kernels_bit_for_bit(self, alpha):
        spec = av.QuadratureSpec()
        for r in R_GRID:
            params = ch.ChannelParams.from_r(r, alpha)
            for d in Direction:
                for post in (False, True) if d.onto_polarization else (False,):
                    assert av.avg_fidelity_quadrature(d, params, spec, post) == av.bloch_average(
                        lambda th, ph: tp.fidelity_kernel(d, tp._bloch_terms(th, ph), params,
                                                          post), spec)
                    assert av.avg_success_quadrature(d, params, spec, post) == av.bloch_average(
                        lambda th, ph: tp.success_kernel(d, tp._bloch_terms(th, ph), params,
                                                         post), spec)
            s = params.basis_overlap

            def classical(th, ph):
                p, q2, u, _ = tp._bloch_terms(th, ph)
                num = p * (p + s * s * q2 + s * u) + q2 * (s * s * p + q2 + s * u)
                return num / (1.0 + s * u)

            assert av.classical_limit_quadrature(params, spec) == av.bloch_average(classical, spec)

    def test_importing_builds_no_grid(self, tmp_path):
        code = "import hybrid_teleport.averages as av; print(av._grid_terms.cache_info().currsize)"
        src = Path(av.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            av.QuadratureSpec(1, 10)


class TestMomentIntegrals:
    def test_small_x_limits(self):
        assert av.moment_integral(1, 0.0) == pytest.approx(1 / 3, abs=1e-15)
        assert av.moment_integral(2, 0.0) == pytest.approx(1 / 6, abs=1e-15)
        assert av.moment_integral(3, 0.0) == 0.0
        assert av.moment_integral(4, 0.0) == 0.0

    def test_reference_point_kind3(self):
        # 1/x - artanh(x)/x^2 at x = 1/2
        assert av.moment_integral(3, 0.5) == pytest.approx(-0.19722457733621912, abs=1e-13)
        oracle = oracles.sphere_average(
            lambda th, ph: moment_kernel(3)(th, ph) / (1 + 0.5 * np.sin(th) * np.cos(ph)))
        assert av.moment_integral(3, 0.5) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("kind", [1, 2, 3, 4])
    @pytest.mark.parametrize("x", [0.0005, 0.05, 0.3, 0.7, 0.9])
    def test_against_independent_quadrature(self, kind, x):
        oracle = oracles.sphere_average(
            lambda th, ph: moment_kernel(kind)(th, ph) / (1 + x * np.sin(th) * np.cos(ph)))
        assert av.moment_integral(kind, x) == pytest.approx(oracle, abs=1e-10)

    def test_series_and_closed_agree_at_the_seam(self):
        for kind in (1, 2, 3, 4):
            for x in (9e-4, 1.5e-3, 5e-3):
                assert av._moment_series(kind, x) == pytest.approx(
                    av._moment_closed(kind, x), abs=1e-9)

    def test_variant_kind4_has_wrong_limit(self):
        # deviation approaches -1/6 at x -> 0 and follows the measured law
        assert audits.moment_integral_variant4(1e-3) == pytest.approx(-1 / 6, abs=1e-5)
        for x in (0.1, 0.5, 0.9):
            dev = audits.moment_integral_variant4(x) - av.moment_integral(4, x)
            law = (1 - x * x) * math.atanh(x) / (4 * x**3) - 1 / (4 * x * x)
            assert dev == pytest.approx(law, abs=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            av.moment_integral(5, 0.5)
        with pytest.raises(ValueError):
            av.moment_integral(1, 1.0)


def pc_fidelity(a, b, s, q):
    """The definitional p->c fidelity, for numpy arrays or mpmath numbers."""
    u = 2 * (a * b.conjugate()).real
    num = (abs(a) ** 2 * abs(a + b * s) ** 2 + abs(b) ** 2 * abs(a * s + b) ** 2
           + 2 * q * (a * b.conjugate() * (a.conjugate() + b.conjugate() * s) * (a * s + b)).real)
    return num / ((1 + s * u) * (1 + q * s * u))


def pc_average_reference(params, coherent=True, dps=40):
    """The averaged p->c fidelity at dps digits; coherent=False is the classical strategy.

    Averaging the numerator of ``pc_fidelity`` over the azimuth about the x
    axis leaves (A + B u + C u^2) / ((1 + s u)(1 + q s u)) with u uniform on
    [-1, 1].
    """
    import mpmath as mp
    with mp.workdps(dps):
        t, alpha = mp.mpf(params.t), mp.mpf(params.alpha)
        s = mp.exp(-2 * (t * alpha) ** 2)
        q = mp.exp(-2 * alpha**2 * (1 - t * t)) if coherent else mp.mpf(0)
        A = (3 + s * s + q - q * s * s) / 4
        B = s * (1 + q)
        C = (s * s + q + 3 * q * s * s - 1) / 4
        f = lambda u: (A + B * u + C * u * u) / ((1 + s * u) * (1 + q * s * u))
        return float(mp.quad(f, [-1, 0, 1]) / 2)


class TestPCClosedFormsAtTheDegenerateEdge:
    def test_average_against_high_precision(self):
        params = ch.ChannelParams.from_r(0.5, 0.54)
        s, q = params.basis_overlap, params.coherence_factor
        sphere = oracles.sphere_average(lambda th, ph: pc_fidelity(
            np.cos(th / 2) * np.exp(0.5j * ph), np.sin(th / 2) * np.exp(-0.5j * ph), s, q))
        assert pc_average_reference(params) == pytest.approx(sphere, abs=1e-10)
        for alpha in (1e-8, 1e-6, 1e-3, 0.01, 0.54, 2.2, 10.0):
            for r in (0.0, 0.5, 0.8, 0.999999):
                params = ch.ChannelParams.from_r(r, alpha)
                lib = av.avg_fidelity(Direction.P_TO_C, params)
                assert abs(lib - pc_average_reference(params)) < 1e-13, (alpha, r)

    def test_odd_cat_kernel_against_high_precision(self):
        # theta = pi/2, phi = pi is u = -1, where both denominator factors
        # shrink with the basis gap
        import mpmath as mp
        theta, phi = math.pi / 2, math.pi
        for alpha in (1e-7, 1e-6, 1e-3, 0.5, 2.0):
            params = ch.ChannelParams.from_r(0.5, alpha)
            lib = tp.closed_summary(Direction.P_TO_C, tp.BlochInput(theta, phi), params)["fidelity"]
            with mp.workdps(60):
                t, am = mp.mpf(params.t), mp.mpf(alpha)
                s = mp.exp(-2 * (t * am) ** 2)
                q = mp.exp(-2 * am**2 * (1 - t * t))
                a = mp.cos(mp.mpf(theta) / 2) * mp.expj(mp.mpf(phi) / 2)
                b = mp.sin(mp.mpf(theta) / 2) * mp.expj(-mp.mpf(phi) / 2)
                ref = float(pc_fidelity(a, b, s, q))
            assert abs(lib - ref) < 1e-15, alpha


class TestGFunctional:
    def test_vanishes_without_decoherence(self):
        params = ch.ChannelParams(t=1.0, alpha=1.0)
        for kind in (1, 2, 3, 4):
            assert audits.g_functional(kind, params) == 0.0

    def test_reference_point(self):
        params = ch.ChannelParams(t=math.sqrt(0.5), alpha=1.0)
        s = params.basis_overlap
        qs = params.coherence_factor * s
        oracle = (
            oracles.sphere_average(lambda th, ph: moment_kernel(3)(th, ph)
                                   / (1 + qs * np.sin(th) * np.cos(ph)))
            - oracles.sphere_average(lambda th, ph: moment_kernel(3)(th, ph)
                                     / (1 + s * np.sin(th) * np.cos(ph)))
        )
        assert audits.g_functional(3, params) == pytest.approx(oracle, abs=1e-10)


class TestAveragedFidelities:
    def test_cp_ideal(self):
        assert av.avg_fidelity(Direction.C_TO_P, ch.ChannelParams(1.0, 1.0)) == 1.0

    def test_ps_reference_value(self):
        params = ch.ChannelParams(t=0.5, alpha=1.0)
        assert av.avg_fidelity(Direction.P_TO_S, params) == pytest.approx(
            17 / 24, abs=1e-15)

    def test_cp_reference_value(self):
        params = ch.ChannelParams(t=0.8, alpha=1.0)
        assert av.avg_fidelity(Direction.C_TO_P, params) == pytest.approx(
            0.5305071479381273, abs=1e-14)

    def test_sp_ideal_series_branch(self):
        assert av.avg_fidelity(Direction.S_TO_P, ch.ChannelParams(1.0, 1.0)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_sp_moments_match_scipy_integration(self):
        t = 0.55
        a1, a2, a3 = av._success_weighted_moments(np.array([t]))[:, 0]
        c1, c2 = t * t, 2 - t * t
        den = lambda p: c1 * p + c2 * (1 - p)
        assert a1 == pytest.approx(oracles.segment_average(lambda p: p**2 / den(p)), abs=1e-12)
        assert a2 == pytest.approx(
            oracles.segment_average(lambda p: (1 - p) ** 2 / den(p)), abs=1e-12)
        assert a3 == pytest.approx(
            oracles.segment_average(lambda p: p * (1 - p) / den(p)), abs=1e-12)

    @pytest.mark.parametrize("r", [0.0071, 0.01, 0.02, 0.04])
    def test_sp_moments_just_above_the_series_switch(self, r):
        # the log closed forms cancel badly here; the series branch must take over
        params = ch.ChannelParams.from_r(r, 1.0)
        t = params.t
        a1, a2, a3 = av._success_weighted_moments(np.array([t]))[:, 0]
        c1, c2 = t * t, 2 - t * t
        den = lambda p: c1 * p + c2 * (1 - p)
        assert a1 == pytest.approx(oracles.segment_average(lambda p: p**2 / den(p)), abs=1e-10)
        assert a2 == pytest.approx(
            oracles.segment_average(lambda p: (1 - p) ** 2 / den(p)), abs=1e-10)
        assert a3 == pytest.approx(
            oracles.segment_average(lambda p: p * (1 - p) / den(p)), abs=1e-10)
        for postselected in (False, True):
            assert 0.0 <= av.avg_fidelity(Direction.S_TO_P, params, postselected) <= 1.0

    @pytest.mark.parametrize("alpha", [0.1, 0.54, 1.0, 2.0, 10.0])
    def test_all_closed_forms_match_quadrature(self, alpha):
        for r in (0.0, 0.25, 0.5, 0.75, 0.95):
            params = ch.ChannelParams.from_r(r, alpha)
            for d in Direction:
                assert av.avg_fidelity(d, params) == pytest.approx(
                    av.avg_fidelity_quadrature(d, params), abs=1e-8)
            for d in (Direction.C_TO_P, Direction.S_TO_P):
                assert av.avg_fidelity(d, params, postselected=True) == pytest.approx(
                    av.avg_fidelity_quadrature(d, params, postselected=True), abs=1e-8)

    def test_pc_variant_assembly_is_off(self):
        params = ch.ChannelParams.from_r(0.6, 1.0)
        exact = av.avg_fidelity(Direction.P_TO_C, params)
        assert abs(audits.avg_fidelity_variant_pc(params) - exact) > 0.1

    def test_postselection_rejected_for_field_targets(self):
        params = ch.ChannelParams(t=0.8, alpha=1.0)
        with pytest.raises(ValueError):
            av.avg_fidelity(Direction.P_TO_C, params, postselected=True)
        with pytest.raises(ValueError):
            av.avg_fidelity(Direction.P_TO_S, params, postselected=True)


class TestClassicalLimit:
    def test_orthogonal_targets(self):
        params = ch.ChannelParams(t=0.5, alpha=1.0)
        for d in (Direction.C_TO_P, Direction.P_TO_S, Direction.S_TO_P):
            assert av.classical_limit(d, params) == 2 / 3

    def test_small_overlap_limit(self):
        params = ch.ChannelParams(t=1.0, alpha=10.0)
        assert av.classical_limit(Direction.P_TO_C, params) == pytest.approx(
            2 / 3, abs=1e-12)

    def test_merging_basis_limit(self):
        params = ch.ChannelParams(t=1.0, alpha=0.0)
        assert av.classical_limit(Direction.P_TO_C, params) == 1.0

    def test_near_the_merging_basis_against_high_precision(self):
        # 1 - F_cl is of order 1e-12 here, not yet rounded away
        for alpha in (1e-7, 6e-7):
            params = ch.ChannelParams.from_r(0.5, alpha)
            ref = pc_average_reference(params, coherent=False)
            assert abs(av.classical_limit(Direction.P_TO_C, params) - ref) < 1e-14, alpha

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0])
    def test_matches_quadrature_of_classical_strategy(self, alpha):
        for r in (0.0, 0.4, 0.8):
            params = ch.ChannelParams.from_r(r, alpha)
            assert av.classical_limit(Direction.P_TO_C, params) == pytest.approx(
                av.classical_limit_quadrature(params), abs=1e-10)

    def test_half_overlap_reference(self):
        t = math.sqrt(math.log(2.0) / 2.0)
        params = ch.ChannelParams(t=t, alpha=1.0)
        assert params.basis_overlap == pytest.approx(0.5, abs=1e-15)
        oracle = av.classical_limit_quadrature(params)
        assert av.classical_limit(Direction.P_TO_C, params) == pytest.approx(
            oracle, abs=1e-10)

    def test_variant_expression_is_off(self):
        params = ch.ChannelParams.from_r(0.6, 1.0)
        assert abs(audits.classical_limit_variant(params)
                   - av.classical_limit(Direction.P_TO_C, params)) > 0.1


class TestAveragedProbabilities:
    def test_pc_is_half_survival(self):
        for r in R_GRID:
            params = ch.ChannelParams.from_r(r, 1.0)
            assert av.avg_success_probability(Direction.P_TO_C, params) == \
                params.t**2 / 2

    def test_cp_reference_point(self):
        t = math.sqrt(math.log(2.0) / 2.0)
        params = ch.ChannelParams(t=t, alpha=1.0)
        assert av.avg_success_probability(Direction.C_TO_P, params) == pytest.approx(
            0.5493061443340548, abs=1e-13)

    def test_cp_orthogonal_limit(self):
        params = ch.ChannelParams(t=1.0, alpha=10.0)
        assert av.avg_success_probability(Direction.C_TO_P, params) == pytest.approx(
            1.0, abs=1e-12)

    def test_cp_against_high_precision_as_alpha_goes_to_zero(self):
        # <(1 - s)/(1 + s u)> = (1 - s) artanh(s)/s as s -> 1, where 1 - s has to come
        # from expm1: by subtraction it loses its digits, and is 0 once s rounds to 1
        import mpmath as mp
        for alpha in (1e-3, 1e-6, 1e-8):
            for r in (0.0, 0.6, 0.999):
                params = ch.ChannelParams.from_r(r, alpha)
                with mp.workdps(50):
                    x = 2 * (mp.mpf(params.t) * alpha) ** 2
                    s = mp.exp(-x)
                    ref = -mp.expm1(-x) * mp.atanh(s) / s
                    refs = {False: float(ref), True: float(ref * mp.mpf(params.t) ** 2 / 2)}
                for post, expect in refs.items():
                    lib = av.avg_success_probability(Direction.C_TO_P, params, postselected=post)
                    assert abs(lib - expect) <= 1e-13 * expect, (alpha, r, post)

    def test_cp_merging_limit(self):
        params = ch.ChannelParams(t=1e-6, alpha=1.0)
        assert av.avg_success_probability(Direction.C_TO_P, params) < 1e-9

    def test_sp_is_half(self):
        for t in (0.3, 0.8, 1.0):
            assert av.avg_success_probability(
                Direction.S_TO_P, ch.ChannelParams(t, 1.0)) == 0.5

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 2.0])
    def test_match_quadrature(self, alpha):
        for r in (0.0, 0.5, 0.95):
            params = ch.ChannelParams.from_r(r, alpha)
            for d in Direction:
                assert av.avg_success_probability(d, params) == pytest.approx(
                    av.avg_success_quadrature(d, params), abs=1e-8)

    def test_postselected_factor(self):
        params = ch.ChannelParams(t=0.8, alpha=1.0)
        for d in (Direction.C_TO_P, Direction.S_TO_P):
            assert av.avg_success_probability(d, params, postselected=True) == \
                pytest.approx(av.avg_success_probability(d, params) * params.t**2 / 2,
                              abs=1e-15)

    # the success half of the paper's headline: c->p succeeds more often than p->c
    # only above a crossover amplitude alpha_c(r), found by bisection to 4 decimals
    @pytest.mark.parametrize("r, alpha_c", [(0.0, 0.5411), (0.3, 0.5229), (0.5, 0.4911),
                                            (0.7, 0.4425), (0.9, 0.3638), (0.99, 0.2776)])
    def test_cp_beats_pc_only_above_the_crossover_amplitude(self, r, alpha_c):
        def gap(alpha):
            params = ch.ChannelParams.from_r(r, alpha)
            return (av.avg_success_probability(Direction.C_TO_P, params)
                    - av.avg_success_probability(Direction.P_TO_C, params))

        assert gap(alpha_c - 0.01) < 0.0 < gap(alpha_c + 0.01)


class TestGapFormula:
    def test_vanishes_without_loss(self):
        assert av.fidelity_gap_large_alpha(ch.ChannelParams(1.0, 10.0)) == 0.0

    def test_matches_closed_forms_at_large_amplitude(self):
        params = ch.ChannelParams(t=math.sqrt(0.99), alpha=10.0)
        gap = (av.avg_fidelity(Direction.P_TO_C, params)
               - av.avg_fidelity(Direction.C_TO_P, params))
        assert abs(gap - av.fidelity_gap_large_alpha(params)) < 1e-3

    def test_strong_loss_limit(self):
        params = ch.ChannelParams(t=1e-3, alpha=10.0)
        assert av.fidelity_gap_large_alpha(params) == pytest.approx(2 / 3, abs=1e-5)


class TestPostselectionIdentities:
    def test_cp_postselected_average(self):
        params = ch.ChannelParams(t=0.8, alpha=1.0)
        q = params.coherence_factor
        assert av.avg_fidelity(Direction.C_TO_P, params, postselected=True) == \
            pytest.approx((2 + q) / 3, abs=1e-15)

    def test_sp_gap_profile(self):
        # the p->s and postselected s->p averages stay close only while the
        # channel is mildly decohered; the gap tops out above 0.05 near r = 0.92
        gap = lambda r: abs(
            av.avg_fidelity(Direction.P_TO_S, ch.ChannelParams.from_r(r, 1.0))
            - av.avg_fidelity(Direction.S_TO_P, ch.ChannelParams.from_r(r, 1.0),
                              postselected=True))
        assert gap(0.3) < 0.01
        assert gap(0.5) < 0.01
        assert 0.05 < gap(0.92) < 0.06
        assert max(gap(r) for r in np.linspace(0.01, 0.99, 99)) == pytest.approx(
            0.0536, abs=5e-4)

    def test_sp_success_weighted_averages_coincide(self):
        # weighting the postselected s->p fidelity by success probability
        # reproduces the p->s average identically, for every decay
        for t in (0.3, 0.6, 0.9):
            params = ch.ChannelParams(t, 1.0)
            num = oracles.segment_average(
                lambda p: (t * t * p**2 + (1 - p) ** 2 + (1 + 2 * t - t * t) * p * (1 - p)))
            den = oracles.segment_average(
                lambda p: t * t * p + (2 - t * t) * (1 - p))
            weighted = num / den
            assert weighted == pytest.approx(
                av.avg_fidelity(Direction.P_TO_S, params), abs=1e-12)


def test_closed_forms_are_continuous_in_r():
    # no jumps across series/algebra switch points
    eps = 1e-6
    for alpha in (0.1, 1.0, 10.0):
        for r in R_GRID[1:]:
            lo = ch.ChannelParams.from_r(r - eps, alpha)
            hi = ch.ChannelParams.from_r(r + eps, alpha)
            for d in Direction:
                assert abs(av.avg_fidelity(d, lo) - av.avg_fidelity(d, hi)) < 1e-4
                assert abs(av.avg_success_probability(d, lo)
                           - av.avg_success_probability(d, hi)) < 1e-4


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       st.floats(min_value=0.0, max_value=10.0))
@example(0.5, 1e-8)
@example(1e-8, 1.0)
@example(4.3e-8, 1.25)
def test_averages_respect_bounds(r, alpha):
    params = ch.ChannelParams.from_r(r, alpha)
    for d in Direction:
        values = [av.avg_fidelity(d, params), av.avg_success_probability(d, params),
                  av.classical_limit(d, params)]
        if d.onto_polarization:
            values += [av.avg_fidelity(d, params, postselected=True),
                       av.avg_success_probability(d, params, postselected=True)]
        assert all(0.0 <= v <= 1.0 for v in values), (d, values)


def _seam_alpha(overlap):
    # the amplitude whose basis overlap at r = 0 is `overlap`: exp(-2 alpha^2) = overlap
    return math.sqrt(-math.log(overlap) / 2)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(min_value=-9.0, max_value=1.0).map(lambda e: 10.0**e)),
       st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=1, max_size=12).map(sorted))
@example(_seam_alpha(0.0299), [0.0, 0.03, 0.06, 0.1])  # s and q s = 0.03, the p->c m_2 cut
@example(_seam_alpha(0.00099), [0.0, 0.05, 0.1])  # s = 1e-3, the moment_integral cut
@example(math.sqrt(1.001e-3 / 2), [0.0, 0.05, 0.1])  # basis gap = 1e-3 (c->p success)
@example(_seam_alpha(9.2e-9), [0.0, 0.05, 0.1])  # s = 1e-8 (c->p success)
@example(1.0, [0.0447, 0.04472, 0.044721, 0.0447214, 0.04473, 0.045])  # |c1 - c2| = 4e-3 (s->p)
def test_a_grid_gives_each_point_bit_for_bit(alpha, rs):
    grid = ch.ChannelParams.from_r(np.array(rs), alpha)
    points = [ch.ChannelParams.from_r(r, alpha) for r in rs]
    assert grid.r.tolist() == [point.r for point in points]
    forms = [(av.classical_limit, d, {}) for d in Direction] + [
        (form, d, {"postselected": post}) for form in (av.avg_fidelity, av.avg_success_probability)
        for d in Direction for post in ((False, True) if d.onto_polarization else (False,))]
    for form, d, kwargs in forms:
        at_points = [form(d, point, **kwargs) for point in points]
        assert all(type(value) is float for value in at_points)
        assert form(d, grid, **kwargs).tolist() == at_points, (form.__name__, d, kwargs)
    xs = np.concatenate([grid.basis_overlap, grid.coherence_factor * grid.basis_overlap])
    xs = xs[xs < 1.0]
    for kind in (1, 2, 3, 4):
        assert av.moment_integral(kind, xs).tolist() == [av.moment_integral(kind, x)
                                                        for x in xs.tolist()]
