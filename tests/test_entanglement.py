import math

import numpy as np
import pytest

import oracles
from hybrid_teleport import audits
from hybrid_teleport import channels as ch
from hybrid_teleport import entanglement as ent
from hybrid_teleport import fock as fk

R_GRID = [round(0.05 * i, 2) for i in range(20)]


class TestNumericNegativity:
    def test_bell_pair(self):
        # (|H, 0> + |V, 1>)/sqrt2 on polarization x Fock(2)
        v = np.zeros(6, dtype=complex)
        v[fk.H_IDX * 2 + 0] = v[fk.V_IDX * 2 + 1] = 1 / math.sqrt(2)
        rho = fk.DensityOperator(oracles.pure(v))
        assert ent.negativity_numeric(rho) == pytest.approx(1.0, abs=1e-14)

    def test_product_state(self):
        rho = fk.DensityOperator(oracles.pure(np.kron(np.eye(3)[fk.H_IDX],
                                                      fk.coherent_ket(0.7, 16))))
        assert ent.negativity_numeric(rho) < 1e-12

    def test_split_side_is_irrelevant_here(self):
        params = ch.ChannelParams.from_r(0.4, 1.0)
        rho = ch.rho_pc_analytic(params, 22)
        # the polarization mode transposed, from the reshaped matrix itself
        pt = rho.matrix.reshape(3, 22, 3, 22).transpose(2, 1, 0, 3).reshape(66, 66)
        ev = fk.hermitian_eigenvalues(pt)
        a = float(-2.0 * ev[ev < 0].sum())
        assert a == pytest.approx(ent.negativity_numeric(rho), abs=1e-12)

    @pytest.mark.parametrize("channel", [
        lambda p: ch.rho_ps_analytic(p), lambda p: ch.rho_pc_analytic(p, 16),
    ], ids=["ps", "pc-16"])
    def test_rejects_a_channel_with_a_nan_entry(self, channel):
        m = channel(ch.ChannelParams.from_r(0.6, 1.0)).matrix.copy()
        m[1, 1] = math.nan
        with pytest.raises(ValueError, match="not finite and Hermitian"):
            ent.negativity_numeric(fk.DensityOperator(m))


class TestSingleRailChannel:
    def test_reference_point(self):
        t = math.sqrt(0.64)
        rho = ch.rho_ps_analytic(ch.ChannelParams(t=t, alpha=1.0))
        assert ent.negativity_numeric(rho) == pytest.approx(0.4096, abs=1e-12)

    def test_quartic_law_across_grid(self):
        for r in R_GRID:
            params = ch.ChannelParams.from_r(r, 1.0)
            num = ent.negativity_numeric(ch.rho_ps_analytic(params))
            assert abs(num - ent.negativity_ps_analytic(params.t)) < 1e-12

    def test_limits(self):
        assert ent.negativity_ps_analytic(1.0) == 1.0
        assert ent.negativity_ps_analytic(1e-4) < 1e-15


class TestCoherentChannel:
    def test_pure_point_matches_schmidt_oracle(self):
        dim = 24
        params = ch.ChannelParams(t=1.0, alpha=1.0)
        oracle = oracles.schmidt_negativity(oracles.hybrid_pc_ket(1.0, dim), 3, dim)
        num = ent.negativity_numeric(ch.rho_pc_analytic(params, dim))
        assert num == pytest.approx(oracle, abs=1e-12)
        assert num == pytest.approx(math.sqrt(1.0 - math.exp(-4.0)), abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_closed_form_matches_numeric(self, alpha):
        dim = fk.default_fock_dim(alpha)
        for r in R_GRID:
            params = ch.ChannelParams.from_r(r, alpha)
            num = ent.negativity_numeric(ch.rho_pc_analytic(params, dim))
            assert abs(num - ent.negativity_pc_closed(params)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_variant_is_scaled_by_four(self, alpha):
        for r in (0.0, 0.3, 0.6, 0.9):
            params = ch.ChannelParams.from_r(r, alpha)
            ratio = audits.negativity_pc_variant(params) / ent.negativity_pc_closed(params)
            assert ratio == pytest.approx(4.0, rel=1e-9)

    def test_vanishing_amplitude_limit(self):
        # negativity vanishes ~ 2 t alpha as the basis states merge
        params = ch.ChannelParams(t=0.9, alpha=1e-4)
        assert ent.negativity_pc_closed(params) < 2.0 * params.t * params.alpha
        assert audits.negativity_pc_variant(params) < 8.0 * params.t * params.alpha
        num = ent.negativity_numeric(ch.rho_pc_analytic(params, 16))
        assert num == pytest.approx(ent.negativity_pc_closed(params), abs=1e-10)

    def test_monotone_decrease_in_r(self):
        for alpha in (0.5, 1.0, 2.0):
            dim = fk.default_fock_dim(alpha)
            values = [
                ent.negativity_numeric(
                    ch.rho_pc_analytic(ch.ChannelParams.from_r(r, alpha), dim))
                for r in R_GRID
            ]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_strong_loss_tail_keeps_precision(self):
        # at large amplitude and strong loss the negativity is tiny but
        # nonzero: N ~ t^2 q (1 - s^2) with q below machine epsilon
        params = ch.ChannelParams.from_r(0.475, 10.0)
        q = params.coherence_factor
        s = params.basis_overlap
        expect = params.t**2 * q * (1 - s * s)
        val = ent.negativity_pc_closed(params)
        assert val > 0.0
        assert val == pytest.approx(expect, rel=1e-12)

    def test_bounded_by_one(self):
        for alpha in (0.5, 1.0, 2.0):
            for r in (0.0, 0.4, 0.8):
                params = ch.ChannelParams.from_r(r, alpha)
                assert 0.0 <= ent.negativity_pc_closed(params) <= 1.0 + 1e-12

    def test_amplitude_tradeoff(self):
        # larger amplitude: more entanglement initially, faster decay;
        # at moderate decoherence the unit amplitude comes out on top
        def neg(r, alpha):
            return ent.negativity_pc_closed(ch.ChannelParams.from_r(r, alpha))

        assert neg(0.0, 2.0) > neg(0.0, 1.0) > neg(0.0, 0.5)
        assert neg(0.9, 2.0) < neg(0.9, 1.0) < neg(0.9, 0.5)
        mid = {a: neg(0.3, a) for a in (0.5, 1.0, 2.0)}
        assert mid[1.0] == max(mid.values())
