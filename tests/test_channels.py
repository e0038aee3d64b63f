import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybrid_teleport import channels as ch
from hybrid_teleport import cli
from hybrid_teleport import fock as fk


def kraus_apply(ops, mat):
    return sum(k @ mat @ k.conj().T for k in ops)


class TestChannelParams:
    def test_roundtrip_from_r(self):
        p = ch.ChannelParams.from_r(0.6, 1.0)
        assert p.t == pytest.approx(0.8, abs=1e-15)
        assert p.r == pytest.approx(0.6, abs=1e-15)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    def test_pythagorean_identity(self, t):
        p = ch.ChannelParams(t=t, alpha=1.0)
        assert abs(p.r**2 + p.t**2 - 1.0) < 1e-14

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ch.ChannelParams(t=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            ch.ChannelParams(t=1.2, alpha=1.0)
        with pytest.raises(ValueError):
            ch.ChannelParams.from_r(1.0, 1.0)
        with pytest.raises(ValueError):
            ch.ChannelParams(t=np.array([0.5, 1.2]), alpha=1.0)
        for t in (0.5, np.array([0.5, 1.0])):  # a grid of t takes one amplitude
            with pytest.raises(TypeError):
                ch.ChannelParams(t=t, alpha=np.array([1.0, 2.0]))

    def test_rejects_an_amplitude_whose_decay_exponent_overflows(self):
        largest = ch.ChannelParams(t=1.0, alpha=ch.ALPHA_MAX)
        assert (largest.coherence_factor, largest.basis_overlap) == (1.0, 0.0)
        for alpha in (math.nextafter(ch.ALPHA_MAX, math.inf), 1e200, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha must be"):
                ch.ChannelParams(t=1.0, alpha=alpha)

    @given(st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=0.0, max_value=3.0))
    def test_factor_product_is_t_independent(self, t, alpha):
        f = oracles.decay_factors(ch.ChannelParams(t=t, alpha=alpha))
        assert abs(f.product - math.exp(-2.0 * alpha * alpha)) < 1e-14
        assert 0.0 < f.coherence <= 1.0
        assert 0.0 < f.overlap <= 1.0

    def test_factor_boundaries(self):
        assert ch.ChannelParams(t=1.0, alpha=2.0).coherence_factor == 1.0
        assert ch.ChannelParams(t=0.4, alpha=0.0).basis_overlap == 1.0


class TestKraus:
    @pytest.mark.parametrize("kind", [fk.polarization_mode(), fk.fock_mode(12), fk.qubit_mode()])
    @pytest.mark.parametrize("t", [0.3, 0.7, 1.0])
    def test_completeness(self, kind, t):
        ops = oracles.damping_kraus_dense(kind, t)
        total = sum(k.conj().T @ k for k in ops)
        assert np.max(np.abs(total - np.eye(kind.dim))) < 1e-12

    def test_identity_at_no_loss(self):
        ops = oracles.damping_kraus_dense(fk.fock_mode(8), 1.0)
        assert len(ops) == 1
        assert np.array_equal(ops[0], np.eye(8))

    def test_single_photon_decay(self):
        d = 6
        rho = np.zeros((d, d), dtype=complex)
        rho[1, 1] = 1.0
        t = 0.75
        out = kraus_apply(oracles.damping_kraus_dense(fk.fock_mode(d), t), rho)
        expect = np.zeros((d, d), dtype=complex)
        expect[1, 1] = t * t
        expect[0, 0] = 1 - t * t
        assert np.max(np.abs(out - expect)) < 1e-14

    def test_coherent_state_stays_coherent(self):
        dim = 28
        t = 0.8
        rho = oracles.pure(fk.coherent_ket(1.0, dim), fk.fock_mode(dim))
        ops = oracles.damping_kraus_dense(fk.fock_mode(dim), t)
        out = fk.DensityOperator(rho.layout, kraus_apply(ops, rho.matrix))
        target = oracles.pure(fk.coherent_ket(t * 1.0, dim), fk.fock_mode(dim))
        assert fk.trace_distance(out, target) < 1e-10

    @pytest.mark.parametrize("kind", [fk.polarization_mode(), fk.qubit_mode(), fk.fock_mode(18),
                                      fk.fock_mode(36), fk.fock_mode(102)])
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 0.93, 0.999999])
    def test_every_operator_is_one_contiguous_diagonal_run(self, kind, r):
        # the structure evolve applies them by; at r -> 1 the ladder's tail underflows
        for k in oracles.damping_kraus_dense(kind, ch.ChannelParams.from_r(r, 1.0).t):
            rows, cols = np.nonzero(k)
            assert rows.size > 0
            assert np.all(cols - rows == cols[0] - rows[0])
            assert np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size))

    def test_rejects_bad_t(self):
        rho = oracles.pure(np.eye(4)[0], fk.fock_mode(4))
        for t in (0.0, 1.5):
            with pytest.raises(ValueError, match="t must be in"):
                ch.evolve(rho, t)


class TestEvolve:
    def test_identity_at_no_loss(self):
        rho = ch.hybrid_ps_initial()
        out = ch.evolve(rho, 1.0)
        assert fk.trace_distance(out, rho) < 1e-14

    def test_trace_preserving_on_random_psd(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = m @ m.conj().T
        m /= np.trace(m).real
        rho = fk.DensityOperator(fk.layout_of(fk.polarization_mode(), fk.qubit_mode()), m)
        out = ch.evolve(rho, 0.6)
        assert oracles.trace(out) == pytest.approx(1.0, abs=1e-11)
        assert oracles.min_eigenvalue(out) > -1e-12
        oracles.validate(out)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.2, max_value=1.0), st.floats(min_value=0.2, max_value=1.0))
    def test_semigroup(self, t1, t2):
        rho = ch.rho_pc_analytic(ch.ChannelParams(t=1.0, alpha=0.8), 18)
        twice = ch.evolve(ch.evolve(rho, t1), t2)
        once = ch.evolve(rho, t1 * t2)
        assert fk.trace_distance(twice, once) < 1e-10

    @pytest.mark.parametrize("alpha, dim", [(0.5, 18), (1.0, 22), (2.0, 36)])
    def test_pc_channel_matches_dense_embedding(self, alpha, dim):
        assert fk.default_fock_dim(alpha) == dim
        rho = ch.hybrid_pc_initial(alpha, dim)
        for r in (0.0, 0.5, 0.93):
            t = ch.ChannelParams.from_r(r, alpha).t
            assert np.array_equal(ch.evolve(rho, t).matrix, oracles.evolve_dense(rho, t).matrix)

    def test_ps_channel_matches_dense_embedding_on_the_verify_grid(self):
        rho = ch.hybrid_ps_initial()
        for r in cli.SweepConfig().r_grid():
            t = ch.ChannelParams.from_r(r, 1.0).t
            assert np.array_equal(ch.evolve(rho, t).matrix, oracles.evolve_dense(rho, t).matrix)

    def test_fock_first_layout_matches_dense_embedding(self):
        rho = oracles.permute_modes(ch.hybrid_pc_initial(1.0, 22), (1, 0))
        assert rho.layout.dims == (22, 3)
        out = ch.evolve(rho, 0.8)
        assert np.array_equal(out.matrix, oracles.evolve_dense(rho, 0.8).matrix)
        # loss on different modes commutes; only the rounding of the order differs
        swapped_back = oracles.permute_modes(out, (1, 0))
        direct = ch.evolve(ch.hybrid_pc_initial(1.0, 22), 0.8)
        assert np.max(np.abs(swapped_back.matrix - direct.matrix)) < 1e-15

    def test_middle_mode_of_three_matches_dense_embedding(self):
        rng = np.random.default_rng(5)
        layout = fk.layout_of(fk.qubit_mode(), fk.fock_mode(5), fk.polarization_mode())
        m = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        m = m @ m.conj().T
        rho = fk.DensityOperator(layout, m / np.trace(m).real)
        assert np.array_equal(ch.evolve(rho, 0.7).matrix, oracles.evolve_dense(rho, 0.7).matrix)

    @pytest.mark.parametrize("r", [0.999999, 0.0])
    def test_matches_dense_embedding_where_the_runs_shrink(self, r):
        # r = 0.999999: eta ~ 2e-12 and the ladder coefficients underflow;
        # r = 0 (t = 1): the family collapses to the identity
        t = ch.ChannelParams.from_r(r, 1.0).t
        for rho in (ch.hybrid_pc_initial(1.0, 22), ch.hybrid_ps_initial()):
            out = ch.evolve(rho, t)
            assert np.array_equal(out.matrix, oracles.evolve_dense(rho, t).matrix)
            if t == 1.0:
                assert np.array_equal(out.matrix, rho.matrix)

    def test_matches_dense_embedding_at_alpha_5(self):
        assert fk.default_fock_dim(5.0) == 102
        rho = ch.hybrid_pc_initial(5.0, 102)
        t = ch.ChannelParams.from_r(0.5, 5.0).t
        assert np.array_equal(ch.evolve(rho, t).matrix, oracles.evolve_dense(rho, t).matrix)

    @pytest.mark.parametrize("kind", [fk.polarization_mode(), fk.qubit_mode(), fk.fock_mode(2),
                                      fk.fock_mode(18), fk.fock_mode(36)])
    @pytest.mark.parametrize("t", [1.0, 0.6, 1e-3, 1e-9])
    def test_loss_runs_are_the_dense_family_bit_for_bit(self, kind, t):
        # at t = 1e-9 the ladder's run ends underflow and are trimmed
        dense = [oracles.diagonal_run(op) for op in oracles.damping_kraus_dense(kind, t)]
        runs = list(ch._loss_runs(kind, t))
        assert len(runs) == len(dense)
        for (rows, cols, v), (rows_d, cols_d, v_d) in zip(runs, dense):
            assert (rows, cols) == (rows_d, cols_d)
            assert v.dtype == v_d.dtype and v.tobytes() == v_d.tobytes()

    def test_ps_coherence_coefficient(self):
        # <H,0|rho|V,1> picks up t^2 from polarization and t from the qubit
        t = 0.85
        out = ch.evolve(ch.hybrid_ps_initial(), t)
        assert out.matrix[0 * 2 + 0, 1 * 2 + 1] == pytest.approx(t**3 / 2, abs=1e-14)


class TestInitialStates:
    # sha256 of the matrix bytes: every channel, figure and oracle record starts from them
    @pytest.mark.parametrize("alpha, dim, digest", [
        (1e-4, 16, "82712209ef1edf06e410647b045be7124f660cba295b4288fd3c4a98f304dcb9"),
        (1.0, 22, "e46affa47decd85647df86878b2879cb5d9353e3899fde552c4e70a22c879e3b"),
        (2.0, 36, "55a46fe66d2d45aa57d8614072a2484ed221db182ae28c4fb93c80128377091e"),
        (None, None, "7febc347c7624535c3941ce2de92380e6a217e6a5a8f2fe2fb3d6eb7ce63632d"),
    ], ids=["pc-1e-4", "pc-1", "pc-2", "ps"])
    def test_initial_states_are_read_only_pure_operators_with_pinned_bytes(self, alpha, dim,
                                                                          digest):
        rho = ch.hybrid_ps_initial() if alpha is None else ch.hybrid_pc_initial(alpha, dim)
        assert isinstance(rho, fk.DensityOperator) and rho.matrix.dtype == complex
        assert not rho.matrix.flags.writeable
        assert hashlib.sha256(rho.matrix.tobytes()).hexdigest() == digest
        assert oracles.purity(rho) == pytest.approx(1.0, abs=1e-12)
        oracles.validate(rho)

    def test_pc_zero_amplitude_is_product(self):
        rho = ch.hybrid_pc_initial(0.0, 16)
        pol = oracles.partial_trace(rho, {0})
        assert oracles.purity(pol) == pytest.approx(1.0, abs=1e-12)
        expect = np.zeros(3, dtype=complex)
        expect[fk.H_IDX] = expect[fk.V_IDX] = 1 / math.sqrt(2)
        # the Fock-vacuum block is |expect><expect| exactly when its overlap with expect is 1
        vacuum = rho.matrix.reshape(3, 16, 3, 16)[:, 0, :, 0]
        assert abs(math.sqrt(np.vdot(expect, vacuum @ expect).real) - 1.0) < 1e-12

    def test_pc_normalized(self):
        assert oracles.trace(ch.hybrid_pc_initial(1.0, 24)) == pytest.approx(1.0, abs=1e-12)

    def test_pc_reduced_polarization_coherence(self):
        alpha = 2.0
        dim = fk.default_fock_dim(alpha)
        pol = oracles.partial_trace(ch.hybrid_pc_initial(alpha, dim), {0})
        assert pol.matrix[fk.H_IDX, fk.H_IDX].real == pytest.approx(0.5, abs=1e-12)
        assert pol.matrix[fk.V_IDX, fk.V_IDX].real == pytest.approx(0.5, abs=1e-12)
        # off-diagonal carries the coherent overlap exp(-2 alpha^2)/2
        assert pol.matrix[fk.H_IDX, fk.V_IDX].real == pytest.approx(
            math.exp(-2 * alpha * alpha) / 2, abs=1e-12)

    def test_ps_reduced_states_maximally_mixed(self):
        rho = ch.hybrid_ps_initial()
        pol = oracles.partial_trace(rho, {0}).matrix
        rail = oracles.partial_trace(rho, {1}).matrix
        assert pol[fk.H_IDX, fk.H_IDX].real == pytest.approx(0.5, abs=1e-15)
        assert pol[fk.V_IDX, fk.V_IDX].real == pytest.approx(0.5, abs=1e-15)
        assert abs(pol[fk.H_IDX, fk.V_IDX]) < 1e-15
        assert np.max(np.abs(rail - np.eye(2) / 2)) < 1e-15


class TestClosedFormChannels:
    def test_pc_pure_at_no_loss(self):
        rho = ch.rho_pc_analytic(ch.ChannelParams(t=1.0, alpha=1.0), 22)
        assert oracles.purity(rho) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_pc_vacuum_population(self, alpha):
        t = 0.7
        dim = fk.default_fock_dim(alpha)
        rho = ch.rho_pc_analytic(ch.ChannelParams(t=t, alpha=alpha), dim)
        pol = oracles.partial_trace(rho, {0}).matrix
        assert pol[fk.VAC_IDX, fk.VAC_IDX].real == pytest.approx(1 - t * t, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_pc_matches_kraus_evolution(self, alpha):
        dim = fk.default_fock_dim(alpha)
        initial = ch.hybrid_pc_initial(alpha, dim)
        for r in np.linspace(0.0, 0.9, 5):
            params = ch.ChannelParams.from_r(r, alpha)
            dist = fk.trace_distance(ch.evolve(initial, params.t),
                                     ch.rho_pc_analytic(params, dim))
            assert dist < 1e-9

    def test_pc_blocks_equal_the_kron_sum(self):
        for alpha in (0.0, 1e-3, 0.1, 0.54, 1.0, 2.0, 3.0):
            dim = fk.default_fock_dim(alpha)
            for r in (0.0, 0.3, 0.6, 0.95, 0.999):
                params = ch.ChannelParams.from_r(r, alpha)
                assert np.array_equal(ch.rho_pc_analytic(params, dim).matrix,
                                      oracles.rho_pc_kron(params, dim).matrix)

    def test_ps_pure_at_no_loss(self):
        rho = ch.rho_ps_analytic(ch.ChannelParams(t=1.0, alpha=1.0))
        assert oracles.purity(rho) == pytest.approx(1.0, abs=1e-14)

    def test_ps_flip_error_population(self):
        t = 0.9
        rho = ch.rho_ps_analytic(ch.ChannelParams(t=t, alpha=1.0))
        # |V><V| x |1><1| population is t^2/2 * t^2
        idx = fk.V_IDX * 2 + 1
        assert rho.matrix[idx, idx].real == pytest.approx(t**4 / 2, abs=1e-14)

    def test_ps_matches_kraus_evolution(self):
        initial = ch.hybrid_ps_initial()
        for r in np.linspace(0.0, 0.95, 8):
            params = ch.ChannelParams.from_r(r, 1.0)
            dist = fk.trace_distance(ch.evolve(initial, params.t),
                                     ch.rho_ps_analytic(params))
            assert dist < 1e-12

    def test_channels_are_valid_density_operators(self):
        for r in (0.0, 0.5, 0.9):
            params = ch.ChannelParams.from_r(r, 1.0)
            oracles.validate(ch.rho_pc_analytic(params, 22))
            oracles.validate(ch.rho_ps_analytic(params))
