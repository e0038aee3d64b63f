import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybrid_teleport import channels as ch
from hybrid_teleport import fock as fk


def random_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestCoherent:
    def test_vacuum_case(self):
        ket = fk.coherent_ket(0.0, 8)
        assert ket[0] == 1.0
        assert np.all(ket[1:] == 0.0)

    def test_overlap_of_opposite_amplitudes(self):
        # <a|-a> = exp(-2 a^2)
        plus = fk.coherent_ket(1.0, 32)
        minus = fk.coherent_ket(-1.0, 32)
        assert oracles.overlap(plus, minus).real == pytest.approx(math.exp(-2.0), abs=1e-12)
        assert abs(oracles.overlap(plus, minus).imag) < 1e-15

    def test_truncation_error(self):
        with pytest.raises(fk.TruncationError):
            fk.coherent_ket(2.0, 8)
        # tail is the Poisson mass beyond the cut
        tail = fk.coherent_tail_mass(2.0, 8)
        assert tail == pytest.approx(oracles.poisson_tail(4.0, 8), abs=1e-12)
        assert tail == pytest.approx(0.0511336157928473, abs=1e-12)

    def test_amplitudes_match_recurrence(self):
        ket = fk.coherent_ket(1.3, 24)
        ref = oracles.coherent_amps(1.3, 24)
        ref = ref / np.linalg.norm(ref)
        assert np.max(np.abs(ket - ref)) < 1e-14

    def test_default_dim_rule(self):
        for alpha in (0.1, 0.5, 1.0, 2.0, 3.0):
            dim = fk.default_fock_dim(alpha)
            assert dim % 2 == 0 and dim >= 16
            # headroom for the beam-splitter output amplitude sqrt(2) * alpha
            assert fk.coherent_tail_mass(math.sqrt(2.0) * alpha, dim) < 1e-10

    @pytest.mark.parametrize("dim", [2, 16, 36, 292])
    @pytest.mark.parametrize("alpha", [1e-3, -1e-3, 0.54, -0.54, 2.0, -2.0, 10.0, -10.0])
    def test_amplitudes_bit_identical_to_direct_gammaln(self, alpha, dim):
        from scipy.special import gammaln

        n = np.arange(dim)
        ref = np.exp(-0.5 * alpha * alpha + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1))
        if alpha < 0.0:
            ref[1::2] *= -1.0
        assert np.array_equal(fk._coherent_amplitudes(alpha, dim), ref)

    # sha256 of the amplitude bytes: the channels, the c->p readout and its targets start from them
    @pytest.mark.parametrize("alpha, dim, digest", [
        (0.0, 8, "6f530519c9b447b4e9100226699ca3bab488a5560a735ceeb278bcbf531e9ab9"),
        (1e-3, 16, "ff8e0130faa7716627667fc014f30f0fbd6e937db9ee06707f78e288515417e6"),
        (-0.54, 16, "9222228cf90a20fc7d7dfb46f2f7f4a0c9350d0864da7b4d0af4a80ef39e3242"),
        (2.0, 36, "729a530180b58d621ffbd499f716cdc922946556edc1bb9233685cdb920bdd02"),
        (-10.0, 292, "51d86fe91fd93bc06283e8ebc8b0cf136629fe78cc68e2b1bf3fbbd4e9208214"),
    ])
    def test_ket_is_a_read_only_complex_array_with_pinned_bytes(self, alpha, dim, digest):
        # complex, not float: a float ket moves oracle last bits through the readout einsums
        ket = fk.coherent_ket(alpha, dim)
        assert ket.dtype == complex and ket.shape == (dim,)
        assert not ket.flags.writeable
        with pytest.raises(ValueError):
            ket[0] = 1.0
        assert hashlib.sha256(ket.tobytes()).hexdigest() == digest

    def test_half_log_factorials_read_only(self):
        table = fk._half_log_factorials(16)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_half_log_factorials_match_gammaln(self):
        from scipy.special import gammaln

        assert np.array_equal(fk._half_log_factorials(20000),
                              0.5 * gammaln(np.arange(20000) + 1))

    def test_no_command_loads_scipy(self, tmp_path):
        # the coherent-state oracle included: scipy is a test-only dependency
        code = "\n".join([
            "import sys",
            "from hybrid_teleport import cli",
            "runs = [['figure', 'fig1', '--out', 'fig1.csv'],",
            "        ['figure', 'fig2', '--out', 'fig2.csv'],",
            "        ['negativity', '--engine', 'oracle', '--out', 'neg.csv'],",
            "        ['average', '--direction', 'all', '--out', 'avg.csv']]",
            "runs += [['teleport', '--engine', 'both', '--direction', d, '--theta', '1',",
            "          '--phi', '2', '--r', '0.3']",
            "         for d in ('p-to-s', 's-to-p', 'p-to-c', 'c-to-p')]",
            "for argv in runs:",
            "    cli.main(argv)",
            "    assert 'scipy' not in sys.modules, argv",
            "from hybrid_teleport import fock",
            "fock.coherent_ket(1.0, 22)",
            "assert 'scipy' not in sys.modules",
        ])
        src = Path(fk.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestCat:
    def test_even_has_even_support(self):
        ket = oracles.cat_ket(1.0, +1, 32)
        assert np.max(np.abs(ket[1::2])) < 1e-14

    def test_odd_normalized(self):
        assert np.linalg.norm(oracles.cat_ket(1.0, -1, 32)) == pytest.approx(1.0, abs=1e-12)

    def test_parity_sectors_orthogonal(self):
        even = oracles.cat_ket(1.0, +1, 32)
        odd = oracles.cat_ket(1.0, -1, 32)
        assert abs(oracles.overlap(even, odd)) < 1e-12

    def test_normalization_matches_closed_form(self):
        # projecting |a> on the even cat gives 1/(2 N_+) with N_+ = (2+2e^{-2a^2})^{-1/2}
        alpha = 0.8
        even = oracles.cat_ket(alpha, +1, 32)
        coh = fk.coherent_ket(alpha, 32)
        expect = math.sqrt((1.0 + math.exp(-2 * alpha * alpha)) / 2.0)
        assert oracles.overlap(even, coh).real == pytest.approx(expect, abs=1e-12)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            oracles.cat_ket(0.0, -1, 16)


class TestTensorAndLayout:
    def test_dims_concatenate(self):
        # the initial states' layouts join the polarization mode and the field mode
        pc = ch.hybrid_pc_initial(1.0, 16)
        assert pc.layout.dims == (3, 16)
        assert pc.layout.total_dim == 48
        assert ch.hybrid_ps_initial().layout == fk.layout_of(fk.polarization_mode(),
                                                             fk.qubit_mode())

    def test_permute_roundtrip(self):
        rho = oracles.pure(random_state(6, 3), fk.qubit_mode(), fk.fock_mode(3))
        back = oracles.permute_modes(oracles.permute_modes(rho, (1, 0)), (1, 0))
        assert np.max(np.abs(back.matrix - rho.matrix)) == 0.0
        assert back.layout == rho.layout

    def test_permute_density_consistent_with_states(self):
        a = random_state(3, 12)
        b = random_state(2, 13)
        rho = oracles.permute_modes(oracles.pure(np.kron(a, b), fk.fock_mode(3), fk.qubit_mode()),
                                    (1, 0))
        direct = oracles.pure(np.kron(b, a), fk.qubit_mode(), fk.fock_mode(3))
        assert np.max(np.abs(rho.matrix - direct.matrix)) < 1e-15
        assert rho.layout == direct.layout


class TestPartialTrace:
    def test_product_state_reduces_pure(self):
        a = random_state(4, 4)
        b = random_state(2, 5)
        rho = oracles.pure(np.kron(a, b), fk.fock_mode(4), fk.qubit_mode())
        red = oracles.partial_trace(rho, {0})
        assert oracles.purity(red) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(red.matrix - np.outer(a, a.conj()))) < 1e-12

    def test_bell_pair_reduces_maximally_mixed(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / math.sqrt(2)
        rho = oracles.pure(v, fk.qubit_mode(), fk.qubit_mode())
        red = oracles.partial_trace(rho, {1})
        assert np.max(np.abs(red.matrix - np.eye(2) / 2)) < 1e-14

    @pytest.mark.parametrize("keep", [{0}, {1}, {0, 1}, {1, 2}, {0, 2}])
    def test_matches_brute_force_and_preserves_trace(self, keep):
        rng = np.random.default_rng(11)
        dims = (2, 3, 2)
        d = int(np.prod(dims))
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = m @ m.conj().T
        rho = fk.DensityOperator(fk.layout_of(fk.qubit_mode(), fk.polarization_mode(), fk.qubit_mode()), m)
        red = oracles.partial_trace(rho, keep)
        ref = oracles.brute_partial_trace(m, dims, keep)
        assert np.max(np.abs(red.matrix - ref)) < 1e-10
        total = oracles.trace(rho)
        assert oracles.trace(red) == pytest.approx(total, abs=1e-12 * abs(total))

    def test_invalid_index(self):
        rho = oracles.pure(np.eye(2)[0], fk.qubit_mode())
        with pytest.raises(ValueError):
            oracles.partial_trace(rho, {3})
        with pytest.raises(ValueError):
            oracles.partial_trace(rho, set())


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        a = random_state(3, 6)
        b = random_state(2, 7)
        rho = oracles.pure(np.kron(a, b), fk.fock_mode(3), fk.qubit_mode())
        ev = fk.hermitian_eigenvalues(fk.partial_transpose(rho, 1))
        assert ev[0] > -1e-12

    def test_bell_pair_minimum_eigenvalue(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / math.sqrt(2)
        rho = oracles.pure(v, fk.qubit_mode(), fk.qubit_mode())
        ev = fk.hermitian_eigenvalues(fk.partial_transpose(rho, 1))
        assert ev[0] == pytest.approx(-0.5, abs=1e-14)

    def test_involution_is_exact(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        m = m + m.conj().T
        rho = fk.DensityOperator(fk.layout_of(fk.polarization_mode(), fk.fock_mode(4)), m)
        once = fk.partial_transpose(rho, 1)
        twice = fk.partial_transpose(fk.DensityOperator(rho.layout, once), 1)
        assert np.array_equal(twice, rho.matrix)


class TestEigenvalues:
    def test_diagonal(self):
        assert np.allclose(fk.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_two_by_two_block_oracle(self):
        # coherence block of the decohered polarization/single-rail channel
        t2 = 0.5
        t3 = t2 * math.sqrt(t2)
        m = np.array([[0.0, t3 / 2], [t3 / 2, t2 * (1 - t2) / 2]])
        lo, hi = oracles.sym2x2_eigs(0.0, t3 / 2, t2 * (1 - t2) / 2)
        ev = fk.hermitian_eigenvalues(m)
        assert ev[0] == pytest.approx(lo, abs=1e-15)
        assert ev[1] == pytest.approx(hi, abs=1e-15)
        assert lo == pytest.approx(-(t2**2) / 2, abs=1e-15)

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        m = m + m.conj().T
        assert np.sum(fk.hermitian_eigenvalues(m)) == pytest.approx(
            np.trace(m).real, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            fk.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_trace_distance_rejects_a_non_hermitian_difference(self):
        layout = fk.layout_of(fk.qubit_mode())
        rho = fk.DensityOperator(layout, np.eye(2) / 2)
        with pytest.raises(ValueError):
            fk.trace_distance(fk.DensityOperator(layout, [[0.5, 1e-9], [0.0, 0.5]]), rho)
        assert fk.trace_distance(fk.DensityOperator(layout, [[0.5, 1e-11], [0.0, 0.5]]),
                                 rho) == pytest.approx(5e-12, abs=1e-20)


class TestBeamSplitter:
    def test_unitary(self):
        u = fk.beam_splitter_50_50(8)
        assert np.max(np.abs(u @ u.conj().T - np.eye(64))) < 1e-10

    def test_single_photon_sector(self):
        u = fk.beam_splitter_50_50(4)
        vin = np.zeros(16, dtype=complex)
        vin[np.ravel_multi_index((1, 0), (4, 4))] = 1.0
        out = u @ vin
        expect = np.zeros(16, dtype=complex)
        expect[np.ravel_multi_index((1, 0), (4, 4))] = 1 / math.sqrt(2)
        expect[np.ravel_multi_index((0, 1), (4, 4))] = -1 / math.sqrt(2)
        assert np.max(np.abs(out - expect)) < 1e-12

    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.0])
    def test_coherent_convention(self, beta):
        dim = 32
        u = fk.beam_splitter_50_50(dim)
        plus = fk.coherent_ket(beta, dim)
        minus = fk.coherent_ket(-beta, dim)
        vac = fk.coherent_ket(0.0, dim)
        out = u @ np.kron(plus, plus)
        target = np.kron(fk.coherent_ket(math.sqrt(2) * beta, dim), vac)
        assert abs(np.vdot(target, out)) == pytest.approx(1.0, abs=1e-8)
        out2 = u @ np.kron(plus, minus)
        target2 = np.kron(vac, fk.coherent_ket(-math.sqrt(2) * beta, dim))
        assert abs(np.vdot(target2, out2)) == pytest.approx(1.0, abs=1e-8)

    def test_conserves_total_photon_number(self):
        dim = 10
        u = fk.beam_splitter_50_50(dim)
        n = np.arange(dim)
        total = np.diag(np.add.outer(n, n).reshape(-1).astype(complex))
        assert np.max(np.abs(u.conj().T @ total @ u - total)) < 1e-10

    @pytest.mark.parametrize("dim", [4, 8, 18, 22])
    def test_sector_build_matches_dense_exponentiation(self, dim):
        u = fk.beam_splitter_50_50(dim)
        ref = oracles.beam_splitter_dense(dim)
        assert np.max(np.abs(u - ref)) < 1e-12
        # the sectors N >= dim lose states beyond the cut; they still match
        n = np.arange(dim)
        high = np.add.outer(n, n).reshape(-1) >= dim
        block = np.ix_(high, high)
        assert np.max(np.abs(u[block] - ref[block])) < 1e-12
        assert np.max(np.abs(ref[block] - np.diag(np.diag(ref[block])))) > 0.1

    def test_large_cut_is_unitary_and_conserves_photon_number(self):
        # d = 60 is a 3600 x 3600 operator; built uncached, checked sector by sector
        dim = 60
        u = fk.beam_splitter_50_50.__wrapped__(dim)
        n = np.arange(dim)
        total = np.add.outer(n, n).reshape(-1)
        for photons in range(2 * dim - 1):
            inside = total == photons
            rows = u[inside]
            block = rows[:, inside]
            assert np.max(np.abs(block @ block.conj().T - np.eye(block.shape[0]))) < 1e-12
            assert np.max(np.abs(rows[:, ~inside])) == 0.0

    def test_parity_operator_flips_amplitude(self):
        par = fk.parity_operator(24)
        plus = fk.coherent_ket(0.9, 24)
        minus = fk.coherent_ket(-0.9, 24)
        assert np.max(np.abs(par @ plus - minus)) < 1e-14


class TestDensityOperator:
    def test_matrix_is_a_read_only_copy(self):
        source = np.eye(2, dtype=complex) / 2
        rho = fk.DensityOperator(fk.layout_of(fk.qubit_mode()), source)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
        source[0, 0] = 1.0
        assert rho.matrix[0, 0] == 0.5

    def test_ensemble_reassembles_the_state(self):
        v = random_state(6, 3)
        rho = fk.DensityOperator(fk.layout_of(fk.fock_mode(6)),
                                 0.7 * np.outer(v, v.conj()) + 0.3 * np.eye(6) / 6)
        w, vecs = oracles.ensemble(rho)
        assert np.max(np.abs((vecs * w) @ vecs.conj().T - rho.matrix)) < 1e-14

    def test_compares_and_hashes_by_identity(self):
        rho = oracles.pure(np.eye(2)[1], fk.qubit_mode())
        twin = fk.DensityOperator(rho.layout, rho.matrix)
        assert np.array_equal(rho.matrix, twin.matrix)
        assert rho == rho and rho != twin
        assert hash(rho) != hash(twin) and len({rho, twin, rho}) == 2

    def test_ensemble_drops_numerically_zero_weights(self):
        rho = oracles.pure(np.eye(5)[2], fk.fock_mode(5))
        w, vecs = oracles.ensemble(rho)
        assert w.shape == (1,) and vecs.shape == (5, 1)
        assert abs(vecs[2, 0]) == pytest.approx(1.0, abs=1e-15)


class TestFidelity:
    def test_self(self):
        psi = random_state(6, 10)
        assert oracles.fidelity_pure(psi, oracles.pure(psi, fk.fock_mode(6))) == pytest.approx(
            1.0, abs=1e-14)

    def test_orthogonal(self):
        a = np.eye(4, dtype=complex)[0]
        b = oracles.pure(np.eye(4)[2], fk.fock_mode(4))
        assert oracles.fidelity_pure(a, b) == 0.0

    def test_maximally_mixed(self):
        psi = np.eye(5, dtype=complex)[1]
        rho = fk.DensityOperator(fk.layout_of(fk.fock_mode(5)), np.eye(5, dtype=complex) / 5)
        assert oracles.fidelity_pure(psi, rho) == pytest.approx(0.2, abs=1e-15)

    def test_layout_mismatch(self):
        psi = np.eye(4, dtype=complex)[0]
        rho = oracles.pure(np.eye(5)[0], fk.fock_mode(5))
        with pytest.raises(fk.LayoutError):
            oracles.fidelity_pure(psi, rho)

    @pytest.mark.parametrize("value", [math.nan, complex(0.5, math.nan)])
    def test_non_finite_is_rejected_not_clamped(self, value):
        psi = np.eye(2, dtype=complex)[0]
        rho = fk.DensityOperator(fk.layout_of(fk.qubit_mode()), np.diag([value, 0.0]))
        with pytest.raises(ValueError, match="outside"):
            oracles.fidelity_pure(psi, rho)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_density_operators_validate(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 3)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    rho = oracles.pure(v / np.linalg.norm(v), fk.qubit_mode(), fk.polarization_mode())
    oracles.validate(rho)
    for keep in ({0}, {1}):
        oracles.validate(oracles.partial_trace(rho, keep))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_tensor_then_trace_recovers_factors(seed):
    rng = np.random.default_rng(seed)
    va = rng.normal(size=4) + 1j * rng.normal(size=4)
    vb = rng.normal(size=2) + 1j * rng.normal(size=2)
    a = oracles.pure(va / np.linalg.norm(va), fk.fock_mode(4))
    b = oracles.pure(vb / np.linalg.norm(vb), fk.qubit_mode())
    joint = fk.DensityOperator(fk.layout_of(fk.fock_mode(4), fk.qubit_mode()),
                               np.kron(a.matrix, b.matrix))
    assert fk.trace_distance(oracles.partial_trace(joint, {0}), a) < 1e-12
    assert fk.trace_distance(oracles.partial_trace(joint, {1}), b) < 1e-12
