import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hybrid_teleport import audits
from hybrid_teleport import channels as ch
from hybrid_teleport import fock as fk
from hybrid_teleport import teleport as tp

EQUATOR = tp.BlochInput(theta=math.pi / 2, phi=0.0)
TILTED = tp.BlochInput(theta=1.1, phi=2.3)
ODD_CAT = tp.BlochInput(theta=math.pi / 2, phi=math.pi)


def branch(direction, stack, label):
    """Probability, success flag and normalized output of one branch of a pipeline's stack."""
    i = [name for name, _, _ in tp._OUTCOMES[direction]].index(label)
    prob = np.trace(stack[i]).real
    return prob, tp._OUTCOMES[direction][i][2], stack[i] / prob


def pol_dyad(i, j):
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


class TestBellStates:
    def test_orthonormality(self):
        kets = [oracles.bell_state_polarization(i) for i in range(1, 5)]
        for i, a in enumerate(kets):
            for j, b in enumerate(kets):
                assert oracles.overlap(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)

    def test_local_gates_permute_the_basis(self):
        # Hadamard on the photon-present levels of mode one, bit-flip then
        # Hadamard on mode two; maps 1->3, 2->1, 3->4, 4->2 up to phase
        had = np.eye(3, dtype=complex)
        had[:2, :2] = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        xflip = np.eye(3, dtype=complex)
        xflip[:2, :2] = np.array([[0, 1], [1, 0]])
        u = np.kron(had, xflip @ had)
        mapping = {1: 3, 2: 1, 3: 4, 4: 2}
        for src, dst in mapping.items():
            out = u @ oracles.bell_state_polarization(src)
            target = oracles.bell_state_polarization(dst)
            assert abs(np.vdot(target, out)) == pytest.approx(1.0, abs=1e-14)

    def test_readout_bras_are_the_conjugated_bell_states_bit_for_bit(self):
        labels = ("bell_phi_plus", "bell_phi_minus", "bell_psi_plus", "bell_psi_minus")
        for i, label in enumerate(labels, start=1):
            bra = tp._BELL_BRAS[label]
            assert bra.dtype == complex
            assert bra.tobytes() == oracles.bell_state_polarization(i).conj().tobytes()

    def test_coherent_bell_orthogonality(self):
        b1 = oracles.bell_state_coherent(1, 1.0, 24)
        b2 = oracles.bell_state_coherent(2, 1.0, 24)
        assert abs(np.vdot(b1, b2)) < 1e-14
        assert np.linalg.norm(b1) == pytest.approx(1.0, abs=1e-12)

    def test_coherent_bell_parity(self):
        # the antisymmetric combination of |b,b> and |-b,-b> has odd total parity
        dim = 24
        b2 = oracles.bell_state_coherent(2, 1.0, dim)
        par2 = np.kron(fk.parity_operator(dim), fk.parity_operator(dim))
        expectation = np.vdot(b2, par2 @ b2).real
        assert expectation == pytest.approx(-1.0, abs=1e-12)
        b1 = oracles.bell_state_coherent(1, 1.0, dim)
        assert np.vdot(b1, par2 @ b1).real == pytest.approx(1.0, abs=1e-12)


class TestParityProjectors:
    def test_pairwise_orthogonal_and_bounded(self):
        ops = oracles.parity_projectors(8)
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                if i != j:
                    assert np.max(np.abs(a @ b)) == 0.0
        total = sum(ops)
        ev = np.linalg.eigvalsh(total)
        assert ev[0] > -1e-15 and ev[-1] < 1 + 1e-15

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            oracles.parity_projectors(9)

    def test_full_probability_capture_after_beam_splitter(self):
        # post-splitter coherent-pair states never hit both detectors
        dim = 32
        beta = 1.0
        u = fk.beam_splitter_50_50(dim)
        total = sum(oracles.parity_projectors(dim))
        for i in (1, 2, 3, 4):
            v = u @ oracles.bell_state_coherent(i, beta, dim)
            captured = np.vdot(v, total @ v).real
            assert captured == pytest.approx(1.0, abs=1e-8)

    def test_no_click_probability_scale(self):
        # pole input |0...> gives the vacuum overlap exp(-2 beta^2) at beta = 2
        params = ch.ChannelParams(t=1.0, alpha=2.0)
        stack = tp.teleport_c_to_p(tp.BlochInput(0.0, 0.0), params)
        prob, _, _ = branch(tp.Direction.C_TO_P, stack, "no_click")
        assert prob == pytest.approx(math.exp(-8.0), abs=1e-10)
        assert prob < 4e-4


class TestParityReadout:
    @staticmethod
    def rows(label, dim):
        """An outcome's readout rows over (row, n_first, n_second): its collapse on the identity."""
        return tp._collapsed_rows(tp.Direction.C_TO_P, label, np.eye(dim), dim).transpose(1, 0, 2)

    @pytest.mark.parametrize("dim", [4, 8, 18, 22, 36])
    def test_rows_equal_the_dense_beam_splitter_rows(self, dim):
        dense = oracles.parity_readout_dense(dim)
        assert list(tp._PARITY_SECTORS) == list(dense)
        for label, expected in dense.items():
            rows = self.rows(label, dim)
            assert rows.shape == (len(expected), dim, dim)
            assert np.array_equal(rows.reshape(len(expected), -1), expected)
        assert not fk.beam_splitter_edge_rows(dim).flags.writeable

    @pytest.mark.parametrize("dim", [4, 36, 166])
    def test_rows_are_the_binomial_rows_bit_for_bit(self, dim):
        # pins the sign convention: (N, 0) positive, (0, N) alternating in n_first
        for label, states in oracles.parity_outcome_states(dim).items():
            rows = self.rows(label, dim)
            assert len(rows) == len(states)
            for row, (n1, n2) in zip(rows, states):
                total = n1 + n2
                first = np.arange(total + 1)
                ref = oracles.beam_splitter_edge_row(total, not label.startswith("second"))
                assert np.array_equal(row[first, total - first], ref), (label, total)
                assert np.count_nonzero(row) == total + 1

    def test_large_cut_rows_are_orthonormal_on_their_own_sectors(self):
        # d = 60 without the 207 MB dense unitary: 2d - 1 rows, two per sector N > 0
        dim = 60
        photons = np.add.outer(np.arange(dim), np.arange(dim))
        sectors = {}
        for label, states in oracles.parity_outcome_states(dim).items():
            for row, (n1, n2) in zip(self.rows(label, dim), states):
                assert not row[photons != n1 + n2].any()
                sectors.setdefault(n1 + n2, []).append(row.ravel())
        assert sorted(sectors) == list(range(dim))
        assert sum(map(len, sectors.values())) == 2 * dim - 1
        for total, rows in sectors.items():
            gram = np.array(rows) @ np.array(rows).conj().T
            assert len(rows) == (1 if total == 0 else 2)
            assert np.max(np.abs(gram - np.eye(len(rows)))) < 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even truncation dimension"):
            tp._collapsed_rows(tp.Direction.C_TO_P, "first_even", np.eye(9), 9)


def traced_peak_bytes(run) -> int:
    """Peak traced allocation of one call above what was live before it."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not outer:
            tracemalloc.stop()


class TestPeakAllocation:
    # alpha = 2 is the oracle's largest amplitude; its cutoff is d = 36. A dense
    # d^2 x d^2 beam splitter there is 27 MB and a whole-space Kraus family 6.7 MB.
    LIMIT = 6e6

    def test_cold_c_to_p_call(self):
        params = ch.ChannelParams.from_r(0.5, 2.0)
        dim = fk.default_fock_dim(2.0)
        assert dim == 36
        channel = ch.evolve(ch.hybrid_pc_initial(2.0, dim), params.t)
        fk.beam_splitter_edge_rows.cache_clear()
        peak = traced_peak_bytes(lambda: tp.teleport_c_to_p(TILTED, params, channel=channel))
        assert peak < self.LIMIT

    def test_cold_c_to_p_call_at_alpha_7_without_an_eigensolver(self, monkeypatch):
        # d = 166: a readout of two (d, d^2) row arrays would be 146 MB, and the
        # readout maps read the 4 MB channel in place
        params = ch.ChannelParams.from_r(0.5, 7.0)
        dim = fk.default_fock_dim(7.0)
        assert dim == 166
        channel = ch.evolve(ch.hybrid_pc_initial(7.0, dim), params.t)
        fk.beam_splitter_edge_rows.cache_clear()

        def refuse(*args, **kwargs):
            raise AssertionError("the c->p readout diagonalized a matrix")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        peak = traced_peak_bytes(lambda: tp.teleport_c_to_p(TILTED, params, channel=channel))
        assert peak < 8e6

    def test_cold_p_to_c_call(self):
        # the first call on a channel builds its p->c maps, (4, 5 d^2) complex: 415 kB
        params = ch.ChannelParams.from_r(0.5, 2.0)
        channel = ch.evolve(ch.hybrid_pc_initial(2.0, 36), params.t)
        peak = traced_peak_bytes(lambda: tp.teleport_p_to_c(TILTED, params, channel=channel))
        assert peak < self.LIMIT

    def test_pc_channel_evolve(self):
        rho = ch.hybrid_pc_initial(2.0, 36)
        peak = traced_peak_bytes(lambda: ch.evolve(rho, math.sqrt(0.75)))
        assert peak < self.LIMIT


class TestPolarizationToCoherent:
    def test_ideal_channel_perfect_fidelity(self):
        params = ch.ChannelParams(t=1.0, alpha=1.0)
        for inp in (EQUATOR, TILTED):
            s = tp.pipeline_summary(tp.Direction.P_TO_C, inp, params)
            assert s["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_success_probability_bound(self):
        params = ch.ChannelParams(t=1.0, alpha=1.0)
        s = tp.pipeline_summary(tp.Direction.P_TO_C, EQUATOR, params)
        # at the equator the branch modulation cancels between the two kept outcomes
        assert s["success_probability"] == pytest.approx(
            0.5 * (1 + math.exp(-2.0)), abs=1e-12)
        polar = tp.pipeline_summary(tp.Direction.P_TO_C,
                                    tp.BlochInput(0.0, 0.0), params)
        assert polar["success_probability"] == pytest.approx(0.5, abs=1e-12)

    def test_output_matches_direct_assembly(self):
        # success branch against the hand-assembled output density matrix
        params = ch.ChannelParams(t=math.sqrt(0.5), alpha=1.0)
        dim = fk.default_fock_dim(1.0)
        a, b = EQUATOR.a, EQUATOR.b
        stack = tp.teleport_p_to_c(EQUATOR, params, dim=dim)
        _, _, output = branch(tp.Direction.P_TO_C, stack, "bell_phi_plus")
        plus = fk.coherent_ket(params.t * 1.0, dim)
        minus = fk.coherent_ket(-params.t * 1.0, dim)
        q = params.coherence_factor
        s = params.basis_overlap
        u = 2 * (a * np.conj(b)).real
        expect = (abs(a) ** 2 * np.outer(plus, plus.conj())
                  + abs(b) ** 2 * np.outer(minus, minus.conj())
                  + q * (a * np.conj(b) * np.outer(plus, minus.conj())
                         + np.conj(a) * b * np.outer(minus, plus.conj())))
        expect /= 1 + q * s * u
        assert np.max(np.abs(output - expect)) < 1e-8

    def test_kept_branches_agree_for_complex_inputs(self):
        params = ch.ChannelParams.from_r(0.5, 1.0)
        stack = tp.teleport_p_to_c(TILTED, params)
        first_prob, _, first = branch(tp.Direction.P_TO_C, stack, "bell_phi_plus")
        second_prob, _, second = branch(tp.Direction.P_TO_C, stack, "bell_psi_plus")
        assert first_prob == pytest.approx(second_prob, abs=1e-12)
        assert np.max(np.abs(first - second)) < 1e-10

    def test_photon_loss_branch(self):
        params = ch.ChannelParams.from_r(0.6, 1.0)
        stack = tp.teleport_p_to_c(EQUATOR, params)
        prob, success, _ = branch(tp.Direction.P_TO_C, stack, "photon_loss")
        assert prob == pytest.approx(params.r**2, abs=1e-12)
        assert not success


class TestCoherentToPolarization:
    def test_ideal_channel(self):
        params = ch.ChannelParams(t=1.0, alpha=2.0)
        s = tp.pipeline_summary(tp.Direction.C_TO_P, EQUATOR, params)
        assert s["fidelity"] == pytest.approx(1.0, abs=1e-6)

    def test_output_matches_direct_assembly(self):
        params = ch.ChannelParams(t=0.8, alpha=1.0)
        a, b = TILTED.a, TILTED.b
        out = tp.pipeline_summary(tp.Direction.C_TO_P, TILTED, params)["output"]
        t2 = params.t**2
        q = params.coherence_factor
        expect = (t2 * abs(a) ** 2 * pol_dyad(fk.H_IDX, fk.H_IDX)
                  + t2 * abs(b) ** 2 * pol_dyad(fk.V_IDX, fk.V_IDX)
                  + (1 - t2) * pol_dyad(fk.VAC_IDX, fk.VAC_IDX)
                  + t2 * q * (a * np.conj(b) * pol_dyad(fk.H_IDX, fk.V_IDX)
                              + np.conj(a) * b * pol_dyad(fk.V_IDX, fk.H_IDX)))
        assert np.max(np.abs(out - expect)) < 1e-8

    def test_reference_success_probability(self):
        # overlap 1/2 at the equator gives success 1/3
        t = math.sqrt(math.log(2.0) / 2.0)
        params = ch.ChannelParams(t=t, alpha=1.0)
        assert params.basis_overlap == pytest.approx(0.5, abs=1e-15)
        assert tp.closed_summary(tp.Direction.C_TO_P, EQUATOR, params)[
            "success_probability"] == pytest.approx(1 / 3, abs=1e-12)
        s = tp.pipeline_summary(tp.Direction.C_TO_P, EQUATOR, params)
        assert s["success_probability"] == pytest.approx(1 / 3, abs=1e-10)

    def test_all_four_clicks_give_identical_corrected_output(self):
        params = ch.ChannelParams.from_r(0.5, 1.0)
        stack = tp.teleport_c_to_p(TILTED, params)
        wins = [branch(tp.Direction.C_TO_P, stack, label)[2]
                for label, _, success in tp._OUTCOMES[tp.Direction.C_TO_P] if success]
        assert len(wins) == 4
        ref = wins[0]
        for output in wins[1:]:
            assert np.max(np.abs(output - ref)) < 1e-10


class TestPolarizationToSingleRail:
    def test_ideal_channel(self):
        params = ch.ChannelParams(t=1.0, alpha=1.0)
        s = tp.pipeline_summary(tp.Direction.P_TO_S, EQUATOR, params)
        assert s["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_success_probability_input_independent(self):
        params = ch.ChannelParams(t=0.7, alpha=1.0)
        probs = {
            tp.pipeline_summary(tp.Direction.P_TO_S, inp, params)["success_probability"]
            for inp in (EQUATOR, TILTED, tp.BlochInput(0.0, 0.0))
        }
        for p in probs:
            assert p == pytest.approx(params.t**2 / 2, abs=1e-12)

    def test_output_matches_direct_assembly(self):
        params = ch.ChannelParams(t=math.sqrt(0.5), alpha=1.0)
        a, b = EQUATOR.a, EQUATOR.b
        t = params.t
        out = tp.pipeline_summary(tp.Direction.P_TO_S, EQUATOR, params)["output"]
        expect = np.array([
            [abs(a) ** 2 + abs(b) ** 2 * (1 - t * t), t * a * np.conj(b)],
            [t * np.conj(a) * b, abs(b) ** 2 * t * t],
        ])
        assert np.max(np.abs(out - expect)) < 1e-10


class TestSingleRailToPolarization:
    def test_ideal_channel(self):
        params = ch.ChannelParams(t=1.0, alpha=1.0)
        for inp in (EQUATOR, TILTED):
            s = tp.pipeline_summary(tp.Direction.S_TO_P, inp, params)
            assert s["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_output_matches_direct_assembly(self):
        params = ch.ChannelParams(t=math.sqrt(0.5), alpha=1.0)
        a, b = EQUATOR.a, EQUATOR.b
        t2 = params.t**2
        t = params.t
        four_p3 = t2 * abs(a) ** 2 + (2 - t2) * abs(b) ** 2
        out = tp.pipeline_summary(tp.Direction.S_TO_P, EQUATOR, params)["output"]
        expect = (
            (t2 * t2 * abs(a) ** 2 + t2 * (1 - t2) * abs(b) ** 2) * pol_dyad(0, 0)
            + t2 * abs(b) ** 2 * pol_dyad(1, 1)
            + (t2 * (1 - t2) * abs(a) ** 2 + (1 - t2) * (2 - t2) * abs(b) ** 2) * pol_dyad(2, 2)
            + t2 * t * (a * np.conj(b) * pol_dyad(0, 1) + np.conj(a) * b * pol_dyad(1, 0))
        ) / four_p3
        assert np.max(np.abs(out - expect)) < 1e-10

    def test_polar_input_success(self):
        # input |0> (b = 0): each kept branch carries t^2/4
        params = ch.ChannelParams(t=0.8, alpha=1.0)
        summary = tp.pipeline_summary(tp.Direction.S_TO_P, tp.BlochInput(0.0, 0.0), params)
        kept = [o for o in summary["outcomes"] if o["success"]]
        for o in kept:
            assert o["probability"] == pytest.approx(params.t**2 / 4, abs=1e-12)
        assert summary["success_probability"] == pytest.approx(params.t**2 / 2, abs=1e-12)

    def test_average_success_is_half(self):
        # Bloch average of the per-input success probability, any decay
        from hybrid_teleport.averages import avg_success_quadrature
        for t in (0.3, 0.7, 1.0):
            params = ch.ChannelParams(t=t, alpha=1.0)
            avg = avg_success_quadrature(tp.Direction.S_TO_P, params)
            assert avg == pytest.approx(0.5, abs=1e-12)


class TestPostselection:
    def test_removes_vacuum_and_reports_kept(self):
        params = ch.ChannelParams(t=0.8, alpha=1.0)
        out = tp.pipeline_summary(tp.Direction.C_TO_P, EQUATOR, params)["output"]
        projected, kept = tp._postselect(out)
        assert kept == pytest.approx(params.t**2, abs=1e-10)
        assert projected[fk.VAC_IDX, fk.VAC_IDX].real < 1e-14
        oracles.validate(projected)

    def test_vacuum_free_state_unchanged(self):
        rho = pol_dyad(fk.H_IDX, fk.H_IDX)
        projected, kept = tp._postselect(rho)
        assert kept == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(projected - rho)) < 1e-15

    def test_cp_postselected_assembly(self):
        params = ch.ChannelParams(t=0.8, alpha=1.0)
        a, b = TILTED.a, TILTED.b
        out = tp.pipeline_summary(tp.Direction.C_TO_P, TILTED, params)["output"]
        projected, _ = tp._postselect(out)
        q = params.coherence_factor
        expect = (abs(a) ** 2 * pol_dyad(0, 0) + abs(b) ** 2 * pol_dyad(1, 1)
                  + q * (a * np.conj(b) * pol_dyad(0, 1) + np.conj(a) * b * pol_dyad(1, 0)))
        assert np.max(np.abs(projected - expect)) < 1e-10

    def test_sp_postselected_assembly(self):
        params = ch.ChannelParams(t=math.sqrt(0.5), alpha=1.0)
        a, b = EQUATOR.a, EQUATOR.b
        t2 = params.t**2
        t = params.t
        four_p3 = t2 * abs(a) ** 2 + (2 - t2) * abs(b) ** 2
        out = tp.pipeline_summary(tp.Direction.S_TO_P, EQUATOR, params)["output"]
        projected, kept = tp._postselect(out)
        assert kept == pytest.approx(t2, abs=1e-12)
        expect = (
            (t2 * abs(a) ** 2 + (1 - t2) * abs(b) ** 2) * pol_dyad(0, 0)
            + abs(b) ** 2 * pol_dyad(1, 1)
            + t * (a * np.conj(b) * pol_dyad(0, 1) + np.conj(a) * b * pol_dyad(1, 0))
        ) / four_p3
        assert np.max(np.abs(projected - expect)) < 1e-10

    @pytest.mark.parametrize("t", [1e-3, 1e-4, 1e-5, 1e-7, 1e-8, 1e-12])
    @pytest.mark.parametrize("direction", [tp.Direction.C_TO_P, tp.Direction.S_TO_P])
    def test_pipeline_keeps_its_precision_as_t_vanishes(self, direction, t):
        # the kept weight is the photon-present populations, not 1 - <vac|rho|vac>,
        # which cancels as t -> 0
        inp = tp.BlochInput(1.0, 1.0)
        params = ch.ChannelParams(t=t, alpha=1.0)
        post = tp.pipeline_summary(direction, inp, params, postselected=True)
        closed = tp.closed_summary(direction, inp, params, postselected=True)
        assert abs(post["fidelity"] - closed["fidelity"]) < 1e-10
        assert abs(post["success_probability"] - closed["success_probability"]) < 1e-10


class TestClosedFormsAgainstPipeline:
    @pytest.mark.parametrize("direction, post", [
        (d, post) for d in tp.Direction for post in ((False, True) if d.onto_polarization
                                                     else (False,))])
    def test_closed_summary_matches_pipeline_summary(self, direction, post):
        # a 12x12 angle grid on the ideal channel, then the tilted input on a lossy one
        thetas = np.linspace(0.0, math.pi, 14)[1:-1]
        phis = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
        grid = [tp.BlochInput(float(theta), float(phi)) for theta in thetas for phi in phis]
        for params, inputs in ((ch.ChannelParams(t=1.0, alpha=1.0), grid),
                               (ch.ChannelParams.from_r(0.5, 1.0), [TILTED])):
            initial = (ch.hybrid_pc_initial(1.0, fk.default_fock_dim(1.0)) if direction.coherent
                       else ch.hybrid_ps_initial())
            chan = ch.evolve(initial, params.t)
            for inp in inputs:
                closed = tp.closed_summary(direction, inp, params, postselected=post)
                oracle = tp.pipeline_summary(direction, inp, params, channel=chan,
                                             postselected=post)
                # both engines list the same branches in the same order
                assert [(o["label"], o["correction"], o["success"]) for o in oracle["outcomes"]] \
                    == [(c["label"], c["correction"], c["success"]) for c in closed["outcomes"]]
                assert all(abs(o["probability"] - c["probability"]) < 1e-10
                           for o, c in zip(oracle["outcomes"], closed["outcomes"]))
                assert abs(oracle["fidelity"] - closed["fidelity"]) < 1e-8
                assert abs(oracle["success_probability"] - closed["success_probability"]) < 1e-8

    def test_summary_resolves_each_pipeline_at_call_time(self, monkeypatch):
        params = ch.ChannelParams.from_r(0.5, 1.0)
        names = {tp.Direction.P_TO_C: "teleport_p_to_c", tp.Direction.C_TO_P: "teleport_c_to_p",
                 tp.Direction.P_TO_S: "teleport_p_to_s", tp.Direction.S_TO_P: "teleport_s_to_p"}
        calls = dict.fromkeys(names.values(), 0)

        def counted(name, original):
            def run(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return run

        for name in names.values():
            monkeypatch.setattr(tp, name, counted(name, getattr(tp, name)))
        for done, (direction, name) in enumerate(names.items(), start=1):
            tp.pipeline_summary(direction, TILTED, params)
            assert calls[name] == 1
            assert sum(calls.values()) == done

    def test_probabilities_sum_to_one(self):
        params = ch.ChannelParams.from_r(0.7, 0.5)
        for direction in tp.Direction:
            outcomes = tp.pipeline_summary(direction, TILTED, params)["outcomes"]
            assert sum(o["probability"] for o in outcomes) == pytest.approx(1.0, abs=1e-10)

    def test_variant_forms_deviate_for_complex_phases(self):
        params = ch.ChannelParams.from_r(0.5, 1.0)
        # swapped-conjugation variant agrees on the real-amplitude meridian only
        real_input = tp.BlochInput(1.1, 0.0)

        def fidelity(direction, inp):
            return tp.closed_summary(direction, inp, params)["fidelity"]

        assert audits.per_input_fidelity_variant(
            tp.Direction.P_TO_C, real_input, params) == pytest.approx(
            fidelity(tp.Direction.P_TO_C, real_input), abs=1e-14)
        assert abs(audits.per_input_fidelity_variant(tp.Direction.P_TO_C, TILTED, params)
                   - fidelity(tp.Direction.P_TO_C, TILTED)) > 1e-3
        assert abs(audits.per_input_fidelity_variant(tp.Direction.C_TO_P, TILTED, params)
                   - fidelity(tp.Direction.C_TO_P, TILTED)) > 1e-3


class TestClosedFormBranches:
    @pytest.mark.parametrize("theta, phi, alpha, r", [
        (math.pi / 2, math.pi, 1e-3, 0.999),  # odd-cat input (u -> -1) at s -> 1
        (math.pi / 2, math.pi, 0.01, 0.9),
        (0.4, 0.0, 0.1, 0.999),
        (2.9, 4.5, 1.0, 0.5),
    ])
    def test_c_to_p_against_high_precision(self, theta, phi, alpha, r):
        import mpmath as mp
        inp = tp.BlochInput(theta, phi)
        params = ch.ChannelParams.from_r(r, alpha)
        closed = tp.closed_summary(tp.Direction.C_TO_P, inp, params)
        branches, success = closed["outcomes"], closed["success_probability"]
        with mp.workdps(50):
            a = mp.cos(mp.mpf(theta) / 2) * mp.expj(mp.mpf(phi) / 2)
            b = mp.sin(mp.mpf(theta) / 2) * mp.expj(-mp.mpf(phi) / 2)
            u = 2 * mp.re(a * mp.conj(b))
            s = mp.exp(-2 * (mp.mpf(params.t) * mp.mpf(params.alpha)) ** 2)
            norm = 1 + s * u
            even, odd = (1 - s) ** 2 / (4 * norm), (1 - s * s) / (4 * norm)
            expect = [even, odd, even, odd, s * (1 + u) / norm]
            assert max(abs(d["probability"] - e) for d, e in zip(branches, expect)) < 1e-15
            assert abs(success - 2 * (even + odd)) < 1e-15


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(tp.Direction)),
       st.floats(min_value=0.0, max_value=math.pi),
       st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
       st.floats(min_value=1e-8, max_value=10.0),
       st.floats(min_value=0.0, max_value=0.999))
@example(tp.Direction.C_TO_P, math.pi / 2, math.pi, 1e-3, 0.999)
@example(tp.Direction.P_TO_C, math.pi / 2, math.pi, 1e-7, 0.5)
def test_closed_form_branches_are_probabilities(direction, theta, phi, alpha, r):
    inp = tp.BlochInput(theta, phi)
    params = ch.ChannelParams.from_r(r, alpha)
    closed = tp.closed_summary(direction, inp, params)
    assert 0.0 <= closed["fidelity"] <= 1.0
    if direction.onto_polarization:
        post = tp.closed_summary(direction, inp, params, postselected=True)
        assert 0.0 <= post["fidelity"] <= 1.0
    branches = closed["outcomes"]
    probs = [d["probability"] for d in branches]
    assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs)
    assert abs(sum(probs) - 1.0) < 1e-12
    wins = sum(d["probability"] for d in branches if d["success"])
    assert abs(wins - closed["success_probability"]) < 1e-15
    if direction.onto_polarization:
        assert abs(wins * params.t ** 2 / 2.0 - post["success_probability"]) < 1e-15


class TestReadoutMaps:
    PARAMS = ch.ChannelParams.from_r(0.6, 1.5)

    def channel(self):
        return ch.evolve(ch.hybrid_pc_initial(1.5, fk.default_fock_dim(1.5)),
                         self.PARAMS.t)

    @staticmethod
    def same_bits(a_run, b_run):
        assert np.array_equal(a_run, b_run)

    def test_repeated_call_gives_the_same_bits(self):
        channel = self.channel()
        first = tp.teleport_c_to_p(TILTED, self.PARAMS, channel=channel)
        assert channel in tp._READOUT_MAPS
        self.same_bits(first, tp.teleport_c_to_p(TILTED, self.PARAMS, channel=channel))

    def test_fresh_copy_gives_the_bits_of_the_warm_channel(self):
        warm = self.channel()
        tp.teleport_c_to_p(EQUATOR, self.PARAMS, channel=warm)
        copy = fk.DensityOperator(warm.matrix)
        assert copy not in tp._READOUT_MAPS
        self.same_bits(tp.teleport_c_to_p(TILTED, self.PARAMS, channel=warm),
                       tp.teleport_c_to_p(TILTED, self.PARAMS, channel=copy))

    def test_directions_on_one_channel_keep_their_own_maps(self):
        # p->c reads mode 0 through Bell bras, c->p mode 1 through parity rows
        for order in ((tp.Direction.P_TO_C, tp.Direction.C_TO_P),
                      (tp.Direction.C_TO_P, tp.Direction.P_TO_C)):
            channel = self.channel()
            for d in order:
                for inp in (TILTED, EQUATOR):
                    summary = tp.pipeline_summary(d, inp, self.PARAMS, channel=channel)
                    closed = tp.closed_summary(d, inp, self.PARAMS)
                    assert abs(summary["fidelity"] - closed["fidelity"]) < 1e-12
                    assert abs(summary["success_probability"]
                               - closed["success_probability"]) < 1e-12
            maps = tp._READOUT_MAPS[channel]
            beta = self.PARAMS.t * self.PARAMS.alpha
            assert set(maps) == {(tp.Direction.P_TO_C, 0.0), (tp.Direction.C_TO_P, beta)}
            dim = channel.dims[1]
            # one row per coefficient product, then (outcomes, kept, kept) flattened
            bell, parity = maps[tp.Direction.P_TO_C, 0.0][0], maps[tp.Direction.C_TO_P, beta][0]
            assert bell.shape == (4, len(tp._OUTCOMES[tp.Direction.P_TO_C]) * dim * dim)
            assert parity.shape == (4, len(tp._OUTCOMES[tp.Direction.C_TO_P]) * 3 * 3)
            assert not bell.flags.writeable and not parity.flags.writeable

    def test_no_pipeline_diagonalizes_its_channel(self, monkeypatch):
        params = ch.ChannelParams.from_r(0.5, 1.0)
        dim = fk.default_fock_dim(1.0)
        fk.beam_splitter_edge_rows.cache_clear()  # the readout is built under the patch too

        def refuse(*args, **kwargs):
            raise AssertionError("a pipeline diagonalized a matrix")

        def pc():
            return ch.evolve(ch.hybrid_pc_initial(1.0, dim), params.t)

        def ps():
            return ch.evolve(ch.hybrid_ps_initial(), params.t)

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        shared = {pc: pc(), ps: ps()}  # each read by both of its pipelines, in turn
        for th, ph in zip(np.linspace(0.1, 3.0, 10), np.linspace(0.0, 6.0, 10)):
            inp = tp.BlochInput(float(th), float(ph))
            for run, channel in ((tp.teleport_p_to_c, pc), (tp.teleport_c_to_p, pc),
                                 (tp.teleport_p_to_s, ps), (tp.teleport_s_to_p, ps)):
                assert np.array_equal(run(inp, params, channel=channel()),
                                      run(inp, params, channel=shared[channel]))

    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 2.0])
    def test_stacked_product_matches_the_per_label_loop(self, alpha):
        params = ch.ChannelParams.from_r(0.6, alpha)
        dim = fk.default_fock_dim(alpha)
        pc = ch.evolve(ch.hybrid_pc_initial(alpha, dim), params.t)
        ps = ch.evolve(ch.hybrid_ps_initial(), params.t)
        beta = params.t * alpha
        for inp in (EQUATOR, ODD_CAT, TILTED):
            a, b = inp.a, inp.b
            coherent = a * oracles.coherent_amps(beta, dim) + b * oracles.coherent_amps(-beta, dim)
            runs = {
                tp.Direction.P_TO_C: (tp.teleport_p_to_c(inp, params, channel=pc),
                                      pc, np.array([a, b, 0.0])),
                tp.Direction.C_TO_P: (tp.teleport_c_to_p(inp, params, channel=pc),
                                      pc, coherent / np.linalg.norm(coherent)),
                tp.Direction.P_TO_S: (tp.teleport_p_to_s(inp, params, channel=ps),
                                      ps, np.array([a, b, 0.0])),
                tp.Direction.S_TO_P: (tp.teleport_s_to_p(inp, params, channel=ps),
                                      ps, np.array([a, b])),
            }
            for d, (stacked, channel, vin) in runs.items():
                reference = oracles.measure_per_label(channel, d, vin)
                assert stacked.shape == reference.shape
                assert len(stacked) == len(tp._OUTCOMES[d]) and not stacked.flags.writeable
                assert np.abs(np.einsum("lii->l", stacked).real
                              - np.einsum("lii->l", reference).real).max() <= 1e-15
                assert np.abs(stacked - reference).max() <= 1e-15

    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 2.0])
    def test_remainder_choi_is_the_collapse_in_the_input_levels(self, alpha):
        # the matrix verify takes the spectrum of, in the levels a and b weight
        params = ch.ChannelParams.from_r(0.6, alpha)
        dim = fk.default_fock_dim(alpha)
        pc = ch.evolve(ch.hybrid_pc_initial(alpha, dim), params.t)
        ps = ch.evolve(ch.hybrid_ps_initial(), params.t)
        beta = params.t * alpha
        levels = {tp.Direction.P_TO_C: np.eye(2, 3), tp.Direction.P_TO_S: np.eye(2, 3),
                  tp.Direction.S_TO_P: np.eye(2),
                  tp.Direction.C_TO_P: np.stack([oracles.coherent_amps(beta, dim),
                                                 oracles.coherent_amps(-beta, dim)])}
        for d, basis in levels.items():
            channel = pc if d.coherent else ps
            choi = tp._remainder_choi(d, params, channel)
            reference = oracles.remainder_choi(channel, d, basis)
            assert choi.shape == reference.shape
            assert np.abs(choi - reference).max() <= 1e-15
            assert np.abs(np.linalg.eigvalsh(choi) - np.linalg.eigvalsh(reference)).max() <= 1e-15

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 2.0])
    def test_only_the_truncated_parity_readout_leaves_a_remainder(self, alpha):
        # the rows of p->c, p->s and s->p span the input and measured levels, so what
        # they leave is rounding; the c->p parity rows miss the photons beyond the cutoff
        for r in (0.0, 0.6, 0.95):
            params = ch.ChannelParams.from_r(r, alpha)
            pc = ch.evolve(ch.hybrid_pc_initial(alpha, fk.default_fock_dim(alpha)),
                           params.t)
            ps = ch.evolve(ch.hybrid_ps_initial(), params.t)
            for d in tp.Direction:
                choi = tp._remainder_choi(d, params, pc if d.coherent else ps)
                if d is tp.Direction.C_TO_P:
                    assert np.abs(choi).max() <= fk.COHERENT_TAIL_TOL
                    assert np.linalg.eigvalsh(choi)[0] >= -1e-15
                else:
                    assert np.abs(choi).max() <= 1e-15, (d, r)

    @pytest.mark.parametrize("direction", [tp.Direction.P_TO_C, tp.Direction.P_TO_S])
    def test_no_photon_is_lost_on_a_lossless_channel(self, direction):
        # the lost-photon rows read the channel's polarization vacuum, empty at r = 0
        summary = tp.pipeline_summary(direction, tp.BlochInput(1.0, 2.0),
                                      ch.ChannelParams.from_r(0.0, 1.0))
        loss = [o["probability"] for o in summary["outcomes"] if o["label"] == "photon_loss"]
        assert loss == [0.0]

    @pytest.mark.parametrize("alpha", [1e-3, 1e-5, 1e-6, 1e-7])
    def test_c_to_p_keeps_its_precision_as_alpha_goes_to_zero(self, alpha):
        # near the odd cat, |beta> and |-beta> nearly cancel; the even and odd
        # parts do not, so the oracle stays on the closed forms
        for r in (0.0, 0.6, 0.95):
            params = ch.ChannelParams.from_r(r, alpha)
            channel = ch.evolve(ch.hybrid_pc_initial(alpha, fk.default_fock_dim(alpha)),
                                params.t)
            for inp in (ODD_CAT, TILTED):
                for post in (False, True):
                    summary = tp.pipeline_summary(tp.Direction.C_TO_P, inp, params,
                                                  channel=channel, postselected=post)
                    closed = tp.closed_summary(tp.Direction.C_TO_P, inp, params, post)
                    assert abs(summary["success_probability"]
                               - closed["success_probability"]) <= 1e-14
                    assert max(abs(o["probability"] - c["probability"])
                               for o, c in zip(summary["outcomes"], closed["outcomes"])) <= 1e-14
                    assert abs(summary["fidelity"] - closed["fidelity"]) <= 1e-10

    def test_one_map_build_per_channel_and_direction(self):
        # a build stores a new entry, so every entry keeps the identity it had
        # when its (channel, direction) was first run
        first = {}
        params = ch.ChannelParams.from_r(0.6, 1.0)
        pc = ch.evolve(ch.hybrid_pc_initial(1.0, fk.default_fock_dim(1.0)), params.t)
        ps = ch.evolve(ch.hybrid_ps_initial(), params.t)
        for theta in np.linspace(0.1, 3.0, 5):
            for phi in np.linspace(0.0, 6.0, 4):
                inp = tp.BlochInput(float(theta), float(phi))
                for d in tp.Direction:
                    chan = pc if d.coherent else ps
                    for post in (False, True) if d.onto_polarization else (False,):
                        tp.pipeline_summary(d, inp, params, channel=chan, postselected=post)
                        for key, entry in tp._READOUT_MAPS[chan].items():
                            assert first.setdefault((id(chan), key), entry) is entry
        assert sorted(d.value for _, (d, _) in first) == sorted(d.value for d in tp.Direction)
        assert len(tp._READOUT_MAPS[pc]) == len(tp._READOUT_MAPS[ps]) == 2

    def test_cat_parts_add_up_to_the_coherent_pair_bit_for_bit_and_are_read_only(self):
        tp._cat_parts.cache_clear()
        for beta, dim in ((1.2, 22), (1e-3, 16), (2.0, 36), (1e-7, 16)):
            even, odd = tp._cat_parts(beta, dim)[0]
            assert (even + odd).tobytes() == fk.coherent_ket(beta, dim).tobytes()
            assert (even - odd).tobytes() == fk.coherent_ket(-beta, dim).tobytes()
        parts = tp._cat_parts(1.2, 22)[0]
        assert tp._cat_parts(1.2, 22)[0] is parts
        with pytest.raises(ValueError):
            parts[0, 0] = 0.0

    def test_cat_parts_are_the_exact_halves_of_the_coherent_pair(self):
        plus = fk.coherent_ket(1e-3, 16)
        minus = fk.coherent_ket(-1e-3, 16)
        (even, odd), norms = tp._cat_parts(1e-3, 16)
        assert np.array_equal(even, (plus + minus) / 2) and np.array_equal(odd, (plus - minus) / 2)
        assert np.vdot(even, odd) == 0.0 and not even.flags.writeable
        assert norms == (np.vdot(even, even).real, np.vdot(odd, odd).real)

    def test_maps_do_not_keep_their_channel_alive(self):
        channel = self.channel()
        tp.teleport_c_to_p(TILTED, self.PARAMS, channel=channel)
        alive = weakref.ref(channel)
        del channel
        gc.collect()
        assert alive() is None


class TestPipelineEntries:
    PARAMS = ch.ChannelParams.from_r(0.6, 2.0)

    @staticmethod
    def pc_channel(params, dim):
        return ch.evolve(ch.hybrid_pc_initial(params.alpha, dim), params.t)

    def test_no_channel_runs_on_the_default_evolved_channel(self):
        pc = self.pc_channel(self.PARAMS, fk.default_fock_dim(self.PARAMS.alpha))
        ps = ch.evolve(ch.hybrid_ps_initial(), self.PARAMS.t)
        for run, channel in ((tp.teleport_p_to_c, pc), (tp.teleport_c_to_p, pc),
                             (tp.teleport_p_to_s, ps), (tp.teleport_s_to_p, ps)):
            assert np.array_equal(run(TILTED, self.PARAMS),
                                  run(TILTED, self.PARAMS, channel=channel))

    def test_summary_output_is_a_read_only_array_on_the_kept_mode(self):
        kept = {tp.Direction.P_TO_C: fk.default_fock_dim(self.PARAMS.alpha),
                tp.Direction.C_TO_P: 3, tp.Direction.P_TO_S: 2, tp.Direction.S_TO_P: 3}
        for d, k in kept.items():
            for post in (False, True) if d.onto_polarization else (False,):
                out = tp.pipeline_summary(d, TILTED, self.PARAMS, postselected=post)["output"]
                assert isinstance(out, np.ndarray) and out.shape == (k, k)
                assert not out.flags.writeable

    def test_the_coherent_directions_build_their_channel_on_fock_dim(self):
        small = self.pc_channel(self.PARAMS, 28)  # default_fock_dim(2) is 36
        for run in (tp.teleport_p_to_c, tp.teleport_c_to_p):
            stack = run(TILTED, self.PARAMS, dim=28)
            assert np.array_equal(stack, run(TILTED, self.PARAMS, channel=small))
            assert not np.array_equal(stack[:, :3, :3], run(TILTED, self.PARAMS)[:, :3, :3])
        assert tp.teleport_p_to_c(TILTED, self.PARAMS, dim=28).shape[-1] == 28

    def test_c_to_p_refuses_a_vacuum_channel(self):
        with pytest.raises(ValueError, match=r"^c->p needs alpha > 0$"):
            tp.teleport_c_to_p(TILTED, ch.ChannelParams(1.0, 0.0))


class TestInputsAndParsing:
    def test_bloch_normalization(self):
        inp = tp.BlochInput(0.7, 5.0)
        assert abs(inp.a) ** 2 + abs(inp.b) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_bloch_validation(self):
        with pytest.raises(ValueError):
            tp.BlochInput(-0.1, 0.0)
        with pytest.raises(ValueError):
            tp.BlochInput(0.5, 6.5)

    def test_directions_hash_by_identity(self):
        assert tp.Direction.__hash__ is object.__hash__

    def test_direction_parse(self):
        assert tp.Direction.parse("p-to-c") is tp.Direction.P_TO_C
        assert tp.Direction.parse("C->P") is tp.Direction.C_TO_P
        assert tp.Direction.parse("s_to_p") is tp.Direction.S_TO_P
        with pytest.raises(ValueError):
            tp.Direction.parse("x-to-y")
