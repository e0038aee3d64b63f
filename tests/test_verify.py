"""The size of the verify battery's oracle work, what its validity check sees, and the
amplitude-free premise its once-per-r single-rail checks rest on."""

import numpy as np
import pytest

from hybrid_teleport import averages as av
from hybrid_teleport import fock as fk
from hybrid_teleport import teleport as tp
from hybrid_teleport import verify as vf
from hybrid_teleport.channels import ChannelParams, evolve, hybrid_ps_initial

# the grid `verify --quick` runs
ALPHAS = (0.5, 1.0)
PIPELINE_R = (0.0, 0.6)
N_THETA, N_PHI = 4, 6


def counted(monkeypatch, name, module=tp):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_pipeline_checks_make_one_oracle_call_per_input(monkeypatch):
    c_to_p = counted(monkeypatch, "teleport_c_to_p")
    summaries = counted(monkeypatch, "pipeline_summary")
    checks, _ = vf._pipeline_checks(PIPELINE_R, ALPHAS, N_THETA, N_PHI)
    assert all(check["pass"] for check in checks)
    # a coherent channel per (alpha, r); the single-rail one depends on t alone,
    # so one per r
    coherent, single_rail = len(ALPHAS) * len(PIPELINE_R), len(PIPELINE_R)
    inputs = N_THETA * N_PHI
    # per input: c->p plain and postselected; per channel: two equator calls
    assert len(c_to_p) == coherent * (2 * inputs + 2)
    # per input: p->c, c->p and postselected c->p, plus p->s, s->p and postselected
    # s->p on the single-rail channel; per coherent channel: the p->c, c->p and
    # postselected c->p equator summaries, so every c->p call goes through a summary
    assert len(summaries) == coherent * (3 * inputs + 3) + single_rail * 3 * inputs
    assert summaries.count(tp.Direction.P_TO_C) == coherent * (inputs + 1)
    assert summaries.count(tp.Direction.C_TO_P) == coherent * (2 * inputs + 2)
    assert summaries.count(tp.Direction.P_TO_S) == single_rail * inputs
    assert summaries.count(tp.Direction.S_TO_P) == single_rail * 2 * inputs
    assert summaries.count(tp.Direction.C_TO_P) == len(c_to_p)


def test_validity_takes_one_eigvalsh_per_channel_and_direction(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(args[0])
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    checks, _ = vf._pipeline_checks(PIPELINE_R, ALPHAS, N_THETA, N_PHI)
    assert all(check["pass"] for check in checks)
    # each (alpha, r) point's coherent channel and each r's single-rail channel,
    # each read by two directions
    assert len(calls) == 2 * len(ALPHAS) * len(PIPELINE_R) + 2 * len(PIPELINE_R)


def test_average_checks_run_the_single_rail_quadratures_once_per_r(monkeypatch):
    fidelity = counted(monkeypatch, "avg_fidelity_quadrature", av)
    success = counted(monkeypatch, "avg_success_quadrature", av)
    classical = counted(monkeypatch, "classical_limit_quadrature", av)
    r_grid, alphas = (0.0, 0.3, 0.6), (0.5, 1.0, 2.0)
    checks, _ = vf._average_checks(r_grid, alphas, av.QuadratureSpec())
    assert all(check["pass"] for check in checks)

    def quadratures(directions):
        # a fidelity and a success quadrature per average, postselected ones included
        return 2 * sum(2 if d.onto_polarization else 1 for d in directions)

    coherent = [d for d in tp.Direction if d.coherent]
    single_rail = [d for d in tp.Direction if not d.coherent]
    directions = fidelity + success
    assert sum(not d.coherent for d in directions) == len(r_grid) * quadratures(single_rail)
    # the p->c audit adds one fidelity quadrature
    assert len(directions) == (len(r_grid) * (len(alphas) * quadratures(coherent)
                                              + quadratures(single_rail)) + 1)
    # one classical limit per (alpha, r), and the audit's
    assert len(classical) == len(alphas) * len(r_grid) + 1


def test_validity_fails_on_a_channel_with_a_negative_direction(monkeypatch):
    # the p->c channel at alpha = 1, r = 0.6 minus 1e-6 |w><w|: a branch that is
    # negative for some input, wherever the sampled inputs fall
    rng = np.random.default_rng(3)
    evolve = vf.evolve

    def perturbed(rho, t):
        out = evolve(rho, t)
        if out.layout.modes[1].label != "fock":
            return out
        w = rng.normal(size=len(out.matrix)) + 1j * rng.normal(size=len(out.matrix))
        w /= np.linalg.norm(w)
        return fk.DensityOperator(out.layout, out.matrix - 1e-6 * np.outer(w, w.conj()))

    monkeypatch.setattr(vf, "evolve", perturbed)
    checks, _ = vf._pipeline_checks((0.6,), (1.0,), N_THETA, N_PHI)
    valid = next(check for check in checks if check["name"] == "pipeline_outputs_valid_density")
    assert not valid["pass"]
    assert valid["max_abs_deviation"] > 1e-7


def test_validity_fails_on_a_non_hermitian_single_rail_channel(monkeypatch):
    # the single-rail channel minus 1e-3 |w><w| - 1e-9 |w><v|. The negative
    # direction moves the s->p pipeline off its closed form. The readout rows are
    # complete, so what they leave stays rounding whatever the channel holds; the
    # validity check sees the non-Hermitian part, small enough for the fidelity's
    # own imaginary-part guard to let it through
    rng = np.random.default_rng(5)
    evolve = vf.evolve

    def perturbed(rho, t):
        out = evolve(rho, t)
        if out.layout.modes[1].label != "qubit":
            return out
        w, v = rng.normal(size=(2, len(out.matrix))) + 1j * rng.normal(size=(2, len(out.matrix)))
        w, v = w / np.linalg.norm(w), v / np.linalg.norm(v)
        defect = 1e-3 * np.outer(w, w.conj()) + 1e-9 * np.outer(w, v.conj())
        return fk.DensityOperator(out.layout, out.matrix - defect)

    monkeypatch.setattr(vf, "evolve", perturbed)
    checks, _ = vf._pipeline_checks((0.6,), ALPHAS, N_THETA, N_PHI)
    by_name = {check["name"]: check for check in checks}
    assert not by_name["pipeline_outputs_valid_density"]["pass"]
    sp = by_name["pipeline_vs_closed_fidelity_s->p"]
    assert not sp["pass"]
    assert sp["worst_at"]["alpha"] == ALPHAS[0]
    # the coherent channel is untouched
    assert by_name["pipeline_vs_closed_fidelity_c->p"]["pass"]


@pytest.mark.parametrize("r", [0.0, 0.3, 0.8])
def test_single_rail_checks_do_not_depend_on_the_amplitude(r):
    # verify checks the single-rail channel at one amplitude only; every quantity
    # those checks read must be bit for bit the same at every amplitude
    angles = vf._angle_grid(N_THETA, N_PHI)
    terms = tp._bloch_terms(*zip(*angles))
    initial = hybrid_ps_initial()
    spec = av.QuadratureSpec()
    single_rail = [(d, post) for d in tp.Direction if not d.coherent
                   for post in ((False, True) if d.onto_polarization else (False,))]

    def read(alpha):
        params = ChannelParams.from_r(r, alpha)
        channel = evolve(initial, params.t)
        out = [channel.matrix]
        for d in (tp.Direction.P_TO_S, tp.Direction.S_TO_P):
            out.extend(tp._readout_maps(channel, d, 0.0))
        for d, post in single_rail:
            out += [tp.fidelity_kernel(d, terms, params, post),
                    tp.success_kernel(d, terms, params, post),
                    np.asarray(av.avg_fidelity(d, params, postselected=post)),
                    np.asarray(av.avg_success_probability(d, params, postselected=post)),
                    np.asarray(av.avg_fidelity_quadrature(d, params, spec, post)),
                    np.asarray(av.avg_success_quadrature(d, params, spec, post))]
        return [a.tobytes() for a in out]

    first = read(0.5)
    for alpha in (1.0, 2.0, 10.0):
        assert read(alpha) == first, alpha
