"""The size of the verify battery's oracle work, and what its validity check sees."""

import numpy as np

from hybrid_teleport import fock as fk
from hybrid_teleport import teleport as tp
from hybrid_teleport import verify as vf

# the grid `verify --quick` runs
ALPHAS = (0.5, 1.0)
PIPELINE_R = (0.0, 0.6)
N_THETA, N_PHI = 4, 6


def counted(monkeypatch, name):
    calls = []
    original = getattr(tp, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(tp, name, wrapper)
    return calls


def test_pipeline_checks_make_one_oracle_call_per_input(monkeypatch):
    c_to_p = counted(monkeypatch, "teleport_c_to_p")
    summaries = counted(monkeypatch, "pipeline_summary")
    checks, _ = vf._pipeline_checks(PIPELINE_R, ALPHAS, N_THETA, N_PHI)
    assert all(check["pass"] for check in checks)
    channels, inputs = len(ALPHAS) * len(PIPELINE_R), N_THETA * N_PHI
    # per input: c->p plain and postselected; per channel: two equator calls
    assert len(c_to_p) == channels * (2 * inputs + 2)
    # per input: four directions plus the two postselected ones onto polarization;
    # per channel: the p->c, c->p and postselected c->p equator summaries, so every
    # c->p call goes through a summary
    assert len(summaries) == channels * (6 * inputs + 3)
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
    # each (alpha, r) point has two channels, each read by two directions
    assert len(calls) <= len(ALPHAS) * len(PIPELINE_R) * len(tp.Direction)


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
