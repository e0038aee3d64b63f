"""The size of the verify battery's oracle work."""

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
    # per channel: the p->c and c->p equator summaries
    assert len(summaries) == channels * (6 * inputs + 2)
    assert summaries.count(tp.Direction.C_TO_P) == channels * (2 * inputs + 1)
