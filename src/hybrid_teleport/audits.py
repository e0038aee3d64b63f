"""Closed-form variants kept only for the verification audit ledger.

Each formula here looks plausible on paper but disagrees with the oracle or
the quadrature by construction. Nothing in the library computes with them;
`verify` measures each discrepancy and reports it instead of dropping the
formula silently.
"""

from __future__ import annotations

import math

from . import averages
from .channels import ChannelParams
from .teleport import BlochInput, Direction


def negativity_pc_variant(params: ChannelParams) -> float:
    """Closed-form variant that overstates the negativity by a constant scale.

    It exceeds the numeric partial-transpose value by a constant factor
    (measured 4.0 across the whole parameter grid; see the `verify` report).
    Requires alpha > 0.
    """
    if params.alpha <= 0.0:
        raise ValueError("variant form needs alpha > 0")
    t2 = params.t * params.t
    q = params.coherence_factor
    s = params.basis_overlap
    np2 = 1.0 / (2.0 + 2.0 * s)  # squared normalization of the even superposition
    nm2 = 1.0 / (2.0 - 2.0 * s)  # squared normalization of the odd superposition
    return (t2 / (2.0 * np2 * nm2)) * (
        (q - 1.0) * (np2 + nm2)
        + math.sqrt(16.0 * q * np2 * nm2 + (1.0 - q) ** 2 * (np2 + nm2) ** 2)
    )


def moment_integral_variant4(x: float) -> float:
    """Kind-4 closed-form variant with the wrong x -> 0 limit (-1/6, not 0)."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0, 1), got {x!r}")
    at = averages._artanh(x)
    return (2 - x * x) * (2 * at) / (4 * x**3) - 1.0 / (x * x)


def g_functional(kind: int, params: ChannelParams) -> float:
    """Difference of a basic moment at the two decay scales.

    Returns moment_integral(kind, coherence * overlap) - moment_integral(kind,
    overlap), the building block of `avg_fidelity_variant_pc`; the library's
    average weights the moment at the coherent scale by the coherence factor
    instead. Needs overlap < 1, that is alpha > 0.
    """
    x = params.basis_overlap
    y = params.coherence_factor * x
    return averages.moment_integral(kind, y) - averages.moment_integral(kind, x)


def avg_fidelity_variant_pc(params: ChannelParams) -> float:
    """p->c average assembled through `g_functional` with a q/(q-1) prefactor.

    This combination is not the partial-fraction identity for
    1/((1+su)(1+q s u)) and disagrees with the quadrature by O(1). Undefined
    at q = 1 (r = 0).
    """
    s = params.basis_overlap
    q = params.coherence_factor
    if abs(1.0 - q) < 1e-12:
        raise ValueError("variant assembly is singular at r = 0")
    g = {k: g_functional(k, params) for k in (1, 2, 3, 4)}
    return (q / (q - 1.0)) * (2.0 * g[1] + (2.0 * s * s + 2.0 * q) * g[2]
                              + s * (1.0 + q) * g[3] + q * s * s * g[4])


def classical_limit_variant(params: ChannelParams) -> float:
    """Literal alternative expression for the p->c classical limit.

    Its small-overlap limit is not 2/3: the bracketed polynomial sits
    entirely outside the inverse-hyperbolic factor.
    """
    s = params.basis_overlap
    if not 0.0 < s < 1.0:
        raise ValueError("variant needs overlap strictly inside (0, 1)")
    return ((s + 3 * s**3 - (s**4 - 1.0)) / (4 * s**3)) * math.asinh(s / math.sqrt(1 - s * s))


def per_input_fidelity_variant(direction: Direction, inp: BlochInput,
                               params: ChannelParams) -> float:
    """Per-input fidelity variants of the two coherent-state directions.

    For p->c the coherence term carries swapped conjugations (agrees with the
    library's form only for phi in {0, pi}); for c->p the coherence weight is
    half of the value the pipeline produces.
    """
    a, b = inp.a, inp.b
    p, q2 = abs(a) ** 2, abs(b) ** 2
    t = params.t
    if direction is Direction.P_TO_C:
        s = params.basis_overlap
        qf = params.coherence_factor
        u = 2.0 * (a * b.conjugate()).real
        num = (p * abs(a + b * s) ** 2 + q2 * abs(a * s + b) ** 2
               + 2.0 * qf * (a * b.conjugate() * (a + b * s) * (a.conjugate() * s + b.conjugate())).real)
        return float(num / ((1.0 + s * u) * (1.0 + qf * s * u)))
    if direction is Direction.C_TO_P:
        qf = params.coherence_factor
        return float(t * t * (p * p + q2 * q2 + qf * p * q2))
    raise ValueError("no audited variant for this direction")
