"""Negativity of the decohered hybrid channels."""

from __future__ import annotations

import math

from .channels import ChannelParams
from .fock import DensityOperator, hermitian_eigenvalues, partial_transpose


def negativity_numeric(rho: DensityOperator) -> float:
    """Twice the absolute sum of negative eigenvalues of the partial transpose.

    The field mode is transposed; the spectrum of a two-mode partial transpose
    does not depend on which mode is.
    """
    ev = hermitian_eigenvalues(partial_transpose(rho))
    return float(-2.0 * ev[ev < 0].sum())


def negativity_ps_analytic(t: float) -> float:
    """Negativity of the decohered polarization/single-rail channel: t^4."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must be in (0, 1], got {t!r}")
    return t**4


def negativity_pc_closed(params: ChannelParams) -> float:
    """Exact negativity of the decohered polarization/coherent channel.

    In the orthonormal even/odd superposition basis of the decayed coherent
    states, the partial transpose has a single negative eigenvalue; with
    q = coherence_factor and s = basis_overlap it evaluates to
    (t^2/2) [sqrt((1+q)^2 - 4 q s^2) - (1-q)]. The root difference is
    rationalized so the q -> 0 tail (large amplitude, strong loss) keeps its
    ~ t^2 q (1-s^2) value instead of cancelling to zero.
    """
    q = params.coherence_factor
    s = params.basis_overlap
    t2 = params.t * params.t
    excess = q * (2.0 + q - 4.0 * s * s)  # (1+q)^2 - 4 q s^2 - 1
    return 0.5 * t2 * (excess / (1.0 + math.sqrt(1.0 + excess)) + q)

