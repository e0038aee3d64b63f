"""Hybrid entangled channels and their evolution under photon loss.

Two channels are modeled: a polarization qubit entangled with a coherent-state
qubit, and a polarization qubit entangled with a single-rail (vacuum/photon)
qubit. Loss acts at the same rate on every mode and is parameterized by the
amplitude-decay factor t in (0, 1]; the normalized time is r = sqrt(1 - t^2).
Each channel has two constructions that must agree: a Kraus map applied to the
initial pure state, and a direct closed-form density matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fock import (
    H_IDX,
    V_IDX,
    VAC_IDX,
    DensityOperator,
    coherent_ket,
    default_fock_dim,
)

ALPHA_MAX = math.sqrt(sys.float_info.max / 2)  # largest alpha whose 2 alpha^2 is finite


def _all(ok) -> bool:
    return ok.all() if isinstance(ok, np.ndarray) else ok


def _each(fn, x, *args):
    # fn(x, *args), element by element for an array: numpy's exp, log and pow can round an ulp off
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.tolist(), *([a] * x.size for a in args)), float, x.size)
    return fn(x, *args)


@dataclass(frozen=True)
class ChannelParams:
    """Decoherence point: amplitude decay t in (0, 1], coherent amplitude, their decay factors."""

    t: float  # or a 1-d array: a grid of points at one alpha, each decay factor then an array
    alpha: float

    def __post_init__(self) -> None:
        if not _all((0.0 < self.t) & (self.t <= 1.0)):
            raise ValueError(f"t must be in (0, 1], got {self.t!r}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        if self.alpha > ALPHA_MAX:
            raise ValueError(f"alpha must be at most {ALPHA_MAX!r}, where 2 alpha^2 is still "
                             f"finite, got {self.alpha!r}")
        # the decay factors, once: coherence_factor suppresses the cross coherent dyadic,
        # exp(-2 alpha^2 (1 - t^2)); basis_overlap is <t a|-t a> = exp(-2 t^2 alpha^2);
        # each gap is 1 minus its factor through expm1, exact as alpha -> 0
        log_q = -2.0 * self.alpha**2 * (1.0 - _each(pow, self.t, 2))
        log_s = -2.0 * _each(pow, self.t * self.alpha, 2)
        object.__setattr__(self, "coherence_factor", _each(math.exp, log_q))
        object.__setattr__(self, "coherence_gap", -_each(math.expm1, log_q))
        object.__setattr__(self, "basis_overlap", _each(math.exp, log_s))
        object.__setattr__(self, "basis_gap", -_each(math.expm1, log_s))

    @classmethod
    def from_r(cls, r: float, alpha: float) -> "ChannelParams":
        if not _all((0.0 <= r) & (r < 1.0)):
            raise ValueError(f"r must be in [0, 1), got {r!r}")
        return cls(t=_each(math.sqrt, 1.0 - r * r), alpha=alpha)

    @property
    def r(self) -> float:
        """Normalized time, r = sqrt(1 - t^2)."""
        return _each(lambda x: math.sqrt(max(0.0, x)), 1.0 - self.t * self.t)


def _loss_runs(mode: int, dim: int, t: float):
    """Row run, column run and values of each photon-loss Kraus operator of one mode, in order.

    Mode 0 is the polarization mode and mode 1 the field mode, Fock(dim).

    The family is complete, sum K^dag K = identity. Every operator is one run
    on one diagonal, K = sum_i v_i |r_i><c_i| with consecutive rows r and
    columns c. Each run starts at its first value, which is nonzero unless all
    are; zeros where the ladder's tail underflows are trimmed, and operators
    with no nonzero value are skipped (at t = 1 only the identity is left).
    """
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must be in (0, 1], got {t!r}")
    if mode == 0:
        # the photon survives with amplitude t or escapes to the vacuum level
        lost = math.sqrt(1.0 - t * t)
        runs = [(0, 0, [t, t, 1.0]), (VAC_IDX, H_IDX, [lost]), (VAC_IDX, V_IDX, [lost])]
    else:
        # the bosonic ladder of the field mode (a single-rail qubit is Fock(2))
        eta = t * t
        runs = [(0, k, [math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
                        for n in range(k, dim)]) for k in range(dim)]
    for row, col, values in runs:
        while values and not values[-1]:
            values.pop()
        if values:
            size = len(values)
            yield slice(row, row + size), slice(col, col + size), np.array(values, dtype=complex)


def evolve(rho: DensityOperator, t: float) -> DensityOperator:
    """Apply photon loss with decay t to both modes of a channel.

    Each loss operator is one diagonal run (:func:`_loss_runs`), so
    K x K^dag is the slice x[c, c] scaled by v on the ket side and by v* on
    the bra side, written into rows and columns r. Each mode's family is
    applied that way to that mode's ket and bra axes, broadcast over the
    other mode, and accumulated in Kraus order. That is O(d^3) per Fock(d)
    mode instead of the O(d^4) of the products K x K^dag, and bit for bit
    equal to them: they round the same products and add only exact zeros
    besides.
    """
    dims = rho.dims
    full = rho.matrix.reshape(dims + dims)
    for mode, dim in enumerate(dims):
        axes = (mode, 2 + mode)
        x = np.moveaxis(full, axes, (-2, -1))
        out = np.zeros_like(x)
        for rows, cols, v in _loss_runs(mode, dim, t):
            out[..., rows, rows] += (v[:, None] * x[..., cols, cols]) * v.conj()
        full = np.moveaxis(out, (-2, -1), axes)
    return DensityOperator(full.reshape(rho.matrix.shape))


def _hybrid_initial(ket_h: np.ndarray, ket_v: np.ndarray) -> DensityOperator:
    """The pure state of (|H>|ket_h> + |V>|ket_v>), normalized, on polarization x Fock(d)."""
    v = np.zeros((3, len(ket_h)), dtype=complex)
    v[H_IDX], v[V_IDX] = ket_h, ket_v
    v = v.reshape(-1) / np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()))


def hybrid_pc_initial(alpha: float, dim: int | None = None) -> DensityOperator:
    """(|H>|a> + |V>|-a>)/sqrt(2) on polarization x Fock(dim), as a pure density operator."""
    if dim is None:
        dim = default_fock_dim(alpha)
    return _hybrid_initial(coherent_ket(alpha, dim), coherent_ket(-alpha, dim))


def hybrid_ps_initial() -> DensityOperator:
    """(|H>|0> + |V>|1>)/sqrt(2) on polarization x Fock(2), as a pure density operator."""
    return _hybrid_initial(*np.eye(2, dtype=complex))


def _from_blocks(hh, vv, vac, hv) -> DensityOperator:
    """The channel (|H><H| hh + |V><V| vv + |vac><vac| vac + |H><V| hv + h.c.) / 2, blocks (d, d)."""
    dim = len(hh)
    mat = np.zeros((3, dim, 3, dim), dtype=complex)
    mat[H_IDX, :, H_IDX] = 0.5 * hh
    mat[V_IDX, :, V_IDX] = 0.5 * vv
    mat[VAC_IDX, :, VAC_IDX] = 0.5 * vac
    mat[H_IDX, :, V_IDX] = 0.5 * hv
    mat[V_IDX, :, H_IDX] = 0.5 * hv.conj().T
    del hh, vv, vac, hv  # not held while DensityOperator copies mat: at d = 292 that is 5.5 MB
    return DensityOperator(mat.reshape(3 * dim, -1))


def rho_pc_analytic(params: ChannelParams, dim: int | None = None) -> DensityOperator:
    """Closed-form decohered polarization/coherent channel.

    The surviving polarization components ride on the decayed coherent
    dyadics |±t a><±t a|, the lost photon feeds the polarization vacuum, and
    the cross term is suppressed by t^2 * coherence_factor.
    """
    if dim is None:
        dim = default_fock_dim(params.alpha)
    t, alpha = params.t, params.alpha
    plus = coherent_ket(t * alpha, dim)
    minus = coherent_ket(-t * alpha, dim)
    dy_pp = np.outer(plus, plus.conj())
    dy_mm = np.outer(minus, minus.conj())
    dy_pm = np.outer(plus, minus.conj())
    t2 = t * t
    return _from_blocks(t2 * dy_pp, t2 * dy_mm, (1 - t2) * dy_pp + (1 - t2) * dy_mm,
                        t2 * params.coherence_factor * dy_pm)


def rho_ps_analytic(params: ChannelParams) -> DensityOperator:
    """Closed-form decohered polarization/single-rail channel.

    Loss maps |1><1| of the single-rail qubit to the vacuum (a flip error)
    and the polarization photon to its vacuum level; the cross coherence
    carries a factor t^3.
    """
    t = params.t
    t2 = t * t
    zero = np.diag([1.0, 0.0])  # the rail's |0><0|
    lost = np.diag([1 - t2, t2])  # its photon after loss, t^2 |1><1| + (1 - t^2) |0><0|
    return _from_blocks(t2 * zero, t2 * lost, (1 - t2) * zero + (1 - t2) * lost,
                        t ** 3 * np.eye(2, k=1))
