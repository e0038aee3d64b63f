"""Bloch-sphere averages: quadrature source of truth plus closed forms.

The closed forms reduce to four basic moments of the input distribution,
m_k(x) = <f_k / (1 + x u)> with u = sin(theta) cos(phi) and
f in {|a|^4, |a|^2 |b|^2, u, a^2 b*^2 + a*^2 b^2}. The p->c average needs only
m_2: its infidelity splits by partial fractions into m_2 at the two decay
scales, so it is the classical limit plus a coherence term. A closed form runs
over a grid, a ChannelParams whose t is an array, each seam a mask; a point is
the grid of its one t, answered as a float. Wherever a closed form and the
quadrature disagree beyond tolerance, the quadrature wins; `verify` enforces
this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import ChannelParams, _all, _each
from .teleport import (Direction, _bloch_terms, check_postselection, fidelity_kernel,
                       success_kernel)

_SERIES_TERMS = 14
_MOMENT_SERIES_CUT = 1e-3  # moment_integral switches to its series below this


def _artanh(x):
    # stable for x in [0, 1): log1p keeps precision near both ends; x a float or an array
    return 0.5 * (_each(math.log1p, x) - _each(math.log1p, -x))


def _grid(params: ChannelParams) -> tuple:
    if isinstance(params.t, np.ndarray):
        return params, lambda values: values
    return ChannelParams(np.array([params.t]), params.alpha), lambda values: float(values[0])


def _select(x: np.ndarray, cases) -> np.ndarray:
    # per element, the first (condition, formula) that holds, the formula fed only its mask
    out, left = np.empty_like(x), np.ones(x.shape, dtype=bool)
    for condition, formula in cases:
        mask = left & condition
        if np.count_nonzero(mask):
            out[mask] = formula(mask)
        left &= ~mask
    return out


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre nodes in cos(theta) times a uniform phi grid."""

    n_theta: int = 64
    n_phi: int = 128

    def __post_init__(self) -> None:
        if self.n_theta < 2 or self.n_phi < 2:
            raise ValueError("need at least 2 nodes per direction")


@lru_cache(maxsize=16)
def _nodes(n_theta: int, n_phi: int):
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    w_theta = w / 2.0
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = np.full(n_phi, 1.0 / n_phi)
    return theta, w_theta, phi, w_phi


def bloch_average(f, spec: QuadratureSpec | None = None) -> float:
    """Uniform average of f(theta, phi) over the Bloch sphere.

    ``f`` must accept broadcast numpy arrays of angles: it gets the open grid
    theta of shape (n_theta, 1) and phi of shape (1, n_phi), so functions of
    one angle are evaluated once per node of that angle. Deterministic for a
    fixed spec (fixed node order, numpy pairwise summation).
    """
    spec = spec or QuadratureSpec()
    theta, w_theta, phi, w_phi = _nodes(spec.n_theta, spec.n_phi)
    shape = (spec.n_theta, spec.n_phi)
    vals = np.asarray(f(theta[:, None], phi[None, :]), dtype=float)
    if vals.shape != shape:
        vals = np.broadcast_to(vals, shape)
    return float(np.einsum("i,ij,j->", w_theta, vals, w_phi))


@lru_cache(maxsize=16)
def _grid_terms(n_theta: int, n_phi: int) -> tuple:
    """Read-only :func:`teleport._bloch_terms` over the whole quadrature grid, built when used."""
    theta, _, phi, _ = _nodes(n_theta, n_phi)
    terms = _bloch_terms(theta[:, None], phi[None, :])
    for term in terms:
        term.setflags(write=False)
    return terms


def _grid_average(kernel, spec: QuadratureSpec | None) -> float:
    """:func:`bloch_average` of ``kernel(terms)`` over the grid's cached terms."""
    spec = spec or QuadratureSpec()
    return bloch_average(lambda *_: kernel(_grid_terms(spec.n_theta, spec.n_phi)), spec)


# ---------------------------------------------------------------------------
# basic moments m_k(x) = <f_k / (1 + x u)>


def _series_coeff(kind: int, k: int) -> float:
    # coefficient of z^(2k-1) in X_kind(z) = z * m_kind(z)  (k >= 1);
    # kind 3 is even: coefficient of z^(2k)
    if kind == 1:
        return 0.5 * (k + 1) / (4 * k * k - 1)
    if kind == 2:
        return 0.5 * k / (4 * k * k - 1)
    if kind == 3:
        return -1.0 / (2 * k + 1)
    return (k - 1.0) / (4 * k * k - 1)


# the _SERIES_TERMS coefficients of each kind, k = 1.._SERIES_TERMS
_SERIES_COEFFS = {kind: tuple(_series_coeff(kind, k) for k in range(1, _SERIES_TERMS + 1))
                  for kind in (1, 2, 3, 4)}


def _moment_series(kind: int, x):
    x2 = x * x
    total = 0.0
    power = 1.0  # x^(2(k-1)) for kinds 1,2,4; for kind 3 an extra factor x
    for c in _SERIES_COEFFS[kind]:
        total += c * (power * x if kind == 3 else power)
        power *= x2
    return total


def _moment_closed(kind: int, x):
    at = _artanh(x)
    if kind == 1:
        return (x + (3 * x * x - 1) * at) / (8 * _each(pow, x, 3))
    if kind == 2:
        return (-x + (1 + x * x) * at) / (8 * _each(pow, x, 3))
    if kind == 3:
        return 1.0 / x - at / (x * x)
    return (3 - x * x) * at / (4 * _each(pow, x, 3)) - 3.0 / (4 * x * x)


def _moment(kind: int, x: np.ndarray, cut: float) -> np.ndarray:
    # the series below the cut, where the closed form cancels; the closed form from it on
    return _select(x, ((x < cut, lambda m: _moment_series(kind, x[m])),
                       (True, lambda m: _moment_closed(kind, x[m]))))


def moment_integral(kind: int, x):
    """Closed form of <f_kind / (1 + x u)> for 0 <= x < 1, at a float or a 1-d array of x.

    Kinds: 1 -> |a|^4, 2 -> |a|^2|b|^2, 3 -> u, 4 -> a^2 b*^2 + a*^2 b^2.
    A series expansion takes over below x = 1e-3 where the closed forms
    cancel catastrophically.
    """
    if kind not in (1, 2, 3, 4):
        raise ValueError("moment kind must be 1..4")
    if not _all((0.0 <= x) & (x < 1.0)):
        raise ValueError(f"x must be in [0, 1), got {x!r}")
    values = _moment(kind, np.array(x, dtype=float, ndmin=1), _MOMENT_SERIES_CUT)
    return values if isinstance(x, np.ndarray) else float(values[0])


# ---------------------------------------------------------------------------
# averaged fidelities


def _pc_average(g: ChannelParams) -> np.ndarray:
    # 1 - F = 2 (1 - s^2)(1 - q) |a|^2 |b|^2 / ((1 + s u)(1 + q s u)); partial
    # fractions in u leave one moment at two scales, and 1 - s^2 = gap (1 + s)
    s, q = g.basis_overlap, g.coherence_factor

    def assembled(m):
        # m_2(x) = <|a|^2 |b|^2 / (1 - x^2 u^2)> (series below 0.03) grows with x and q <= 1, so
        # the difference is >= 0 exactly; rounding in the moments can take it below, F above 1
        difference = np.maximum(_moment(2, s[m], 0.03) - q[m] * _moment(2, q[m] * s[m], 0.03), 0.0)
        return 1.0 - 2.0 * g.basis_gap[m] * (1.0 + s[m]) * difference

    return _select(s, ((s >= 1.0, lambda m: 1.0), (True, assembled)))  # s = 1 (alpha = 0): F = 1


def _success_weighted_moments(t: np.ndarray) -> np.ndarray:
    """Averages of |a|^4, |b|^4, |a|^2|b|^2 against the s->p success weight, one row each.

    The weight is c1 |a|^2 + c2 |b|^2 with c1 = t^2, c2 = 2 - t^2; the log
    closed forms degenerate at c1 = c2 (t = 1) and lose digits to cancellation
    near it, so |c1 - c2| < 4e-3 (r < 0.045) takes the series, exact to 1e-16
    there.
    """
    c1 = t * t
    c2 = 2.0 - c1
    d = c1 - c2
    moments = np.empty((3,) + t.shape)
    near = np.abs(d) < 4e-3
    if np.count_nonzero(near):
        ratio = -d[near] / c2[near]
        a1 = a2 = a3 = 0.0
        power = 1.0
        for j in range(0, 8):
            a1 += power / (j + 3)
            a2 += power * (1.0 / (j + 1) - 2.0 / (j + 2) + 1.0 / (j + 3))
            a3 += power * (1.0 / (j + 2) - 1.0 / (j + 3))
            power *= ratio
        moments[:, near] = a1 / c2[near], a2 / c2[near], a3 / c2[near]
    c1, c2, d = c1[~near], c2[~near], d[~near]
    log_ratio = _each(math.log, c1 / c2)
    den = 2.0 * _each(pow, d, 3)
    moments[:, ~near] = ((c1 * c1 - 4 * c1 * c2 + 3 * c2 * c2 + 2 * c2 * c2 * log_ratio) / den,
                         (-3 * c1 * c1 + 4 * c1 * c2 - c2 * c2 + 2 * c1 * c1 * log_ratio) / den,
                         (c1 * c1 - c2 * c2 - 2 * c1 * c2 * log_ratio) / den)
    return moments


def _fidelities(direction: Direction, g: ChannelParams, postselected: tuple) -> list:
    # the averaged fidelity over the grid g for each flag in postselected, (False,) off
    # polarization: s->p's share one evaluation of the success-weighted moments
    t = g.t
    if direction is Direction.P_TO_C:
        return [_pc_average(g)]
    if direction is Direction.P_TO_S:
        return [(t * t + 2.0 * t + 3.0) / 6.0]
    if direction is Direction.C_TO_P:
        q = g.coherence_factor
        return [(2.0 + q) / 3.0 if post else t * t * (2.0 + q) / 3.0 for post in postselected]
    a1, a2, a3 = _success_weighted_moments(t)
    return [t * t * a1 + a2 + (1.0 + 2.0 * t - t * t) * a3 if post
            else _each(pow, t, 4) * a1 + t * t * a2 + t * t * (1.0 + 2.0 * t - t * t) * a3
            for post in postselected]


def avg_fidelity(direction: Direction, params: ChannelParams,
                 postselected: bool = False):
    """Closed-form Bloch average of the per-input fidelity: a float, or an array on a grid."""
    check_postselection(direction, postselected)
    g, answer = _grid(params)
    (value,) = _fidelities(direction, g, (postselected,))
    return answer(value)


def avg_fidelity_quadrature(direction: Direction, params: ChannelParams,
                            spec: QuadratureSpec | None = None,
                            postselected: bool = False) -> float:
    """Quadrature of the per-input fidelity (the source of truth)."""
    return _grid_average(lambda terms: fidelity_kernel(direction, terms, params, postselected),
                         spec)


# ---------------------------------------------------------------------------
# classical limits


def classical_limit(direction: Direction, params: ChannelParams):
    """Best average fidelity of a measure-and-prepare strategy (no entanglement).

    2/3 for orthogonal qubit targets; teleporting onto the overlapping
    coherent basis allows more, approaching 1 as the basis states merge.
    """
    g, answer = _grid(params)
    s = g.basis_overlap
    if direction is not Direction.P_TO_C:
        return answer(np.full(s.shape, 2.0 / 3.0))
    return answer(_select(s, ((s >= 1.0, lambda m: 1.0), (True, lambda m: (
        1.0 - 2.0 * (1.0 - s[m] * s[m]) * moment_integral(2, s[m]))))))


def classical_limit_quadrature(params: ChannelParams,
                               spec: QuadratureSpec | None = None) -> float:
    """Quadrature oracle of the classical strategy for p->c targets."""
    s = params.basis_overlap

    def per_input(terms):
        # (|a|^2 |a + s b|^2 + |b|^2 |s a + b|^2) / (1 + s u), |a + s b|^2 = |a|^2 + s^2 |b|^2 + s u
        p, q2, u, _ = terms
        return (p * (p + s * s * q2 + s * u) + q2 * (s * s * p + q2 + s * u)) / (1.0 + s * u)

    return _grid_average(per_input, spec)


# ---------------------------------------------------------------------------
# averaged success probabilities


def _overlap_success(g: ChannelParams) -> np.ndarray:
    # <(1 - s)/(1 + s u)> = (1 - s) artanh(s)/s, with removable endpoints; near s = 1
    # the exact gap = 1 - s stands in for the subtraction, artanh(s) = log((2 - gap)/gap)/2
    s, gap = g.basis_overlap, g.basis_gap
    return _select(s, (
        (gap <= 0.0, lambda m: 0.0),
        (s < 1e-8, lambda m: (1.0 - s[m]) * (1.0 + s[m] * s[m] / 3.0)),
        (gap < 1e-3, lambda m: gap[m] * 0.5 * (_each(math.log, 2.0 - gap[m])
                                               - _each(math.log, gap[m])) / s[m]),
        (True, lambda m: (1.0 - s[m]) * _artanh(s[m]) / s[m]),
    ))


def _successes(direction: Direction, g: ChannelParams, postselected: tuple) -> list:
    # the averaged success probability over the grid g for each flag in postselected, as
    # _fidelities: c->p's share one evaluation of the overlap success
    t = g.t
    if not direction.onto_polarization:
        return [t * t / 2.0]
    base = _overlap_success(g) if direction is Direction.C_TO_P else np.full(t.shape, 0.5)
    return [base * t * t / 2.0 if post else base for post in postselected]


def avg_success_probability(direction: Direction, params: ChannelParams,
                            postselected: bool = False):
    """Closed-form Bloch average of the per-input success probability, as avg_fidelity."""
    check_postselection(direction, postselected)
    g, answer = _grid(params)
    (value,) = _successes(direction, g, (postselected,))
    return answer(value)


def avg_success_quadrature(direction: Direction, params: ChannelParams,
                           spec: QuadratureSpec | None = None,
                           postselected: bool = False) -> float:
    return _grid_average(lambda terms: success_kernel(direction, terms, params, postselected), spec)


def fidelity_gap_large_alpha(params: ChannelParams) -> float:
    """Large-amplitude approximation of avg F(p->c) - avg F(c->p).

    The gap comes from the channel's vacuum admixture on the polarization
    output: (1 - t^2)(2 + coherence_factor)/3. Accurate once the coherent
    basis states are effectively orthogonal.
    """
    t2 = params.t * params.t
    return (1.0 - t2) * (2.0 + params.coherence_factor) / 3.0
