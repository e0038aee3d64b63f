"""Teleportation protocols between polarization and field-mode qubits.

Each of the four directions has a numeric pipeline and closed forms. Both
answer one input in the same keys, through :func:`pipeline_summary` and
:func:`closed_summary`; the closed forms read every input, scalar or grid,
through its Bloch terms, with one kernel per quantity. One outcome table lists
each direction's branches as (label, correction, success); both engines read
it, and the success probability is the sum of the success branches. Pipelines
read every outcome through its own rows: Bell bras and the lost-photon rows on
a polarization pair, the parity readout rows of a balanced beam splitter on a
coherent pair, single-photon Bell bras and the unresolved rows |00>, |11> on a
single-rail pair. Each branch is the channel compressed by its outcome's rows
and conjugated by its correction. The four pipelines forward to one
measure-and-correct routine, ``_pipeline``, which returns the corrected,
unnormalized branches as one read-only (outcomes, d, d) stack in table order;
a branch's probability is its trace. Only the channel is a
:class:`DensityOperator`: the bras, the stack and the success mixture that
:func:`pipeline_summary` returns as ``output`` are plain arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from weakref import WeakKeyDictionary

import numpy as np

from .channels import ChannelParams, evolve, hybrid_pc_initial, hybrid_ps_initial
from .fock import (
    H_IDX,
    V_IDX,
    VAC_IDX,
    DensityOperator,
    _overlap_fidelity,
    beam_splitter_edge_rows,
    coherent_ket,
    default_fock_dim,
    parity_operator,
)


class Direction(Enum):
    P_TO_C = "p->c"
    C_TO_P = "c->p"
    P_TO_S = "p->s"
    S_TO_P = "s->p"

    # members are singletons: hash by identity in C, not through enum's Python-level hash
    __hash__ = object.__hash__

    def __init__(self, value: str) -> None:
        # the target is polarization, the only output postselection applies to
        self.onto_polarization = value.endswith("->p")
        self.coherent = "c" in value  # runs on the polarization / coherent-state channel

    @classmethod
    def parse(cls, text: str) -> "Direction":
        key = text.strip().lower().replace("_", "-").replace("to", ">").replace("-", "")
        table = {"p>c": cls.P_TO_C, "c>p": cls.C_TO_P, "p>s": cls.P_TO_S, "s>p": cls.S_TO_P}
        if key not in table:
            raise ValueError(f"unknown direction {text!r}; use one of p-to-c, c-to-p, p-to-s, s-to-p")
        return table[key]


# Each direction's measurement outcomes in branch order: (label, correction, success).
_OUTCOMES = {
    Direction.P_TO_C: (
        ("bell_phi_plus", "identity", True),
        ("bell_phi_minus", "none", False),
        ("bell_psi_plus", "parity_flip", True),
        ("bell_psi_minus", "none", False),
        ("photon_loss", "none", False),
    ),
    Direction.C_TO_P: (
        ("first_even", "identity", True),
        ("first_odd", "pauli_z", True),
        ("second_even", "pauli_x", True),
        ("second_odd", "pauli_y", True),
        ("no_click", "none", False),
    ),
    Direction.P_TO_S: (
        ("bell_phi_plus", "identity", True),
        ("bell_phi_minus", "phase_flip", True),
        ("bell_psi_plus", "none", False),
        ("bell_psi_minus", "none", False),
        ("photon_loss", "none", False),
    ),
    Direction.S_TO_P: (
        ("bell_psi_plus", "pauli_x", True),
        ("bell_psi_minus", "pauli_y", True),
        ("unresolved", "none", False),
    ),
}
# each direction's success branches, as indices into its outcomes
_SUCCESS = {d: tuple(i for i, (_, _, success) in enumerate(outcomes) if success)
            for d, outcomes in _OUTCOMES.items()}


def check_postselection(direction: Direction, postselected: bool) -> None:
    """Postselection filters on photon arrival at a polarization output, so only there."""
    if postselected and not direction.onto_polarization:
        raise ValueError("postselection applies to teleportation onto polarization")


@dataclass(frozen=True)
class BlochInput:
    """Input qubit parameterized by Bloch angles.

    Amplitudes a = cos(theta/2) e^{i phi/2} and b = sin(theta/2) e^{-i phi/2},
    so |a|^2 + |b|^2 = 1 by construction.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must be in [0, 2 pi), got {self.phi!r}")

    @property
    def a(self) -> complex:
        return math.cos(self.theta / 2) * cmath.exp(1j * self.phi / 2)

    @property
    def b(self) -> complex:
        return math.sin(self.theta / 2) * cmath.exp(-1j * self.phi / 2)


# ---------------------------------------------------------------------------
# measurement building blocks


# Bell bras of a polarization pair, (<HH| ± <VV|)/sqrt2 and (<HV| ± <VH|)/sqrt2, as
# conjugated kets flattened over (input, channel) in the lossy 3x3 space
_BELL_BRAS = {label: (np.array(ket, dtype=complex) / math.sqrt(2)).conj() for label, ket in (
    ("bell_phi_plus", (1, 0, 0, 0, 1, 0, 0, 0, 0)),
    ("bell_phi_minus", (1, 0, 0, 0, -1, 0, 0, 0, 0)),
    ("bell_psi_plus", (0, 1, 0, 1, 0, 0, 0, 0, 0)),
    ("bell_psi_minus", (0, 1, 0, -1, 0, 0, 0, 0, 0)),
)}
# a lost photon: input H or V with the channel's polarization vacuum, two rows
_BELL_BRAS["photon_loss"] = np.eye(9)[[3 * H_IDX + VAC_IDX, 3 * V_IDX + VAC_IDX]]
# single-photon Bell bras (|10> +/- |01>)/sqrt2 over (input, channel), flattened,
# and the patterns they leave unresolved, |00> and |11>
_SINGLE_PHOTON_BRAS = {
    "bell_psi_plus": np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2),
    "bell_psi_minus": np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2),
    "unresolved": np.eye(4)[[0, 3]],
}


# the sectors N of beam_splitter_edge_rows each c->p outcome keeps, in _OUTCOMES
# order: every outcome leaves one arm empty, so it keeps rows (N, 0) or (0, N)
_PARITY_SECTORS = {
    "first_even": slice(2, None, 2),  # n_first = 2, 4, ..., n_second = 0
    "first_odd": slice(1, None, 2),  # n_first = 1, 3, ..., n_second = 0
    "second_even": slice(2, None, 2),  # n_first = 0, n_second = 2, 4, ...
    "second_odd": slice(1, None, 2),  # n_first = 0, n_second = 1, 3, ...
    "no_click": slice(0, 1),
}


def _collapsed_rows(direction: Direction, label: str, basis: np.ndarray, dim: int) -> np.ndarray:
    """One outcome's readout rows with the input levels collapsed, a[x, r, m].

    a[x, r, m] = sum_i basis[x, i] row_r[i, m] over (input level, row,
    measured level), for the input levels e_0, e_1 as the rows of ``basis``
    and a measured mode of dimension ``dim``. The Bell and single-photon bras
    are dense over (input, measured). A parity row r lives on its own sector
    N_r < dim, the states (N_r - m, m); it is the exact binomial row (N_r, 0)
    of :func:`beam_splitter_edge_rows`, or (0, N_r), the same row times
    (-1)^n_first. Its collapse is basis[x, N_r - m] row_r[N_r - m] on
    m <= N_r and zero above: O(dim^2) numbers, never a (rows, dim, dim) block.
    """
    if direction is Direction.C_TO_P:
        if dim % 2 != 0:
            raise ValueError("parity readout needs an even truncation dimension")
        if label.startswith("second"):  # (-1)^n_first on the input side: exact sign flips
            basis = np.where(np.arange(dim) % 2, -basis, basis)
        sectors = _PARITY_SECTORS[label]
        n_first = np.arange(dim)[sectors, None] - np.arange(dim)  # N - m, negative off the sector
        inside = n_first >= 0
        n_first = np.where(inside, n_first, 0)
        rows = np.take_along_axis(beam_splitter_edge_rows(dim)[sectors], n_first, axis=1)
        return np.where(inside, basis[:, n_first] * rows, 0.0)
    bras = _SINGLE_PHOTON_BRAS if direction is Direction.S_TO_P else _BELL_BRAS
    return np.einsum("xi,rim->xrm", basis, bras[label].reshape(-1, basis.shape[1], dim))


# correction unitaries on the kept mode; "parity_flip" is built per cutoff, and
# "identity" and the failures' "none" leave the branch as it is
_UNITARIES = {
    "phase_flip": np.diag([1.0, -1.0]).astype(complex),
    "pauli_z": np.diag([1.0, -1.0, 1.0]).astype(complex),
    "pauli_x": np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),
    "pauli_y": np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 1]], dtype=complex),
}


# rows e_0, e_1 = (e_H ± e_V)/2 over qubit levels: a e_H + b e_V = (a + b) e_0 + (a - b) e_1
_SUM_DIFF = np.array([[0.5, 0.5], [0.5, -0.5]])

# each channel's readout maps, dropped with the channel; threads that race on a
# channel build equal maps, and either is kept
_READOUT_MAPS: WeakKeyDictionary = WeakKeyDictionary()


def _readout_maps(channel: DensityOperator, direction: Direction,
                  beta: float) -> tuple[np.ndarray, np.ndarray]:
    """A direction's corrected branch maps on one channel, built once and kept for its lifetime.

    The input x e_0 + y e_1 is written in ``_SUM_DIFF`` of the measured mode's
    qubit levels; for c->p those are |±beta>, so e_0, e_1 are the even and odd
    parts of |beta> (:func:`_cat_parts`); the other directions pass beta = 0.
    Entries are kept per (direction, beta). Every branch is quadratic in
    (x, y): row 2 i + j of the read-only (4, outcomes * k * k) maps is the
    corrected, unnormalized branch stack, in ``_OUTCOMES`` order on the kept
    mode of dimension k, of c_i conj(c_j). Each outcome's readout rows collapse
    e_i to a_i[r, m] over (row, measured level), and its branch, the channel
    rho compressed by those rows, is read from a view of rho, with no factor of
    it that would lose the small components: the effect E_ij[m, M] = sum over r
    of a_i[r, m] conj(a_j[r, M]) traced against rho[m k, M K]. The read-only
    (2, 2, k, k) leftover, <e_j|e_i> times the kept mode's reduced state minus
    every branch, is what the rows leave: rounding where they are complete,
    and for c->p what truncation leaves. Then each branch is conjugated by its
    correction u (``_UNITARIES``), u M u^dag, once; u permutes the kept basis
    up to phases ±1, ±i, so each entry is one exact product. Returns
    ``(maps, leftover)``.
    """
    entry = _READOUT_MAPS.get(channel, {}).get((direction, beta))
    if entry is None:
        dims = channel.dims
        # the channel mode measured jointly with the input, and the input levels
        if direction is Direction.C_TO_P:
            measured, basis = 1, _cat_parts(beta, dims[1])[0]
        elif direction is Direction.S_TO_P:
            measured, basis = 1, _SUM_DIFF
        else:
            measured, basis = 0, _SUM_DIFF @ np.eye(2, 3)
        kept = dims[1 - measured]
        # the channel over (measured, kept, measured, kept), a view
        rho = np.moveaxis(channel.matrix.reshape(dims + dims), (measured, 2 + measured), (0, 2))
        outcomes = _OUTCOMES[direction]
        mats = np.empty((2, 2, len(outcomes), kept, kept), dtype=complex)
        for i, (label, _, _) in enumerate(outcomes):
            collapsed = _collapsed_rows(direction, label, basis, dims[measured])
            # the outcome's effect on the measured mode between input levels x and y
            effect = collapsed.transpose(0, 2, 1)[:, None] @ collapsed.conj()[None]
            np.einsum("xymM,mkMK->xykK", effect, rho, out=mats[:, :, i])
        leftover = (np.multiply.outer(basis @ basis.conj().T, np.einsum("mkmK->kK", rho))
                    - mats.sum(axis=2))
        for i, (_, correction, _) in enumerate(outcomes):
            u = parity_operator(kept) if correction == "parity_flip" else _UNITARIES.get(correction)
            if u is not None:
                mats[:, :, i] = u @ mats[:, :, i] @ u.conj().T
        maps = mats.reshape(4, -1)
        maps.setflags(write=False)
        leftover.setflags(write=False)
        entry = _READOUT_MAPS.setdefault(channel, {})[direction, beta] = maps, leftover
    return entry


def _remainder_choi(direction: Direction, params: ChannelParams,
                    channel: DensityOperator) -> np.ndarray:
    """Choi matrix of what the readout rows leave, over (input level, kept level).

    The leftover of :func:`_readout_maps` is taken back from the ``_SUM_DIFF``
    coefficients (a + b, a - b) to (a, b), which weight the measured mode's
    qubit levels (|beta> and |-beta> for c->p): kron(<e_y|e_x>, marginal)
    minus every branch. A branch compresses the positive channel by its rows,
    so it is positive for every input; this matrix shows that the rows take no
    more than the channel holds. It is rounding for p->c, p->s and s->p, whose
    rows are complete, and the truncation residue for c->p.
    """
    leftover = _readout_maps(channel, direction, _measured_amplitude(direction, params))[1]
    back = 2.0 * _SUM_DIFF  # c_i = sum_x back[i, x] (a, b)_x
    size = 2 * leftover.shape[-1]
    return np.einsum("ix,jy,ijmn->xmyn", back, back, leftover).reshape(size, size)


# ---------------------------------------------------------------------------
# pipelines


def _measured_amplitude(direction: Direction, params: ChannelParams) -> float:
    """Amplitude beta of the measured mode's qubit levels |±beta>: t alpha for c->p, else 0."""
    return params.t * params.alpha if direction is Direction.C_TO_P else 0.0


@lru_cache(maxsize=16)
def _cat_parts(beta: float, dim: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Read-only even and odd parts (|beta> ± |-beta>)/2 on Fock(dim), and their squared norms.

    They are the even and odd entries of |beta>, so their sum and difference
    are |beta> and |-beta> exactly. The halves have disjoint supports, so they
    are exactly orthogonal: an input near the odd cat keeps its precision as
    beta -> 0, where |beta> and |-beta> are nearly parallel.
    """
    amplitudes = coherent_ket(beta, dim)
    odd = np.arange(dim) % 2 == 1
    parts = np.where([~odd, odd], amplitudes, 0.0)
    parts.setflags(write=False)
    return parts, (float(np.vdot(parts[0], parts[0]).real), float(np.vdot(parts[1], parts[1]).real))


def _pipeline(direction: Direction, inp: BlochInput, params: ChannelParams,
              dim: int | None = None, channel: DensityOperator | None = None) -> np.ndarray:
    """Measure the input jointly with one channel mode and correct the other.

    The channel defaults to the direction's initial state evolved to t, on
    Fock(dim) for the coherent pair. The measured levels are |±t alpha> for
    c->p, whose input is normalized by the even and odd parts' squared norms,
    and the photon levels (beta = 0) otherwise. One product of the input's
    coefficient products with the readout maps (:func:`_readout_maps`) gives
    the corrected, unnormalized branches as one read-only (outcomes, d, d)
    stack in ``_OUTCOMES`` order; each branch's probability is its trace.
    """
    beta = _measured_amplitude(direction, params)
    if direction is Direction.C_TO_P and beta <= 0.0:
        raise ValueError("c->p needs alpha > 0")
    if channel is None:
        dim = default_fock_dim(params.alpha) if dim is None else dim
        initial = hybrid_pc_initial(params.alpha, dim) if direction.coherent else hybrid_ps_initial()
        channel = evolve(initial, params.t)
    a, b = inp.a, inp.b
    x, y = a + b, a - b
    if direction is Direction.C_TO_P:
        _, (even, odd) = _cat_parts(beta, channel.dims[1])
        norm = math.sqrt(abs(x) ** 2 * even + abs(y) ** 2 * odd)
        x, y = x / norm, y / norm
    cx, cy = x.conjugate(), y.conjugate()
    kept = channel.dims[0 if direction.onto_polarization else 1]
    maps = _readout_maps(channel, direction, beta)[0]
    stack = (np.array((x * cx, x * cy, y * cx, y * cy)) @ maps).reshape(-1, kept, kept)
    stack.setflags(write=False)
    return stack


def teleport_p_to_c(inp: BlochInput, params: ChannelParams, dim: int | None = None,
                    channel: DensityOperator | None = None) -> np.ndarray:
    """Teleport a polarization qubit onto the coherent-state qubit.

    The Bell measurement on the polarization pair identifies two of the four
    Bell states (chosen, via local gates, to be the pair whose corrections
    are implementable: identity and the coherent sign flip). The other two
    Bell outcomes and the loss-detected vacuum branch are failures.
    """
    return _pipeline(Direction.P_TO_C, inp, params, dim, channel)


def teleport_c_to_p(inp: BlochInput, params: ChannelParams, dim: int | None = None,
                    channel: DensityOperator | None = None) -> np.ndarray:
    """Teleport a coherent-state qubit (in the decayed basis) onto polarization.

    The input rides mode one into the balanced beam splitter together with
    the coherent half of the channel; the parity readout discriminates all
    four Bell-like outcomes, each fixed by a Pauli on the polarization side.
    Only the no-click outcome fails.
    """
    return _pipeline(Direction.C_TO_P, inp, params, dim, channel)


def teleport_p_to_s(inp: BlochInput, params: ChannelParams,
                    channel: DensityOperator | None = None) -> np.ndarray:
    """Teleport a polarization qubit onto the single-rail qubit.

    Success outcomes are the two Bell states whose corrections are trivial
    (identity) or a phase shift on the single-rail mode; the bit-flip pair
    and the loss-detected vacuum branch fail.
    """
    return _pipeline(Direction.P_TO_S, inp, params, channel=channel)


def teleport_s_to_p(inp: BlochInput, params: ChannelParams,
                    channel: DensityOperator | None = None) -> np.ndarray:
    """Teleport a single-rail qubit onto polarization.

    After a balanced beam splitter the two single-photon Bell states map to a
    photon in one detector or the other, so exactly those two outcomes are
    discriminated; everything else is an unresolved failure.
    """
    return _pipeline(Direction.S_TO_P, inp, params, channel=channel)


def _postselect(output: np.ndarray) -> tuple[np.ndarray, float]:
    """Project a polarization output onto its photon-present subspace.

    Returns the renormalized copy and the kept probability, the photon-present
    populations <H|rho|H> + <V|rho|V>; unlike 1 - <vac|rho|vac>, that sum does
    not cancel as t -> 0. The additional protocol overhead (factor t^2/2 on the
    success probability) is applied by the averaging layer, not here.
    """
    mat = output.copy()
    kept = float(mat[H_IDX, H_IDX].real + mat[V_IDX, V_IDX].real)
    if kept <= 0.0:
        raise ValueError("no photon-present population to keep")
    mat[VAC_IDX, :] = mat[:, VAC_IDX] = 0.0
    mat /= kept
    return mat, kept


# ---------------------------------------------------------------------------
# targets and closed-form per-input quantities


def _target_amplitudes(direction: Direction, inp: BlochInput, params: ChannelParams,
                       dim: int) -> np.ndarray:
    """Amplitudes of the state a direction's output is compared against, on its kept mode.

    Field-like coherent targets use the decayed (dynamic) basis |±t alpha>
    with t treated as known; all other targets are the bare input qubit.
    """
    if direction is Direction.P_TO_C:
        even, odd = _cat_parts(params.t * params.alpha, dim)[0]
        v = inp.a * (even + odd) + inp.b * (even - odd)
        return v / np.linalg.norm(v)
    return np.array((inp.a, inp.b) + (0.0,) * (dim - 2), dtype=complex)  # H, V or |0>, |1>


def _bloch_terms(theta, phi) -> tuple:
    """|a|^2, |b|^2, u = 2 Re(a b*) and |a + b|^2 of Bloch angles; scalars or arrays."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    a = np.cos(theta / 2) * np.exp(1j * phi / 2)
    b = np.sin(theta / 2) * np.exp(-1j * phi / 2)
    return abs(a) ** 2, abs(b) ** 2, 2.0 * (a * b.conjugate()).real, abs(a + b) ** 2


def fidelity_kernel(direction: Direction, terms: tuple, params: ChannelParams,
                    postselected: bool = False):
    """Per-input fidelity of :func:`_bloch_terms`, one minus a nonnegative infidelity."""
    check_postselection(direction, postselected)
    p, q2, _, w = terms
    t = params.t
    if direction is Direction.P_TO_C:
        # 1 - F = 2 (1 - s^2)(1 - q)|a|^2|b|^2 / ((1 + s u)(1 + q s u)) with
        # 1 + u = |a + b|^2 and the gaps through expm1: every term is nonnegative,
        # so the odd-cat input (u -> -1) stays exact as alpha -> 0
        s = params.basis_overlap
        gap_s, gap_q = params.basis_gap, params.coherence_gap
        norm = (gap_s + s * w) * (gap_s + s * gap_q + params.coherence_factor * s * w)
        return 1.0 - 2.0 * gap_s * (1.0 + s) * gap_q * p * q2 / norm
    if direction is Direction.P_TO_S:
        return 1.0 - ((1.0 - t * t) * q2 * q2 + (1.0 - t) ** 2 * p * q2)
    # onto polarization, postselected; a photon that did not arrive scales it by t^2
    if direction is Direction.C_TO_P:
        fidelity = 1.0 - 2.0 * params.coherence_gap * p * q2
    else:
        fidelity = 1.0 - q2 * (1.0 - t) * (1.0 + t - 2.0 * t * p) / (t * t * p + (2.0 - t * t) * q2)
    return fidelity if postselected else t * t * fidelity


def _branch_probabilities(direction: Direction, terms: tuple, params: ChannelParams) -> tuple:
    """Closed-form probabilities of ``_OUTCOMES[direction]`` in order, from :func:`_bloch_terms`."""
    p, q2, u, w = terms
    t2 = params.t ** 2
    if direction is Direction.P_TO_C:
        mod = params.coherence_factor * params.basis_overlap
        plus = t2 * (1.0 + mod * u) / 4.0
        minus = t2 * (1.0 - mod * u) / 4.0
        return plus, minus, plus, minus, 1.0 - t2
    if direction is Direction.C_TO_P:
        # 1 - s through expm1 and 1 + u = |a + b|^2 keep the odd-cat input (u -> -1) exact
        s = params.basis_overlap
        gap = params.basis_gap
        no_click = s * w
        norm = no_click + gap  # 1 + s u
        even = gap * gap / (4.0 * norm)
        odd = gap * (1.0 + s) / (4.0 * norm)
        return even, odd, even, odd, no_click / norm
    if direction is Direction.P_TO_S:
        return (t2 / 4.0,) * 4 + (1.0 - t2,)
    half = (t2 * p + (2.0 - t2) * q2) / 4.0
    return half, half, 1.0 - 2.0 * half


def success_kernel(direction: Direction, terms: tuple, params: ChannelParams,
                   postselected: bool = False):
    """Per-input success probability of :func:`_bloch_terms`: the sum of the success branches."""
    check_postselection(direction, postselected)
    probs = _branch_probabilities(direction, terms, params)
    total = sum(probs[i] for i in _SUCCESS[direction])
    if postselected:
        total = total * (params.t * params.t / 2.0)
    return np.broadcast_to(total, np.shape(terms[0])).copy()


def _outcome_records(direction: Direction, probs) -> list[dict]:
    """One record per branch of ``_OUTCOMES[direction]``, in order, with its probability."""
    return [{"label": label, "probability": prob, "correction": correction, "success": success}
            for prob, (label, correction, success) in zip(probs, _OUTCOMES[direction])]


def closed_summary(direction: Direction, inp: BlochInput, params: ChannelParams,
                   postselected: bool = False) -> dict:
    """The closed forms' answer for one input, in the keys :func:`pipeline_summary` shares.

    Returns the ``fidelity`` and ``success_probability`` (postselected when
    asked) and the ``outcomes``, every branch with its probability.
    """
    terms = _bloch_terms(inp.theta, inp.phi)
    return {
        "fidelity": float(fidelity_kernel(direction, terms, params, postselected)),
        "success_probability": float(success_kernel(direction, terms, params, postselected)),
        "outcomes": _outcome_records(direction, _branch_probabilities(direction, terms, params)),
    }


def pipeline_summary(
    direction: Direction,
    inp: BlochInput,
    params: ChannelParams,
    dim: int | None = None,
    channel: DensityOperator | None = None,
    postselected: bool = False,
) -> dict:
    """Run the pipeline, looked up at call time, and reduce its branch stack.

    Returns the ``stack``, its traces as ``probabilities``, the ``outcomes`` as
    :func:`closed_summary` lists them, the success mixture (postselected when
    asked) as the read-only (k, k) ``output`` on the kept mode, and its
    ``success_probability`` and ``fidelity`` to the target; a success
    probability that is not positive, NaN included, raises ValueError.
    """
    check_postselection(direction, postselected)
    if direction.coherent:
        run = teleport_p_to_c if direction is Direction.P_TO_C else teleport_c_to_p
        stack = run(inp, params, dim=dim, channel=channel)
    else:
        run = teleport_p_to_s if direction is Direction.P_TO_S else teleport_s_to_p
        stack = run(inp, params, channel=channel)

    kept_dim = stack.shape[-1]
    probs = np.einsum("lii->l", stack).real
    listed = probs.tolist()
    wins = _SUCCESS[direction]
    prob = sum(listed[i] for i in wins)
    if not prob > 0.0:  # NaN fails too
        raise ValueError(f"{direction.value} has {'zero' if prob == 0.0 else prob} success "
                         f"probability at t = {params.t:g}, alpha = {params.alpha:g}; its output "
                         f"state is undefined")
    output = np.take(stack, wins, axis=0).sum(axis=0) / prob
    if postselected:
        # the photon-arrival filter, then the gadget's Bell measurement
        output, kept = _postselect(output)
        prob = prob * kept * 0.5
    output.setflags(write=False)
    target = _target_amplitudes(direction, inp, params, kept_dim)
    return {
        "fidelity": _overlap_fidelity(target, output),
        "success_probability": prob,
        "outcomes": _outcome_records(direction, listed),
        "probabilities": probs,
        "stack": stack,
        "output": output,
    }
