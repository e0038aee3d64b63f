"""Teleportation protocols between polarization and field-mode qubits.

Each of the four directions has a numeric pipeline and closed forms for the
per-input fidelity and branch probabilities. One outcome table lists each
direction's branches as (label, correction, success); both engines read it,
and the success probability is the sum of the success branches. Pipelines
read outcomes through rows: Bell bras on a polarization pair, the parity
readout rows of a balanced beam splitter on a coherent pair, single-photon Bell
bras on a single-rail pair. The remainder, the outcome without rows, makes the
probabilities sum to one. Each pipeline returns its corrected, unnormalized
branches as one read-only (outcomes, d, d) stack in table order; a branch's
probability is its trace.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from weakref import WeakKeyDictionary

import numpy as np

from .channels import ChannelParams, evolve, hybrid_pc_initial, hybrid_ps_initial
from .fock import (
    H_IDX,
    V_IDX,
    VAC_IDX,
    DensityOperator,
    ModeLayout,
    StateVector,
    _overlap_fidelity,
    beam_splitter_sector,
    coherent_ket,
    default_fock_dim,
    fock_mode,
    layout_of,
    parity_operator,
    partial_trace,
    polarization_mode,
    qubit_mode,
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


def bell_state_polarization(i: int) -> StateVector:
    """Bell state i of a polarization pair, embedded in the lossy 3x3 space.

    1: (|HH>+|VV>)/sqrt2, 2: (|HH>-|VV>)/sqrt2,
    3: (|HV>+|VH>)/sqrt2, 4: (|HV>-|VH>)/sqrt2.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("Bell index must be 1..4")
    v = np.zeros((3, 3), dtype=complex)
    first, second = ((H_IDX, H_IDX), (V_IDX, V_IDX)) if i < 3 else ((H_IDX, V_IDX), (V_IDX, H_IDX))
    v[first] = 1.0
    v[second] = 1.0 if i in (1, 3) else -1.0
    return StateVector(layout_of(polarization_mode(), polarization_mode()), v.reshape(-1) / math.sqrt(2))


_BELL_BRAS = {label: bell_state_polarization(i).amplitudes.conj()
              for i, label in enumerate(("bell_phi_plus", "bell_phi_minus",
                                         "bell_psi_plus", "bell_psi_minus"), start=1)}
# single-photon Bell bras (|10> +/- |01>)/sqrt2 over (input, channel), flattened
_SINGLE_PHOTON_BRAS = {
    "bell_psi_plus": np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2),
    "bell_psi_minus": np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2),
}


@lru_cache(maxsize=8)
def _parity_readout(dim: int) -> MappingProxyType:
    """Beam-splitter rows each parity outcome keeps, over flattened (n_first, n_second).

    Every outcome leaves at least one arm empty, so it keeps rows (N, 0) or
    (0, N) with N < dim. Those lie in the exact sectors of the beam splitter,
    each row on its own sector only, so they are built from the sector blocks
    into two read-only (dim, dim^2) arrays, never the dense unitary. The
    outcome blocks are strided views of them.
    """
    if dim % 2 != 0:
        raise ValueError("parity readout needs an even truncation dimension")
    first = np.zeros((dim, dim * dim), dtype=complex)  # rows (N, 0)
    second = np.zeros((dim, dim * dim), dtype=complex)  # rows (0, N)
    for photons in range(dim):
        states, block = beam_splitter_sector(dim, photons)  # states in ascending n_first
        first[photons, states] = block[-1]
        second[photons, states] = block[0]
    first.setflags(write=False)
    second.setflags(write=False)
    return MappingProxyType({
        "first_even": first[2::2],  # n_first = 2, 4, ..., n_second = 0
        "first_odd": first[1::2],  # n_first = 1, 3, ..., n_second = 0
        "second_even": second[2::2],  # n_first = 0, n_second = 2, 4, ...
        "second_odd": second[1::2],  # n_first = 0, n_second = 1, 3, ...
        "no_click": first[:1],
    })


# correction unitaries on the kept mode; "parity_flip" is built per cutoff, and
# "identity" and the failures' "none" leave the branch as it is
_UNITARIES = {
    "phase_flip": np.diag([1.0, -1.0]).astype(complex),
    "pauli_z": np.diag([1.0, -1.0, 1.0]).astype(complex),
    "pauli_x": np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),
    "pauli_y": np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 1]], dtype=complex),
}


def _corrections(direction: Direction, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Each outcome's correction U as ``(gather, phases)`` over a stack of branch matrices.

    Every correction permutes the kept basis up to phases, U[i, order[i]] = u_i,
    so (U M U^dag)[i, j] = u_i conj(u_j) M[order[i], order[j]]: for a stack M
    of shape (outcomes, dim, dim), ``np.take(M, gather) * phases`` is each
    branch conjugated by its own correction, exactly.
    """
    unitaries = np.stack([parity_operator(dim) if correction == "parity_flip"
                          else _UNITARIES.get(correction, np.eye(dim, dtype=complex))
                          for _, correction, _ in _OUTCOMES[direction]])
    outcome, row, order = np.nonzero(unitaries)  # one nonzero per row, in row order
    u = unitaries[outcome, row, order].reshape(-1, dim)
    order = order.reshape(-1, dim)
    gather = (np.arange(len(order))[:, None, None] * dim * dim
              + order[:, :, None] * dim + order[:, None, :])
    phases = u[:, :, None] * u.conj()[:, None, :]
    gather.setflags(write=False)
    phases.setflags(write=False)
    return gather, phases


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
    mode of dimension k, of c_i conj(c_j). An outcome's readout rows collapse
    e_i to a_i[r, m] over (row, measured level), and its branch, linear in the
    channel rho, is read from a view of rho, with no factor of it that would
    lose the small components: the effect E_ij[m, M] = sum over r of a_i[r, m]
    conj(a_j[r, M]) traced against rho[m k, M K]. The outcomes with rows come
    first; the read-only (2, 2, k, k) leftover, <e_j|e_i> times the kept
    mode's reduced state minus their branches, is the branch of the outcome
    without rows where there is one, and for c->p, whose outcomes all have
    rows, what truncation leaves. Corrections (``_corrections``) are applied
    here, once. Returns ``(maps, leftover)``.
    """
    entry = _READOUT_MAPS.get(channel, {}).get((direction, beta))
    if entry is None:
        dims = channel.layout.dims
        # the channel mode measured jointly with the input, that readout's rows, and the basis
        if direction is Direction.C_TO_P:
            measured, rows, basis = 1, _parity_readout(dims[1]), _cat_parts(beta, dims[1])[0]
        elif direction is Direction.S_TO_P:
            measured, rows, basis = 1, _SINGLE_PHOTON_BRAS, _SUM_DIFF
        else:
            measured, rows, basis = 0, _BELL_BRAS, _SUM_DIFF @ np.eye(2, 3)
        kept = dims[1 - measured]
        # the channel over (measured, kept, measured, kept), a view
        rho = np.moveaxis(channel.matrix.reshape(dims + dims), (measured, 2 + measured), (0, 2))
        outcomes = _OUTCOMES[direction]
        detected = len(rows)
        mats = np.empty((2, 2, len(outcomes), kept, kept), dtype=complex)
        for i, (label, _, _) in enumerate(outcomes[:detected]):
            block = rows[label].reshape(-1, basis.shape[1], dims[measured])  # (rows, input, measured)
            collapsed = np.einsum("xi,rim->xrm", basis, block)
            # the outcome's effect on the measured mode between input levels x and y
            effect = collapsed.transpose(0, 2, 1)[:, None] @ collapsed.conj()[None]
            np.einsum("xymM,mkMK->xykK", effect, rho, out=mats[:, :, i])
        marginal = partial_trace(channel, {1 - measured}).matrix
        leftover = (np.multiply.outer(basis @ basis.conj().T, marginal)
                    - mats[:, :, :detected].sum(axis=2))
        mats[:, :, detected:] = leftover[:, :, None]  # the outcome without rows, if any
        gather, phases = _corrections(direction, kept)
        maps = np.take(mats.reshape(4, -1), gather.ravel(), axis=1)
        maps *= phases.ravel()  # in place: a second array of the maps' size raises peak memory
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
    minus the detected branches. The outcome without rows is positive for
    every input when this matrix is, and for c->p it shows that the detected
    branches take no more than the channel holds; a branch with rows
    compresses the positive channel, so it is positive anyway.
    """
    beta = params.t * params.alpha if direction is Direction.C_TO_P else 0.0
    leftover = _readout_maps(channel, direction, beta)[1]
    back = 2.0 * _SUM_DIFF  # c_i = sum_x back[i, x] (a, b)_x
    size = 2 * leftover.shape[-1]
    return np.einsum("ix,jy,ijmn->xmyn", back, back, leftover).reshape(size, size)


def _measure(channel: DensityOperator, direction: Direction, inp: BlochInput,
             beta: float) -> np.ndarray:
    """Measure the input jointly with one channel mode and correct the other.

    One product of the input's coefficient products with the channel's readout
    maps (:func:`_readout_maps`) at ``beta``; for c->p, the input is normalized
    by the even and odd parts' squared norms. Returns the corrected,
    unnormalized branches as one read-only (outcomes, d, d) stack in
    ``_OUTCOMES`` order; each branch's probability is its trace.
    """
    a, b = inp.a, inp.b
    x, y = a + b, a - b
    if direction is Direction.C_TO_P:
        _, (even, odd) = _cat_parts(beta, channel.layout.dims[1])
        norm = math.sqrt(abs(x) ** 2 * even + abs(y) ** 2 * odd)
        x, y = x / norm, y / norm
    cx, cy = x.conjugate(), y.conjugate()
    kept = channel.layout.dims[0 if direction.onto_polarization else 1]
    maps = _readout_maps(channel, direction, beta)[0]
    stack = (np.array((x * cx, x * cy, y * cx, y * cy)) @ maps).reshape(-1, kept, kept)
    stack.setflags(write=False)
    return stack


# ---------------------------------------------------------------------------
# pipelines


@lru_cache(maxsize=16)
def _decayed_basis(beta: float, dim: int) -> np.ndarray:
    """Read-only amplitudes of the decayed basis |beta> and |-beta> on Fock(dim), as two rows."""
    basis = np.stack([coherent_ket(beta, dim).amplitudes, coherent_ket(-beta, dim).amplitudes])
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=16)
def _cat_parts(beta: float, dim: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Read-only even and odd parts (|beta> ± |-beta>)/2 on Fock(dim), and their squared norms.

    The halves are exact and have disjoint supports, so they are exactly
    orthogonal: an input near the odd cat keeps its precision as beta -> 0,
    where |beta> and |-beta> are nearly parallel.
    """
    parts = _SUM_DIFF @ _decayed_basis(beta, dim)
    parts.setflags(write=False)
    return parts, (float(np.vdot(parts[0], parts[0]).real), float(np.vdot(parts[1], parts[1]).real))


def _default_pc_channel(params: ChannelParams, dim: int | None) -> DensityOperator:
    if dim is None:
        dim = default_fock_dim(params.alpha)
    return evolve(hybrid_pc_initial(params.alpha, dim).density(), params.t)


def teleport_p_to_c(
    inp: BlochInput,
    params: ChannelParams,
    dim: int | None = None,
    channel: DensityOperator | None = None,
) -> np.ndarray:
    """Teleport a polarization qubit onto the coherent-state qubit.

    The Bell measurement on the polarization pair identifies two of the four
    Bell states (chosen, via local gates, to be the pair whose corrections
    are implementable: identity and the coherent sign flip). The other two
    Bell outcomes and the loss-detected vacuum branch are failures.
    """
    if channel is None:
        channel = _default_pc_channel(params, dim)
    return _measure(channel, Direction.P_TO_C, inp, 0.0)


def teleport_c_to_p(
    inp: BlochInput,
    params: ChannelParams,
    dim: int | None = None,
    channel: DensityOperator | None = None,
) -> np.ndarray:
    """Teleport a coherent-state qubit (in the decayed basis) onto polarization.

    The input rides mode one into the balanced beam splitter together with
    the coherent half of the channel; the parity readout discriminates all
    four Bell-like outcomes, each fixed by a Pauli on the polarization side.
    Only the no-click outcome fails.
    """
    if channel is None:
        channel = _default_pc_channel(params, dim)
    if params.t * params.alpha <= 0.0:
        raise ValueError("c->p needs alpha > 0")
    # the beam splitter mixes (input, channel); each parity outcome keeps a block of its rows
    return _measure(channel, Direction.C_TO_P, inp, params.t * params.alpha)


def teleport_p_to_s(
    inp: BlochInput,
    params: ChannelParams,
    channel: DensityOperator | None = None,
) -> np.ndarray:
    """Teleport a polarization qubit onto the single-rail qubit.

    Success outcomes are the two Bell states whose corrections are trivial
    (identity) or a phase shift on the single-rail mode; the bit-flip pair
    and the loss-detected vacuum branch fail.
    """
    if channel is None:
        channel = evolve(hybrid_ps_initial().density(), params.t)
    return _measure(channel, Direction.P_TO_S, inp, 0.0)


def teleport_s_to_p(
    inp: BlochInput,
    params: ChannelParams,
    channel: DensityOperator | None = None,
) -> np.ndarray:
    """Teleport a single-rail qubit onto polarization.

    After a balanced beam splitter the two single-photon Bell states map to a
    photon in one detector or the other, so exactly those two outcomes are
    discriminated; everything else is an unresolved failure.
    """
    if channel is None:
        channel = evolve(hybrid_ps_initial().density(), params.t)
    return _measure(channel, Direction.S_TO_P, inp, 0.0)


def postselect_polarization(rho: DensityOperator) -> tuple[DensityOperator, float]:
    """Project a polarization state onto its photon-present subspace.

    Returns the renormalized state and the kept probability, the photon-present
    populations <H|rho|H> + <V|rho|V>; unlike 1 - <vac|rho|vac>, that sum does
    not cancel as t -> 0. The additional protocol overhead (factor t^2/2 on the
    success probability) is applied by the averaging layer, not here.
    """
    if len(rho.layout) != 1 or rho.layout.modes[0].label != "polarization":
        raise ValueError("postselection acts on a single polarization mode")
    mat = rho.matrix.copy()
    kept = float(mat[H_IDX, H_IDX].real + mat[V_IDX, V_IDX].real)
    if kept <= 0.0:
        raise ValueError("no photon-present population to keep")
    mat[VAC_IDX, :] = mat[:, VAC_IDX] = 0.0
    mat /= kept
    return DensityOperator(rho.layout, mat), kept


# ---------------------------------------------------------------------------
# targets and closed-form per-input quantities


@lru_cache(maxsize=8)
def _kept_layout(direction: Direction, dim: int) -> ModeLayout:
    """Layout of a direction's output mode, of dimension ``dim``."""
    if direction is Direction.P_TO_C:
        return layout_of(fock_mode(dim))
    return layout_of(polarization_mode() if direction.onto_polarization else qubit_mode())


def _target_amplitudes(direction: Direction, inp: BlochInput, params: ChannelParams,
                       dim: int) -> np.ndarray:
    """Amplitudes of the state a direction's output is compared against, on its kept mode.

    Field-like coherent targets use the decayed (dynamic) basis |±t alpha>
    with t treated as known; all other targets are the bare input qubit.
    """
    if direction is Direction.P_TO_C:
        plus, minus = _decayed_basis(params.t * params.alpha, dim)
        v = inp.a * plus + inp.b * minus
        return v / np.linalg.norm(v)
    return np.array((inp.a, inp.b) + (0.0,) * (dim - 2), dtype=complex)  # H, V or |0>, |1>


def _bloch_terms(a, b) -> tuple:
    """|a|^2, |b|^2, u = 2 Re(a b*) and |a + b|^2 of input amplitudes; scalars or arrays."""
    return abs(a) ** 2, abs(b) ** 2, 2.0 * (a * b.conjugate()).real, abs(a + b) ** 2


def _angle_terms(theta, phi) -> tuple:
    """:func:`_bloch_terms` of arrays of Bloch angles."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return _bloch_terms(np.cos(theta / 2) * np.exp(1j * phi / 2),
                        np.sin(theta / 2) * np.exp(-1j * phi / 2))


def _fidelity_from_terms(direction: Direction, terms: tuple, params: ChannelParams,
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


def fidelity_kernel(direction: Direction, theta, phi, params: ChannelParams,
                    postselected: bool = False):
    """Vectorized per-input fidelity; arrays of Bloch angles in, arrays out."""
    return _fidelity_from_terms(direction, _angle_terms(theta, phi), params, postselected)


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


def _success_from_terms(direction: Direction, terms: tuple, params: ChannelParams,
                        postselected: bool = False):
    """Per-input success probability of :func:`_bloch_terms`: the sum of the success branches."""
    check_postselection(direction, postselected)
    probs = _branch_probabilities(direction, terms, params)
    total = sum(probs[i] for i in _SUCCESS[direction])
    if postselected:
        total = total * (params.t * params.t / 2.0)
    return np.broadcast_to(total, np.shape(terms[0])).copy()


def success_kernel(direction: Direction, theta, phi, params: ChannelParams,
                   postselected: bool = False):
    """Vectorized per-input success probability: the sum of the success branches."""
    return _success_from_terms(direction, _angle_terms(theta, phi), params, postselected)


def per_input_fidelity(direction: Direction, inp: BlochInput, params: ChannelParams,
                       postselected: bool = False) -> float:
    return float(fidelity_kernel(direction, inp.theta, inp.phi, params, postselected))


def per_input_success_probability(direction: Direction, inp: BlochInput,
                                  params: ChannelParams,
                                  postselected: bool = False) -> float:
    return float(success_kernel(direction, inp.theta, inp.phi, params, postselected))


def _outcome_records(direction: Direction, probs) -> list[dict]:
    """One record per branch of ``_OUTCOMES[direction]``, in order, with its probability."""
    return [{"label": label, "probability": prob, "correction": correction, "success": success}
            for prob, (label, correction, success) in zip(probs, _OUTCOMES[direction])]


def branch_probabilities_analytic(direction: Direction, inp: BlochInput,
                                  params: ChannelParams) -> list[dict]:
    """Closed-form probabilities of every measurement branch (success and failure)."""
    return _outcome_records(direction,
                            _branch_probabilities(direction, _bloch_terms(inp.a, inp.b), params))


def pipeline_summary(
    direction: Direction,
    inp: BlochInput,
    params: ChannelParams,
    dim: int | None = None,
    channel: DensityOperator | None = None,
    postselected: bool = False,
) -> dict:
    """Run the pipeline, looked up at call time, and reduce its branch stack.

    Returns the ``stack``, its traces as ``probabilities``, the ``outcomes``
    as :func:`branch_probabilities_analytic` lists them, the success mixture
    (postselected when asked) as ``output``, and its ``success_probability``
    and ``fidelity`` to the target; a zero success probability raises ValueError.
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
    if prob <= 0.0:
        raise ValueError(f"{direction.value} has zero success probability at t = {params.t:g}, "
                         f"alpha = {params.alpha:g}; its output state is undefined")
    output = DensityOperator(_kept_layout(direction, kept_dim),
                             np.take(stack, wins, axis=0).sum(axis=0) / prob)
    if postselected:
        # the photon-arrival filter, then the gadget's Bell measurement
        output, kept = postselect_polarization(output)
        prob = prob * kept * 0.5
    target = _target_amplitudes(direction, inp, params, kept_dim)
    return {
        "fidelity": _overlap_fidelity(target, output.matrix),
        "success_probability": prob,
        "outcomes": _outcome_records(direction, listed),
        "probabilities": probs,
        "stack": stack,
        "output": output,
    }
