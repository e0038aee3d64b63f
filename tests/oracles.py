"""Independent oracles the tests check the library against.

Everything here is deliberately written from first principles (explicit index
loops, quadratic formulas, SVD, dense quadrature, scipy integration, dense
operators on the whole space) and never calls back into the code paths it
validates. The helpers at the end are test-only conveniences on amplitude
arrays and matrices, each given its tensor factors' dims where it needs them,
that the library itself does not need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc

from hybrid_teleport import fock as fk
from hybrid_teleport import teleport as tp


def poisson_tail(mean: float, k: int) -> float:
    """P(N >= k) for a Poisson law; the coherent tail mass beyond cutoff k."""
    return float(gammainc(k, mean))


def brute_partial_trace(mat: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """Partial trace by explicit index loops."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kdims = [dims[i] for i in keep]
    tdims = [dims[i] for i in traced]
    out = np.zeros((int(np.prod(kdims)), int(np.prod(kdims))), dtype=complex)
    full = mat.reshape(*dims, *dims)
    n = len(dims)
    for ki in np.ndindex(*kdims):
        for kj in np.ndindex(*kdims):
            acc = 0.0 + 0.0j
            for tt in np.ndindex(*tdims) if tdims else [()]:
                idx_i = [0] * n
                idx_j = [0] * n
                for pos, mode in enumerate(keep):
                    idx_i[mode] = ki[pos]
                    idx_j[mode] = kj[pos]
                for pos, mode in enumerate(traced):
                    idx_i[mode] = tt[pos]
                    idx_j[mode] = tt[pos]
                acc += full[tuple(idx_i) + tuple(idx_j)]
            out[np.ravel_multi_index(ki, kdims) if kdims else 0,
                np.ravel_multi_index(kj, kdims) if kdims else 0] = acc
    return out


def schmidt_negativity(psi: np.ndarray, d1: int, d2: int) -> float:
    """Negativity of a pure bipartite state: (sum of Schmidt values)^2 - 1."""
    s = np.linalg.svd(psi.reshape(d1, d2), compute_uv=False)
    return float(np.sum(s) ** 2 - 1.0)


def hybrid_pc_ket(alpha: float, dim: int) -> np.ndarray:
    """(|H>|a> + |V>|-a>)/sqrt(2) over (polarization, Fock(dim)), flattened, from the recurrence."""
    ket = np.zeros((3, dim), dtype=complex)
    ket[fk.H_IDX] = coherent_amps(alpha, dim)
    ket[fk.V_IDX] = coherent_amps(-alpha, dim)
    ket = ket.reshape(-1)
    return ket / np.linalg.norm(ket)


def sym2x2_eigs(a: float, c: float, b: float) -> tuple[float, float]:
    """Quadratic-formula spectrum of [[a, c], [c, b]], ascending."""
    mid = (a + b) / 2.0
    rad = np.sqrt(((a - b) / 2.0) ** 2 + c * c)
    return (mid - rad, mid + rad)


def sphere_average(f, n_theta: int = 256, n_phi: int = 512) -> float:
    """High-resolution uniform Bloch-sphere average, built independently."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi  # midpoint rule on phi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    vals = np.asarray(f(tt, pp), dtype=float)
    if vals.shape != tt.shape:
        vals = np.broadcast_to(vals, tt.shape)
    return float((w / 2.0) @ vals @ np.full(n_phi, 1.0 / n_phi))


def segment_average(f) -> float:
    """Average of f(p) with p = cos^2(theta/2) uniform on [0, 1] (scipy quad)."""
    val, err = quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return float(val)


def coherent_amps(amplitude: float, dim: int) -> np.ndarray:
    """Truncated coherent amplitudes from the factorial recurrence."""
    c = np.zeros(dim)
    c[0] = np.exp(-amplitude * amplitude / 2.0)
    for n in range(1, dim):
        c[n] = c[n - 1] * amplitude / np.sqrt(n)
    return c


def bell_state_coherent(i: int, beta: float, dim: int) -> np.ndarray:
    """Bell-like state i of a coherent pair, normalized, over (n1, n2) flattened.

    1: |b,b> + |-b,-b>, 2: |b,b> - |-b,-b>, 3: |b,-b> + |-b,b>, 4: |b,-b> - |-b,b>.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("Bell index must be 1..4")
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    plus = coherent_amps(beta, dim)
    minus = coherent_amps(-beta, dim)
    sign = 1.0 if i in (1, 3) else -1.0
    if i in (1, 2):
        v = np.outer(plus, plus) + sign * np.outer(minus, minus)
    else:
        v = np.outer(plus, minus) + sign * np.outer(minus, plus)
    v = v.reshape(-1).astype(complex)
    return v / np.linalg.norm(v)


def bell_state_polarization(i: int) -> np.ndarray:
    """Bell state i of a polarization pair, embedded in the lossy 3x3 space, flattened.

    1: (|HH>+|VV>)/sqrt2, 2: (|HH>-|VV>)/sqrt2,
    3: (|HV>+|VH>)/sqrt2, 4: (|HV>-|VH>)/sqrt2.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("Bell index must be 1..4")
    h, v = fk.H_IDX, fk.V_IDX
    ket = np.zeros((3, 3), dtype=complex)
    first, second = ((h, h), (v, v)) if i < 3 else ((h, v), (v, h))
    ket[first] = 1.0
    ket[second] = 1.0 if i in (1, 3) else -1.0
    return ket.reshape(-1) / math.sqrt(2)


def parity_projectors(dim: int) -> tuple[np.ndarray, ...]:
    """The five projectors of the coherent Bell analyzer over (n1, n2), as diagonal matrices.

    Photons bunch into one output of the balanced beam splitter, so the
    outcomes are: even >= 2 photons in the first arm and vacuum in the
    second, odd in the first and vacuum in the second, the same two for the
    second arm, and the no-click outcome |00><00|.
    """
    if dim % 2 != 0:
        raise ValueError("parity readout needs an even truncation dimension")
    masks = np.zeros((5, dim, dim))
    for n in range(1, dim):
        odd = n % 2
        masks[odd, n, 0] = 1.0
        masks[2 + odd, 0, n] = 1.0
    masks[4, 0, 0] = 1.0
    return tuple(np.diag(m.reshape(-1).astype(complex)) for m in masks)


def beam_splitter_dense(dim: int) -> np.ndarray:
    """Balanced beam splitter from one dense eigendecomposition of the d^2 x d^2 generator."""
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    generator = (np.pi / 4) * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
    w, v = np.linalg.eigh(1j * generator)
    return (v * np.exp(-1j * w)) @ v.conj().T


def parity_outcome_states(dim: int) -> dict[str, list[tuple[int, int]]]:
    """(n_first, n_second) of each c->p outcome's rows, in outcome order: one arm empty, N < dim."""
    odd, even = range(1, dim, 2), range(2, dim, 2)
    return {"first_even": [(n, 0) for n in even], "first_odd": [(n, 0) for n in odd],
            "second_even": [(0, n) for n in even], "second_odd": [(0, n) for n in odd],
            "no_click": [(0, 0)]}


def parity_readout_dense(dim: int) -> dict[str, np.ndarray]:
    """Each c->p outcome's rows of the dense ``fk.beam_splitter_50_50``, over flattened (n1, n2)."""
    u = fk.beam_splitter_50_50(dim)
    return {label: u[[n1 * dim + n2 for n1, n2 in states]]
            for label, states in parity_outcome_states(dim).items()}


def beam_splitter_edge_row(photons: int, first_arm: bool = True) -> np.ndarray:
    """<N, 0|U|n1, N - n1> (first arm) or <0, N|U|n1, N - n1> over n1 = 0..N, by math.comb.

    The coherent convention |g1, g2> -> |(g1+g2)/sqrt2, (g2-g1)/sqrt2> means
    U a1^dag U^dag = (b1^dag - b2^dag)/sqrt2 and U a2^dag U^dag =
    (b1^dag + b2^dag)/sqrt2. Expanding a1^dag^n1 a2^dag^(N-n1)|0> / sqrt(n1! (N-n1)!)
    leaves sqrt(C(N, n1) / 2^N) on |N, 0> and (-1)^n1 times it on |0, N>.
    """
    return np.array([(1.0 if first_arm else (-1.0) ** n1)
                     * math.sqrt(math.comb(photons, n1) / 2 ** photons)
                     for n1 in range(photons + 1)])


def damping_kraus_dense(mode: int, dim: int, t: float) -> list[np.ndarray]:
    """Photon-loss Kraus family of one channel mode, entry by entry into dense operators.

    Mode 0, polarization, keeps H and V with amplitude t and sends each to the
    vacuum level with sqrt(1 - t^2); mode 1, Fock(dim), takes the
    amplitude-damping ladder with eta = t^2. All-zero operators are dropped.
    """
    if mode == 0:
        k0 = np.diag([t, t, 1.0]).astype(complex)
        k1 = np.zeros((3, 3), dtype=complex)
        k1[fk.VAC_IDX, fk.H_IDX] = math.sqrt(1.0 - t * t)
        k2 = np.zeros((3, 3), dtype=complex)
        k2[fk.VAC_IDX, fk.V_IDX] = math.sqrt(1.0 - t * t)
        ops = [k0, k1, k2]
    else:
        d = dim
        eta = t * t
        ops = []
        for k in range(d):
            kk = np.zeros((d, d), dtype=complex)
            for n in range(k, d):
                kk[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
            ops.append(kk)
    return [k for k in ops if np.any(k)]


def evolve_dense(mat: np.ndarray, dims: tuple[int, int], t: float) -> np.ndarray:
    """Photon loss on both channel modes, each Kraus operator embedded with kron.

    ``mat`` is a matrix on polarization x Fock(dims[1]). It takes the families
    of :func:`damping_kraus_dense` and checks how ``channels.evolve`` applies
    them.
    """
    def embed(op, dims, mode):
        left = np.eye(math.prod(dims[:mode]))
        right = np.eye(math.prod(dims[mode + 1:]))
        return np.kron(np.kron(left, op), right)

    for mode, dim in enumerate(dims):
        kraus = (embed(k, dims, mode) for k in damping_kraus_dense(mode, dim, t))
        mat = sum(k @ mat @ k.conj().T for k in kraus)
    return mat


def diagonal_run(op: np.ndarray) -> tuple[slice, slice, np.ndarray]:
    """Row run, column run and values of an operator whose nonzeros are one diagonal run.

    Read off the dense operator with ``np.nonzero``; raises ValueError for any
    other operator.
    """
    rows, cols = np.nonzero(op)
    if rows.size == 0 or np.any(cols - rows != cols[0] - rows[0]) \
            or rows[-1] - rows[0] != rows.size - 1:
        raise ValueError("loss operator is not one contiguous diagonal run")
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1), op[rows, cols]


def rho_pc_kron(params, dim: int) -> np.ndarray:
    """The closed-form polarization/coherent channel's matrix as a sum of four dense krons."""
    def dyad(i, j):
        m = np.zeros((3, 3), dtype=complex)
        m[i, j] = 1.0
        return m

    t, q = params.t, params.coherence_factor
    plus = fk.coherent_ket(t * params.alpha, dim)
    minus = fk.coherent_ket(-t * params.alpha, dim)
    dy_pp = np.outer(plus, plus.conj())
    dy_mm = np.outer(minus, minus.conj())
    dy_pm = np.outer(plus, minus.conj())
    h, v, vac = fk.H_IDX, fk.V_IDX, fk.VAC_IDX
    t2 = t * t
    mat = 0.5 * (
        np.kron(t2 * dyad(h, h) + (1 - t2) * dyad(vac, vac), dy_pp)
        + np.kron(t2 * dyad(v, v) + (1 - t2) * dyad(vac, vac), dy_mm)
        + t2 * q * (np.kron(dyad(h, v), dy_pm) + np.kron(dyad(v, h), dy_pm.conj().T))
    )
    return mat


def rho_ps_kron(params) -> np.ndarray:
    """The closed-form polarization/single-rail channel's matrix as a sum of four dense krons."""
    def dyad(n, i, j):
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = 1.0
        return m

    h, v, vac = fk.H_IDX, fk.V_IDX, fk.VAC_IDX
    t = params.t
    t2 = t * t
    dy0, dy1, dy01 = dyad(2, 0, 0), dyad(2, 1, 1), dyad(2, 0, 1)
    mat = 0.5 * (
        np.kron(t2 * dyad(3, h, h) + (1 - t2) * dyad(3, vac, vac), dy0)
        + np.kron(t2 * dyad(3, v, v) + (1 - t2) * dyad(3, vac, vac), t2 * dy1 + (1 - t2) * dy0)
        + t ** 3 * (np.kron(dyad(3, h, v), dy01) + np.kron(dyad(3, v, h), dy01.conj().T))
    )
    return mat


def ensemble(rho) -> tuple[np.ndarray, np.ndarray]:
    """Spectral ensemble (weights, eigenvectors as columns) of the symmetrized matrix.

    Takes a channel or a bare matrix. Weights at or below 1e-13 are dropped as
    numerically zero.
    """
    m = _matrix(rho)
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    sel = w > 1e-13
    return w[sel], v[:, sel]


def _label_maps(channel, direction):
    """Each readout label's rows contracted with the channel's sqrt(weight)-scaled ensemble.

    Returns ``{label: (d_in, rows * branch * kept) map}`` in outcome order,
    and the kept mode's reduced state.
    """
    if direction is tp.Direction.C_TO_P:
        measured, rows = 1, parity_readout_dense(channel.dims[1])
    elif direction is tp.Direction.S_TO_P:
        measured, rows = 1, tp._SINGLE_PHOTON_BRAS
    else:
        measured, rows = 0, tp._BELL_BRAS
    w, vecs = ensemble(channel)
    chi = np.moveaxis(vecs.reshape(channel.dims + (-1,)), (measured, 2), (0, 1))
    chi = (chi * np.sqrt(w)[:, None]).reshape(len(chi), -1)
    maps = {}
    for label, _, _ in tp._OUTCOMES[direction]:
        block = rows[label].reshape(-1, rows[label].shape[-1] // len(chi), len(chi)) @ chi
        maps[label] = np.moveaxis(block, 1, 0).reshape(block.shape[1], -1)
    return maps, partial_trace(channel.matrix, channel.dims, {1 - measured})


def measure_per_label(channel, direction, input_amplitudes):
    """``teleport._pipeline`` on a given channel, one outcome at a time, with no cache.

    Each label's map (:func:`_label_maps`) collapses the input, and the branch
    is conjugated by the correction's dense unitary, as ``_readout_maps``
    conjugates it. It takes the library's Bell and single-photon bras, outcome
    table and correction unitaries, which have their own tests, and the c->p
    rows of the dense ``fk.beam_splitter_50_50`` (:func:`parity_readout_dense`),
    not the library's sector-stored readout; it checks how ``_pipeline``
    collapses, stacks and applies them. Returns the same (outcomes, d, d)
    stack of corrected, unnormalized branches.
    """
    maps, marginal = _label_maps(channel, direction)
    kept_dim = len(marginal)
    branches = []
    for label, correction, _ in tp._OUTCOMES[direction]:
        collapsed = (input_amplitudes @ maps[label]).reshape(-1, kept_dim)
        mat = collapsed.T @ collapsed.conj()
        unitary = tp._UNITARIES.get(correction)
        if correction == "parity_flip":
            unitary = fk.parity_operator(kept_dim)
        if unitary is not None:
            mat = unitary @ mat @ unitary.conj().T
        branches.append(mat)
    return np.stack(branches)


def remainder_choi(channel, direction, basis):
    """Choi matrix of what the readout rows leave, over (input level, kept level).

    ``basis`` holds the measured mode's two input levels e_0, e_1 as rows.
    Every label's rows collapse e_x to G_x, so the matrix is
    kron(<e_y|e_x>, marginal) - G^T conj(G) with G = [G_0 | G_1].
    """
    maps, marginal = _label_maps(channel, direction)
    kept = len(marginal)
    g = np.concatenate([(basis @ m).reshape(2, -1, kept) for m in maps.values()], axis=1)
    g = np.concatenate(g, axis=-1)
    return np.kron(basis @ basis.conj().T, marginal) - g.T @ g.conj()


# ---------------------------------------------------------------------------
# test-only helpers on the library's types


HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10


def pure(ket) -> np.ndarray:
    """The pure-state matrix |ket><ket|, complex."""
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def overlap(a, b) -> complex:
    """Inner product <a|b> of two amplitude vectors of one length."""
    if a.shape != b.shape:
        raise ValueError(f"amplitude shapes {a.shape} and {b.shape} differ")
    return complex(np.vdot(a, b))


def _matrix(rho) -> np.ndarray:
    """The matrix of a channel, or a bare matrix as it is."""
    return rho.matrix if isinstance(rho, fk.DensityOperator) else np.asarray(rho)


def trace(rho) -> float:
    return float(np.trace(_matrix(rho)).real)


def fidelity_pure(psi, rho) -> float:
    """Overlap <psi|rho|psi> of amplitudes and a matrix of their dimension, clamped to [0, 1]."""
    m = _matrix(rho)
    if m.shape != psi.shape * 2:
        raise ValueError(f"amplitude shape {psi.shape} does not match matrix shape {m.shape}")
    return fk._overlap_fidelity(psi, m)


def purity(rho) -> float:
    m = _matrix(rho)
    return float(np.trace(m @ m).real)


def hermiticity_defect(rho) -> float:
    m = _matrix(rho)
    return float(np.max(np.abs(m - m.conj().T)))


def min_eigenvalue(rho) -> float:
    m = _matrix(rho)
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def validate(rho, normalized: bool = True):
    """Check Hermiticity, positivity and (optionally) unit trace of rho or a matrix; return it."""
    herm = hermiticity_defect(rho)
    if herm > HERMITICITY_TOL:
        raise ValueError(f"not Hermitian: max |M - M^dag| = {herm:.3e}")
    lo = min_eigenvalue(rho)
    if lo < -EIGENVALUE_TOL:
        raise ValueError(f"not PSD: min eigenvalue = {lo:.3e}")
    if normalized and abs(trace(rho) - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {trace(rho)!r} != 1")
    return rho


def cat_ket(amplitude: float, sign: int, dim: int):
    """Normalized even (sign=+1) or odd (sign=-1) superposition of |±amplitude>."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign == -1 and amplitude == 0.0:
        raise ValueError("odd superposition of |0> and |0> is the zero state")
    plus = coherent_amps(amplitude, dim)
    minus = coherent_amps(-amplitude, dim)
    for c in (plus, minus):
        tail = 1.0 - float(c @ c)
        if tail > fk.COHERENT_TAIL_TOL:
            raise fk.TruncationError(f"coherent tail mass {tail:.3e} at dim={dim}")
    v = (plus + sign * minus).astype(complex)
    return v / np.linalg.norm(v)


def partial_trace(mat: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """Trace out of a matrix on ``dims`` all modes not in ``keep`` (kept modes stay in order)."""
    n = len(dims)
    keep = tuple(sorted({int(k) for k in keep}))
    if not keep:
        raise ValueError("keep must be a nonempty set of mode indices")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"mode index out of range in keep={keep}")
    tensor_form = mat.reshape(dims + dims)
    ket = list(range(n))
    bra = [i if i not in keep else n + i for i in range(n)]
    out = list(keep) + [n + i for i in keep]
    reduced = np.einsum(tensor_form, ket + bra, out)
    d = math.prod(dims[k] for k in keep)
    return reduced.reshape(d, d)


@dataclass(frozen=True)
class DecayFactors:
    """The two scalar factors every downstream closed form depends on."""

    coherence: float
    overlap: float

    @property
    def product(self) -> float:
        """coherence * overlap = exp(-2 alpha^2), independent of t."""
        return self.coherence * self.overlap


def decay_factors(params) -> DecayFactors:
    return DecayFactors(params.coherence_factor, params.basis_overlap)


def csv_text(header, rows) -> str:
    """CSV text formatted value by value, the reference for the CLI's CSV cells.

    Floats, subclasses included, take 12 significant digits; anything else is ``str``.
    """

    def cell(value) -> str:
        if isinstance(value, float):
            return format(value, ".12g")
        return str(value)

    return "\n".join([",".join(header)] + [",".join(cell(v) for v in row) for row in rows]) + "\n"
