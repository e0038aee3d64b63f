"""Dense complex linear algebra over truncated Fock spaces and small optical modes.

Pure states and operators are plain numpy arrays. Only channels carry a type,
the :class:`DensityOperator` on polarization x Fock(d), whose shape fixes its
two tensor factors, so reshapes such as the partial transpose stay explicit.
Every value is immutable after construction and every operation is a pure
function, so everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Basis order of the lossy polarization mode.
H_IDX, V_IDX, VAC_IDX = 0, 1, 2

COHERENT_TAIL_TOL = 1e-10


class TruncationError(ValueError):
    """Fock-space cutoff too small for the requested coherent amplitude."""


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A channel: a dense Hermitian PSD operator on polarization x Fock(d).

    The matrix is (3d, 3d) with d >= 2, indexed by (polarization level,
    photon number); its shape fixes both tensor factors. It is a private
    read-only copy, so values derived from it once, such as the teleport
    readout maps, stay valid for the operator's lifetime. Operators compare
    and hash by identity, so such values can be keyed by operator.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        side = mat.shape[0] if mat.ndim == 2 else 0
        if mat.shape != (side, side) or side % 3 or side < 6:
            raise ValueError(f"matrix shape {mat.shape} is not (3d, 3d) with d >= 2")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dims(self) -> tuple[int, int]:
        """(3, d): the polarization mode's and the field mode's dimensions."""
        return 3, len(self.matrix) // 3


# Cephes lgam: log(sqrt(2 pi)) and the Stirling correction coefficients.
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)


def _log_factorial(n: int) -> float:
    # the integer-argument path of Cephes lgam at x = n + 1, with the same
    # operations in the same order
    x = n + 1.0
    if x < 13.0:
        return math.log(float(math.factorial(n)))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _STIRLING[0]
    for c in _STIRLING[1:]:
        poly = poly * p + c
    return q + poly / x


@lru_cache(maxsize=8)
def _half_log_factorials(dim: int) -> np.ndarray:
    """Read-only log(sqrt(n!)) for n < dim.

    Bit for bit equal to ``0.5 * scipy.special.gammaln(np.arange(dim) + 1)``,
    because ``_log_factorial`` ports Cephes ``lgam``, without importing scipy.
    """
    table = 0.5 * np.array([_log_factorial(n) for n in range(dim)])
    table.setflags(write=False)
    return table


def _coherent_amplitudes(amplitude: float, dim: int) -> np.ndarray:
    """Unnormalized truncated coherent amplitudes c_n = e^{-a^2/2} a^n / sqrt(n!)."""
    if not math.isfinite(amplitude):
        raise ValueError(f"coherent amplitude must be finite, got {amplitude!r}")
    n = np.arange(dim)
    if amplitude == 0.0:
        c = np.zeros(dim)
        c[0] = 1.0
        return c
    log_c = -0.5 * amplitude * amplitude + n * np.log(abs(amplitude)) - _half_log_factorials(dim)
    c = np.exp(log_c)
    if amplitude < 0.0:
        c[1::2] *= -1.0
    return c


def coherent_tail_mass(amplitude: float, dim: int) -> float:
    """Probability weight of the coherent state beyond the truncation cut."""
    c = _coherent_amplitudes(amplitude, dim)
    return max(0.0, 1.0 - float(c @ c))


def coherent_ket(amplitude: float, dim: int) -> np.ndarray:
    """Truncated coherent state of real amplitude on Fock(dim), as read-only complex amplitudes.

    The amplitudes are renormalized after truncation; if the discarded tail
    mass exceeds ``COHERENT_TAIL_TOL`` the cutoff is too small and a
    :class:`TruncationError` is raised instead.
    """
    if dim < 2:
        raise ValueError("fock mode needs dim >= 2")
    c = _coherent_amplitudes(amplitude, dim)
    tail = 1.0 - float(c @ c)
    if tail > COHERENT_TAIL_TOL:
        raise TruncationError(
            f"coherent tail mass {tail:.3e} at dim={dim} exceeds {COHERENT_TAIL_TOL:g}; "
            f"increase the truncation for amplitude {amplitude!r}"
        )
    ket = (c / np.linalg.norm(c)).astype(complex)
    ket.setflags(write=False)
    return ket


def default_fock_dim(alpha: float) -> int:
    """Truncation rule: even cutoff with coherent tail < 1e-10 up to sqrt(2)*alpha."""
    d = max(16, math.ceil(2 * alpha * alpha + 8 * alpha + 12))
    return d + (d % 2)


def partial_transpose(rho: DensityOperator) -> np.ndarray:
    """Transpose the field mode; returns a plain (Hermitian) matrix."""
    dims = rho.dims
    swapped = np.swapaxes(rho.matrix.reshape(dims + dims), 1, 3)
    return np.ascontiguousarray(swapped.reshape(rho.matrix.shape))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending real spectrum of the symmetrized (M + M^dag)/2.

    Raises ValueError when M is not Hermitian within 1e-10; a NaN or infinite
    entry makes the defect NaN or infinite, so it fails too.
    """
    m = np.asarray(m, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the check below fails
        defect = float(np.max(np.abs(m - m.conj().T)))
    if not defect <= 1e-10:  # NaN fails too
        raise ValueError(f"matrix not finite and Hermitian within 1e-10: defect {defect:.3e}")
    return np.linalg.eigvalsh((m + m.conj().T) / 2)


@lru_cache(maxsize=8)
def beam_splitter_edge_rows(dim: int) -> np.ndarray:
    """Read-only (dim, dim) table of the beam splitter's rows (N, 0), N < dim.

    Row N holds <N, 0|U|n1, N - n1> = sqrt(C(N, n1) / 2^N) on n1 = 0..N and
    zeros beyond; row (0, N) is the same row times (-1)^n1. Each entry is
    the square root of the correctly rounded quotient of exact integers,
    the binomials taken from Pascal's triangle; no eigensolver is involved.
    """
    table = np.zeros((dim, dim))
    binomials = [1]
    for photons in range(dim):
        total = 1 << photons
        table[photons, :photons + 1] = [math.sqrt(c / total) for c in binomials]
        binomials = [1, *map(sum, zip(binomials, binomials[1:])), 1]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def beam_splitter_50_50(dim: int) -> np.ndarray:
    """Balanced beam-splitter unitary on Fock(dim) x Fock(dim), as a dense matrix.

    Coherent inputs transform as |g1, g2> -> |(g1+g2)/sqrt(2), (g2-g1)/sqrt(2)>;
    in particular |b, b> -> |sqrt(2) b, 0> and |b, -b> -> |0, -sqrt(2) b>.
    The generator (pi/4)(a1^dag a2 - a1 a2^dag) conserves N = n1 + n2 and is a
    real tridiagonal block on each sector, the states (n1, N - n1) inside the
    cut, with off-diagonal (pi/4) sqrt((n1 + 1)(N - n1)); each block is
    exponentiated through an eigendecomposition of its Hermitian form, so it
    is unitary to roundoff (Campos, Saleh & Teich, PRA 40, 1371, 1989).
    Sectors with N < dim are exact, and their two edge rows, (N, 0) last and
    (0, N) first, are overwritten with the exact binomial rows of
    :func:`beam_splitter_edge_rows`, which the parity readout reads; those
    above the cut miss the states beyond it and equal the exponential of the
    truncated generator there.
    """
    if dim < 2:
        raise ValueError("fock mode needs dim >= 2")
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    edge_rows = beam_splitter_edge_rows(dim)
    for photons in range(2 * dim - 1):
        n1 = np.arange(max(0, photons - dim + 1), min(photons, dim - 1) + 1)
        off = (np.pi / 4) * np.sqrt((n1[:-1] + 1.0) * (photons - n1[:-1]))
        generator = np.diag(off, k=-1) - np.diag(off, k=1)
        w, v = np.linalg.eigh(1j * generator)
        block = (v * np.exp(-1j * w)) @ v.conj().T
        if photons < dim:
            row = edge_rows[photons, :photons + 1]
            block[-1] = row
            block[0] = row * (-1.0) ** n1
        states = n1 * dim + (photons - n1)
        u[np.ix_(states, states)] = block
    u.setflags(write=False)
    return u


def parity_operator(dim: int) -> np.ndarray:
    """Photon-number parity (-1)^n; flips the sign of a coherent amplitude."""
    return np.diag((-1.0 + 0j) ** np.arange(dim))


def _overlap_fidelity(amplitudes: np.ndarray, matrix: np.ndarray) -> float:
    """Fidelity <psi|rho|psi> of bare amplitudes and matrix, clamped to [0, 1] after a check."""
    val = complex(amplitudes.conj() @ matrix @ amplitudes)
    if not (abs(val.imag) <= 1e-8 and -1e-8 <= val.real <= 1 + 1e-8):  # NaN fails too
        raise ValueError(f"fidelity {val!r} outside [0, 1] beyond tolerance")
    return float(min(1.0, max(0.0, val.real)))


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """(1/2) ||a - b||_1 for Hermitian a, b.

    Raises ValueError when the two differ in ``dims``, or when a - b is not
    finite and Hermitian within 1e-10.
    """
    if a.dims != b.dims:
        raise ValueError(f"dims differ: {a.dims} vs {b.dims}")
    return float(0.5 * np.sum(np.abs(hermitian_eigenvalues(a.matrix - b.matrix))))
