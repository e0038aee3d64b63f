"""Dense complex linear algebra over truncated Fock spaces and small optical modes.

States and operators are numpy arrays tagged with a :class:`ModeLayout` that
records the tensor factors, so multi-mode reshapes (partial trace, partial
transpose) stay explicit. Every value is immutable after construction and
every operation is a pure function, so everything here is safe to evaluate
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Basis order of the lossy polarization mode.
H_IDX, V_IDX, VAC_IDX = 0, 1, 2

COHERENT_TAIL_TOL = 1e-10


class TruncationError(ValueError):
    """Fock-space cutoff too small for the requested coherent amplitude."""


class LayoutError(ValueError):
    """Operands tagged with incompatible mode layouts."""


@dataclass(frozen=True)
class ModeKind:
    """One tensor factor of a composite Hilbert space.

    ``label`` is one of ``"polarization"`` (basis {|H>, |V>, |vac>}, always
    3-dimensional), ``"fock"`` (number basis |0>..|dim-1>) or ``"qubit"``
    (basis {|0>, |1>}, always 2-dimensional).
    """

    label: str
    dim: int

    def __post_init__(self) -> None:
        if self.label == "polarization":
            if self.dim != 3:
                raise ValueError("polarization mode is exactly 3-dimensional")
        elif self.label == "qubit":
            if self.dim != 2:
                raise ValueError("qubit mode is exactly 2-dimensional")
        elif self.label == "fock":
            if self.dim < 2:
                raise ValueError("fock mode needs dim >= 2")
        else:
            raise ValueError(f"unknown mode kind {self.label!r}")


def polarization_mode() -> ModeKind:
    return ModeKind("polarization", 3)


def fock_mode(dim: int) -> ModeKind:
    return ModeKind("fock", int(dim))


def qubit_mode() -> ModeKind:
    return ModeKind("qubit", 2)


@dataclass(frozen=True)
class ModeLayout:
    """Ordered tensor factors of a composite space."""

    modes: tuple[ModeKind, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ValueError("layout needs at least one mode")

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.dim for m in self.modes)

    @cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.modes)

    def select(self, indices) -> "ModeLayout":
        return ModeLayout(tuple(self.modes[i] for i in indices))


def layout_of(*modes: ModeKind) -> ModeLayout:
    return ModeLayout(tuple(modes))


def _check_same_layout(a, b) -> None:
    if a.layout != b.layout:
        raise LayoutError(f"layout mismatch: {a.layout} vs {b.layout}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state: complex amplitude vector tagged with its layout.

    States compare and hash by identity, as :class:`DensityOperator` does.
    """

    layout: ModeLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.layout.total_dim,):
            raise LayoutError(
                f"amplitude length {amps.shape} does not match layout dim "
                f"{self.layout.total_dim}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n < 1e-150:
            raise ValueError("cannot normalize a (numerically) zero state")
        return StateVector(self.layout, self.amplitudes / n)

    def density(self) -> "DensityOperator":
        return DensityOperator(
            self.layout, np.outer(self.amplitudes, self.amplitudes.conj())
        )


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Dense Hermitian PSD operator tagged with its layout.

    The matrix is a private read-only copy, so values derived from it once,
    such as the teleport readout maps, stay valid for the operator's lifetime.
    Operators compare and hash by identity, so such values can be keyed by
    operator.
    """

    layout: ModeLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        d = self.layout.total_dim
        if mat.shape != (d, d):
            raise LayoutError(f"matrix shape {mat.shape} does not match layout dim {d}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def basis_ket(kind: ModeKind, index: int) -> StateVector:
    """Single-mode computational basis vector |index>."""
    if not 0 <= index < kind.dim:
        raise ValueError(f"basis index {index} out of range for dim {kind.dim}")
    v = np.zeros(kind.dim, dtype=complex)
    v[index] = 1.0
    return StateVector(layout_of(kind), v)


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


def coherent_ket(amplitude: float, dim: int) -> StateVector:
    """Truncated coherent state of real amplitude on a Fock(dim) mode.

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
    return StateVector(layout_of(fock_mode(dim)), c / np.linalg.norm(c))


def default_fock_dim(alpha: float) -> int:
    """Truncation rule: even cutoff with coherent tail < 1e-10 up to sqrt(2)*alpha."""
    d = max(16, math.ceil(2 * alpha * alpha + 8 * alpha + 12))
    return d + (d % 2)


def tensor(a, b):
    """Kronecker product with concatenated layout (states or density operators)."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(
            ModeLayout(a.layout.modes + b.layout.modes),
            np.kron(a.amplitudes, b.amplitudes),
        )
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(
            ModeLayout(a.layout.modes + b.layout.modes),
            np.kron(a.matrix, b.matrix),
        )
    raise TypeError("tensor requires two StateVectors or two DensityOperators")


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out all modes not listed in ``keep`` (kept modes stay in order)."""
    n = len(rho.layout)
    keep = tuple(sorted({int(k) for k in keep}))
    if not keep:
        raise ValueError("keep must be a nonempty set of mode indices")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"mode index out of range in keep={keep}")
    dims = rho.layout.dims
    tensor_form = rho.matrix.reshape(dims + dims)
    ket = list(range(n))
    bra = [i if i not in keep else n + i for i in range(n)]
    out = list(keep) + [n + i for i in keep]
    reduced = np.einsum(tensor_form, ket + bra, out)
    d = math.prod(dims[k] for k in keep)
    return DensityOperator(rho.layout.select(keep), reduced.reshape(d, d))


def partial_transpose(rho: DensityOperator, mode: int) -> np.ndarray:
    """Transpose one tensor factor; returns a plain (Hermitian) matrix."""
    n = len(rho.layout)
    if not 0 <= mode < n:
        raise ValueError(f"mode index {mode} out of range")
    dims = rho.layout.dims
    full = rho.matrix.reshape(dims + dims)
    swapped = np.swapaxes(full, mode, n + mode)
    d = rho.layout.total_dim
    return np.ascontiguousarray(swapped.reshape(d, d))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending real spectrum of the symmetrized (M + M^dag)/2.

    Raises ValueError when M is not Hermitian within 1e-10.
    """
    m = np.asarray(m, dtype=complex)
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > 1e-10:
        raise ValueError(f"matrix not Hermitian within 1e-10: defect {defect:.3e}")
    return np.linalg.eigvalsh((m + m.conj().T) / 2)


def beam_splitter_sector(dim: int, photons: int) -> tuple[np.ndarray, np.ndarray]:
    """One photon-number sector of the balanced beam splitter on Fock(dim) x Fock(dim).

    Returns ``(states, block)``: the flattened indices n1 * dim + n2 of the
    states (n1, photons - n1) inside the cut, in ascending n1, and the
    unitary block on them. The generator (pi/4)(a1^dag a2 - a1 a2^dag)
    conserves N = n1 + n2 and is a real tridiagonal block on each sector,
    with off-diagonal (pi/4) sqrt((n1 + 1)(N - n1)); it is exponentiated
    through an eigendecomposition of its Hermitian form, so the block is
    unitary to roundoff (Campos, Saleh & Teich, PRA 40, 1371, 1989).
    Sectors with N < dim are exact; those above the cut miss the states
    beyond it and equal the exponential of the truncated generator there.
    """
    if dim < 2:
        raise ValueError("fock mode needs dim >= 2")
    if not 0 <= photons <= 2 * dim - 2:
        raise ValueError(f"photon number {photons} outside 0..{2 * dim - 2} for dim {dim}")
    n1 = np.arange(max(0, photons - dim + 1), min(photons, dim - 1) + 1)
    off = (np.pi / 4) * np.sqrt((n1[:-1] + 1.0) * (photons - n1[:-1]))
    generator = np.diag(off, k=-1) - np.diag(off, k=1)
    w, v = np.linalg.eigh(1j * generator)
    return n1 * dim + (photons - n1), (v * np.exp(-1j * w)) @ v.conj().T


@lru_cache(maxsize=8)
def beam_splitter_50_50(dim: int) -> np.ndarray:
    """Balanced beam-splitter unitary on Fock(dim) x Fock(dim), as a dense matrix.

    Block-diagonal in the total photon number; each block is
    :func:`beam_splitter_sector`. Coherent inputs transform as
    |g1, g2> -> |(g1+g2)/sqrt(2), (g2-g1)/sqrt(2)>; in particular
    |b, b> -> |sqrt(2) b, 0> and |b, -b> -> |0, -sqrt(2) b>.
    """
    if dim < 2:
        raise ValueError("fock mode needs dim >= 2")
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for total in range(2 * dim - 1):
        states, block = beam_splitter_sector(dim, total)
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

    Raises ValueError when a - b is not Hermitian within 1e-10.
    """
    _check_same_layout(a, b)
    return float(0.5 * np.sum(np.abs(hermitian_eigenvalues(a.matrix - b.matrix))))
