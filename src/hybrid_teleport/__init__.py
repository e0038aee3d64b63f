"""Teleportation between polarization and field-mode optical qubits under photon loss.

Simulator plus closed-form library for the two hybrid entangled channels
(polarization with a coherent-state qubit, polarization with a vacuum/photon
qubit), their entanglement under amplitude damping, the four teleportation
directions, and Bloch-sphere averages of fidelity and success probability.
A brute-force truncated-Fock-space pipeline backs every closed form.
"""

from .channels import (
    ChannelParams,
    evolve,
    hybrid_pc_initial,
    hybrid_ps_initial,
    rho_pc_analytic,
    rho_ps_analytic,
)
from .entanglement import (
    negativity_numeric,
    negativity_pc_closed,
    negativity_ps_analytic,
)
from .fock import (
    DensityOperator,
    LayoutError,
    ModeKind,
    ModeLayout,
    TruncationError,
    beam_splitter_50_50,
    coherent_ket,
    coherent_tail_mass,
    default_fock_dim,
    fock_mode,
    hermitian_eigenvalues,
    layout_of,
    parity_operator,
    partial_transpose,
    polarization_mode,
    qubit_mode,
    trace_distance,
)
from .averages import (
    QuadratureSpec,
    avg_fidelity,
    avg_fidelity_quadrature,
    avg_success_probability,
    avg_success_quadrature,
    bloch_average,
    classical_limit,
    classical_limit_quadrature,
    fidelity_gap_large_alpha,
    moment_integral,
)
from .teleport import (
    BlochInput,
    Direction,
    closed_summary,
    pipeline_summary,
    teleport_c_to_p,
    teleport_p_to_c,
    teleport_p_to_s,
    teleport_s_to_p,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "evolve",
    "hybrid_pc_initial",
    "hybrid_ps_initial",
    "rho_pc_analytic",
    "rho_ps_analytic",
    "negativity_numeric",
    "negativity_pc_closed",
    "negativity_ps_analytic",
    "DensityOperator",
    "LayoutError",
    "ModeKind",
    "ModeLayout",
    "TruncationError",
    "beam_splitter_50_50",
    "coherent_ket",
    "coherent_tail_mass",
    "default_fock_dim",
    "fock_mode",
    "hermitian_eigenvalues",
    "layout_of",
    "parity_operator",
    "partial_transpose",
    "polarization_mode",
    "qubit_mode",
    "trace_distance",
    "QuadratureSpec",
    "avg_fidelity",
    "avg_fidelity_quadrature",
    "avg_success_probability",
    "avg_success_quadrature",
    "bloch_average",
    "classical_limit",
    "classical_limit_quadrature",
    "fidelity_gap_large_alpha",
    "moment_integral",
    "BlochInput",
    "Direction",
    "closed_summary",
    "pipeline_summary",
    "teleport_c_to_p",
    "teleport_p_to_c",
    "teleport_p_to_s",
    "teleport_s_to_p",
]
