"""Secure quantum network coding on the butterfly network.

Exact qudit-level simulation of a two-message crossing protocol over F_p,
plus numerical certification that a single-edge wiretapper learns nothing
when the sink-side outcome exchange is one-time-padded, and a reproduction
of the explicit attack that works when the pad is dropped.
"""

from .adversary import (
    AttackSpec,
    identity_forward,
    keep_and_send_phi0,
    measure_and_resend,
    random_isometry,
)
from .classical_code import (
    ATTACKABLE_EDGES,
    EDGES,
    classical_secrecy_check,
    inverse_of_two,
    is_odd_prime,
    key_coefficient,
    recovery_check,
    transfer_matrix,
)
from .engine import (
    DensityMatrix,
    MeasurementResult,
    RegisterLayout,
    SparseState,
    fourier_basis_state,
    trace_distance,
)
from .protocol import (
    MEASURED_EDGES,
    VARIANT_FULL,
    VARIANT_WEAK,
    ProtocolConfig,
    RunResult,
    branch_table,
    enumerate_branches,
    run,
)
from .security import (
    SecurityReport,
    analyze,
    attacked_fidelity,
    expected_environment_state,
    verify_independence,
)

__version__ = "0.1.0"

__all__ = [
    "ATTACKABLE_EDGES",
    "AttackSpec",
    "DensityMatrix",
    "EDGES",
    "MEASURED_EDGES",
    "MeasurementResult",
    "ProtocolConfig",
    "RegisterLayout",
    "RunResult",
    "SecurityReport",
    "SparseState",
    "VARIANT_FULL",
    "VARIANT_WEAK",
    "analyze",
    "attacked_fidelity",
    "branch_table",
    "classical_secrecy_check",
    "enumerate_branches",
    "expected_environment_state",
    "fourier_basis_state",
    "identity_forward",
    "inverse_of_two",
    "is_odd_prime",
    "keep_and_send_phi0",
    "key_coefficient",
    "measure_and_resend",
    "random_isometry",
    "recovery_check",
    "run",
    "trace_distance",
    "transfer_matrix",
    "verify_independence",
]
