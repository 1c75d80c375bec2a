"""ionpulse: pulse-schedule compilation and verification for a trapped ion.

Simulates the conditional laser-ion dynamics of a single trapped two-level
ion to all orders in the Lamb-Dicke parameter, compiles pulse schedules
(frequencies, phases, durations) that synthesize target motional and
entangled states, and verifies every schedule against an independent
Hamiltonian-propagation oracle.
"""

from .core import (
    DEFAULT_ETA,
    DEFAULT_OMEGA_RAD_S,
    PhysicalParams,
    PulseCoefficient,
    RabiUnderflowError,
    RabiValue,
    pulse_coefficient,
    rabi_column,
    rabi_frequency,
)
from .states import (
    EXCITED,
    GROUND,
    JointState,
    Pulse,
    PulseSchedule,
    TruncationOverflowError,
    apply_pulse,
    apply_pulse_amplitudes,
    fidelity,
    run_schedule,
)
from .synthesis import (
    AlternatingTarget,
    BellTarget,
    CoherentTarget,
    EntangledCarrierTarget,
    FockTarget,
    ParityCoherentTarget,
    PhaseStateTarget,
    SuperpositionTarget,
    SynthesisReport,
    TargetState,
    compile_bell,
    compile_coherent,
    compile_entangled_carrier,
    compile_even_odd_coherent,
    compile_fock,
    compile_phase_state,
    compile_superposition,
    compile_target,
    default_fock_dim,
    generate_alternating,
    target_state_vector,
)
from .oracle import (
    HamiltonianMatrix,
    build_hamiltonian,
    propagate,
    verify_report,
    verify_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ETA",
    "DEFAULT_OMEGA_RAD_S",
    "PhysicalParams",
    "PulseCoefficient",
    "RabiUnderflowError",
    "RabiValue",
    "pulse_coefficient",
    "rabi_column",
    "rabi_frequency",
    "EXCITED",
    "GROUND",
    "JointState",
    "Pulse",
    "PulseSchedule",
    "TruncationOverflowError",
    "apply_pulse",
    "apply_pulse_amplitudes",
    "fidelity",
    "run_schedule",
    "AlternatingTarget",
    "BellTarget",
    "CoherentTarget",
    "EntangledCarrierTarget",
    "FockTarget",
    "ParityCoherentTarget",
    "PhaseStateTarget",
    "SuperpositionTarget",
    "SynthesisReport",
    "TargetState",
    "compile_bell",
    "compile_coherent",
    "compile_entangled_carrier",
    "compile_even_odd_coherent",
    "compile_fock",
    "compile_phase_state",
    "compile_superposition",
    "compile_target",
    "default_fock_dim",
    "generate_alternating",
    "target_state_vector",
    "HamiltonianMatrix",
    "build_hamiltonian",
    "propagate",
    "verify_report",
    "verify_schedule",
    "__version__",
]
