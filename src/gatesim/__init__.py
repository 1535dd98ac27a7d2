"""State-vector simulation and verification of cavity-mediated multiqubit gates.

The package builds the pulse primitives of a four-level-qubit/cavity
architecture both analytically and from first-principles Hamiltonians,
sequences them into multi-control phase gates and fanout CNOTs, scores them
by process fidelity, exact sign match and leakage, runs a two-qubit
Deutsch-Jozsa demonstration and recomputes the experimental feasibility
figures.
"""

from .budget import (
    FeasibilityReport,
    LevelStructure,
    SquidParams,
    cavity_lifetime,
    conventional_step_count,
    feasibility,
    squid_coupling,
    step_count,
    time_cp3,
    time_ntcnot,
    validate_levels,
)
from .device import ConfigError, DeviceParams, Role, load_params, params_from_dict
from .dj import DJResult, OracleVariant, oracle_variant, run_dj, uf_apply
from .linalg import HermitianOperator, HilbertSpace, process_fidelity
from .pulses import Mode, Pulse, PulseKind
from .sequences import (
    GateKind,
    PulseSequence,
    PulseStep,
    build_sequence,
    cp3_sequence,
    ncp_sequence,
    ntcnot_sequence,
    serialize_sequence,
    toffoli_sequence,
)
from .verify import (
    GateReport,
    PhaseAudit,
    ideal_ncp,
    ideal_ntcnot,
    ideal_toffoli,
    phase_audit,
    report,
    swap_fidelity_vs_full,
    swap_peak_level3,
)

__version__ = "0.1.0"
