"""twinmill: simulation and planning toolkit for milling with two
flange-coupled industrial robots.

Subsystems:
    kinematics    serial-arm FK / Jacobian / damped least-squares IK
    stiffness     per-arm and coupled Cartesian stiffness, tension offsets
    modal         tension-dependent oscillator model and impact-test FRFs
    pathplan      toolpaths, G-code subset, synchronized setpoint programs
    compensation  deformation simulation and rigid-transform compensation
    config        strict JSON system configuration
    cli           command-line frontend (modal / frf / plan / deform)
"""

from .compensation import (
    PathTrace,
    compensate,
    fit_rigid,
    nominal_trace,
    residual_report,
    simulate_deformation,
)
from .config import SystemConfig, load_config
from .geometry import Pose
from .kinematics import ArmModel, forward_kinematics, inverse_kinematics, jacobian
from .modal import (
    FrfSeries,
    ImpactRecord,
    ModalModel,
    ShiftFit,
    fit_shift,
    frf_synthesize,
    h1_estimate,
    natural_frequency,
    peak_pick,
    simulate_impact,
)
from .pathplan import (
    ArcSegment,
    LinearSegment,
    SetpointPair,
    Setpoints,
    SyncProgram,
    ToolPath,
    discretize,
    parse_gcode,
    path_from_json,
    path_to_json,
    plan_sync,
)
from .stiffness import (
    CoupledSystem,
    SpringModel,
    Wrench,
    cartesian_stiffness,
    coupled_stiffness,
    predicted_tension,
    tension_offset,
)

__version__ = "0.1.0"
