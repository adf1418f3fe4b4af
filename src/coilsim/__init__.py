"""coilsim: a desk-scale simulator of a square-Helmholtz-coil magnetic field
testbed.

Analytic field computation and coil-geometry optimization, a simulated
coil/sensor/disturbance plant, adaptive coil controllers (a convex
combination of two filters plus LMS/SVS/ATLMS baselines), and a reproducible
experiment harness.
"""

from .coilopt import (
    OptimalityResult,
    UniformRegion,
    optimal_spacing,
    optimality_polynomial,
    second_derivative_center,
    solve_optimal_ratio,
    uniform_region,
)
from .control import (
    ConditionReport,
    ConvexParams,
    ConvexState,
    FilterState,
    atlms_rate,
    check_convergence_condition,
    convex_step,
    filter_step,
    lms_rate,
    svs_rate,
)
from .experiments import (
    MetricsReport,
    StepScenario,
    SysIdScenario,
    compute_metrics,
    run_step_response,
    run_sysid,
)
from .magnetics import (
    MU0,
    GridSpec,
    HelmholtzPair,
    field_map,
    field_map_blocks,
    pair_field,
    segment_field,
    uniformity,
)
from .plant import (
    HMC5883L,
    RM3100,
    DisturbanceSpec,
    PlantModel,
    SensorSpec,
    TargetProfile,
    disturbance_series,
    drive,
    inverse_drive,
    sense,
    sensor_noise,
    snr_to_sigma,
)

__version__ = "0.1.0"
