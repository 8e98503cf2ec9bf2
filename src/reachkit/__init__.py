"""reachkit: reachable sets of LTI systems under magnitude- and norm-bounded
inputs, with reachability metrics usable as design-optimization constraints.
"""

from .boundary import (
    BoundaryCurve,
    ControlBounds,
    SwitchReport,
    bang_bang_control,
    boundary_curve,
    boundary_curve_to_csv,
    reach_hull_planar,
    switch_count,
    switching_function,
)
from .design import (
    DesignProblem,
    DesignVariables,
    FunctionConstraint,
    GramianTraceConstraint,
    LpVolumeConstraint,
    OptResult,
    ScalableDerivativeTable,
    StabilityDerivatives,
    TrimPoint,
    default_derivative_table,
    default_trim_point,
    longitudinal_model,
    optimize,
    surrogate_wing_problem,
)
from .geometry import Polytope, convex_hull, polytope_to_json
from .gramian import (
    Gramian,
    MinEnergyControl,
    ellipsoid_axes,
    ellipsoid_to_json,
    gramian_trace,
    min_energy_control,
    reachability_gramian,
)
from .lpreach import (
    LpOptimalControl,
    LpReachCloud,
    LpSpec,
    cloud_to_csv,
    costate_grid,
    inner_approx,
    lp_optimal_control,
    prop2_bound,
    sample_reach,
)
from .lti import (
    LtiSystem,
    PiecewiseConstantControl,
    Trajectory,
    convolution_integral,
    expm_grid,
    matrix_exponential,
    simulate,
)

__version__ = "0.1.0"
