"""Growth calculus for t^a log^b t sums, unitriangular group arithmetic,
and equidistribution diagnostics on nilmanifolds."""

from .constants import REGISTRY, NamedConstant
from .ddmath import DD, FP, Double2
from .hardy import (
    GrowthBasis,
    GrowthClassification,
    HardyExpr,
    HardyParseError,
    HardyTerm,
    LimitKind,
    Mod1Case,
    Mod1Class,
    Ordering,
    PreconditionError,
    UnrepresentableCoefficient,
    check_P1,
    check_P2,
    classify,
    classify_mod1,
    compare,
    decompose,
    differentiate,
    derivative,
    evaluate,
    evaluate_dd,
    floor_at,
    growth_basis,
    maximal_independent_subset,
    parse,
)
from .windows import (
    AnchoredTaylor,
    ClassBounds,
    TaylorWindow,
    WindowPlan,
    WindowSearchError,
    class_bounds,
    find_common_window,
    member,
    order_for_power,
    taylor_window,
)
from .nilpotent import (
    LieAlgebraElement,
    MalcevCoords,
    UnitriangularElement,
    horizontal_projection,
    multiply,
    power_real,
    reduce_mod_lattice,
)
from .orbits import (
    BinomialPolynomial,
    FloorMode,
    ObstructionReport,
    OrbitConfig,
    OrbitSample,
    PrecisionCapError,
    TestFunction,
    box_discrepancy,
    cinfty_norm,
    binomial_to_monomial,
    discrepancy_series,
    make_test_function,
    obstruction_search,
    orbit_discrepancy,
    orbit_point,
    to_binomial_basis,
    weyl_sum,
    window_average,
)
from .averages import (
    AverageExperiment,
    ConvergenceSeries,
    convergence_series,
    floor_discrepancy,
    floor_discrepancy_threshold,
    multiple_average,
    predicted_limit,
)

__version__ = "0.1.0"
