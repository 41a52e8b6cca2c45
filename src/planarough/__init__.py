"""Planarly branched rough paths: ordered-forest Hopf calculus, branched
lifts of smooth-plus-area drivers, controlled paths, and numerical
verification of the associated change-of-variable formulas."""

from .forest_core import (
    EMPTY,
    PlanarForest,
    PlanarTree,
    b_plus,
    concat,
    forest,
    parse_forest,
    single,
    tree,
)
from .hopf_mkw import (
    FloatAlgebra,
    TruncatedBasis,
    coproduct_mkw,
    is_primitive,
    pairing,
    shuffle,
)
from .rough_path import (
    ConfigError,
    DriverSpec,
    PolySignal,
    RoughPath,
    SpectralSignal,
    TrigSignal,
    bracket_extension,
    lift,
)
from .controlled import (
    ControlledPath,
    SmoothFunctionWithDerivatives,
    compose_FX,
    compose_FY,
    driver_path,
)
from .calculus import (
    ConvergenceReport,
    DivergenceError,
    VectorFieldFamily,
    solve_rde,
)
from .ito_verify import ItoReport, verify_general, verify_simple

__all__ = [
    "EMPTY",
    "PlanarForest",
    "PlanarTree",
    "b_plus",
    "concat",
    "forest",
    "parse_forest",
    "single",
    "tree",
    "FloatAlgebra",
    "TruncatedBasis",
    "coproduct_mkw",
    "is_primitive",
    "pairing",
    "shuffle",
    "ConfigError",
    "DriverSpec",
    "PolySignal",
    "RoughPath",
    "SpectralSignal",
    "TrigSignal",
    "bracket_extension",
    "lift",
    "ControlledPath",
    "SmoothFunctionWithDerivatives",
    "compose_FX",
    "compose_FY",
    "driver_path",
    "ConvergenceReport",
    "DivergenceError",
    "VectorFieldFamily",
    "solve_rde",
    "ItoReport",
    "verify_general",
    "verify_simple",
]

__version__ = "0.1.0"
