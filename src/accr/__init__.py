"""accr: almost contact B-metric structures, their curvature, and Yamabe almost solitons."""

from .errors import (
    AccrError,
    DimensionMismatch,
    DomainError,
    ExprError,
    ExprSyntaxError,
    ManifoldError,
    ManifoldParseError,
    NonVerticalPotential,
    PotentialError,
    SingularFrame,
    SingularMetric,
    TensorError,
    UnboundConstant,
    UnknownBuiltin,
    UnknownIdentifier,
    ZeroPotential,
)
from .expr import Expression, parse
from .jets import Jet2
from .manifold import (
    METRIC_G,
    METRIC_GTILDE,
    AccRStructure,
    Chart,
    builtin_names,
    builtin_structure,
    latin_hypercube,
    load_manifold,
    sample_points,
    validate_structure,
)
from .geometry import (
    PointGeometry,
    SampleGeometry,
    lie_derivative_metric,
)
from .analysis import (
    ClassMembership,
    MembershipEntry,
    SolitonSolveResult,
    TorseFormingResult,
    check_f5,
    check_sasaki_like,
    classify,
    torse_forming_extract,
    verify_paper_suite,
    vertical_potential,
    yamabe_soliton_solve,
)
from .report import CheckRecord, Report
from .tensor import to_phi_frame

__version__ = "0.1.0"
