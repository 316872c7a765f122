"""accr: almost contact B-metric structures, their curvature, and Yamabe almost solitons."""

from .errors import (
    AccrError,
    BasisMismatch,
    DimensionMismatch,
    DomainError,
    ExprError,
    ExprSyntaxError,
    IdentityViolation,
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
    VarianceMismatch,
    ZeroPotential,
)
from .expr import Expression, parse
from .jets import Jet2
from .manifold import (
    METRIC_G,
    METRIC_GTILDE,
    AccRStructure,
    AssociatedMetric,
    Chart,
    associated_metric,
    builtin_names,
    builtin_structure,
    latin_hypercube,
    load_manifold,
    sample_points,
    validate_structure,
)
from .geometry import (
    ConnectionAtPoint,
    CurvatureAtPoint,
    FundamentalTensorAtPoint,
    PointGeometry,
    SampleGeometry,
    christoffel,
    curvature,
    exterior_derivative,
    f_tilde_via_relation,
    fundamental_tensor,
    lie_derivative_metric,
    nabla_tilde_via_relation,
    nabla_xi,
    point_geometry,
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
from .tensor import MetricAtPoint, PointTensor, contract, metric_invert, raise_lower, to_phi_frame

__version__ = "0.1.0"
