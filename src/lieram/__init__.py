"""lieram: exact desk-scale combinatorics of blocks and ramification for
reduced enveloping algebras in characteristic p and quantized enveloping
algebras at roots of unity."""

from .errors import (  # noqa: F401
    BoundExceeded,
    HypothesisFailure,
    InvalidSupport,
    InvalidType,
    InvariantViolation,
    LieramError,
    NoParabolicConjugate,
    NonInvertibleDenominator,
    NonPrime,
    NotClosed,
    NotNilpotentContext,
    NotParabolic,
    UnknownRow,
)
from .scalars import FFElem, FieldDescriptor, UnityExp, artin_schreier_solve, eps_pow, make_field  # noqa: F401
from .rootdata import RootSystem, Subsystem, build_root_system, hypothesis_check, subsystem_classify, two_rho_dot  # noqa: F401
from .weyl import (  # noqa: F401
    alcove_descent,
    inversion_set,
    orbit_partition,
    reflection_stabilizer,
)
from .modular import (  # noqa: F401
    BlockReport,
    PChar,
    dim_C,
    mod_blocks,
    poincare_series,
    regularity_and_structure,
    unramified_count,
)
from .quantum import (  # noqa: F401
    QBlockReport,
    QChar,
    TorusElement,
    exceptional_elements,
    hc_shift,
    q_blocks,
    q_regularity_and_counts,
    q_unramified,
    simplicity_necessary,
    verify_appendix_row,
    w_t,
)

__version__ = "0.1.0"
