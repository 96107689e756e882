"""lieram: exact desk-scale combinatorics of blocks and ramification for
reduced enveloping algebras in characteristic p and quantized enveloping
algebras at roots of unity.

`import lieram` loads the root-data core (errors, rootdata).  The finite
fields (scalars) and the Weyl, modular and quantum layers load on first use:
reading one of their public names, or the submodule itself, imports the
owning module and binds the name here.  Only the modular side loads the
finite fields; the quantum side works in exact rationals and torus
exponents."""

import importlib

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
from .rootdata import RootSystem, Subsystem, build_root_system, hypothesis_check, subsystem_classify, two_rho_dot  # noqa: F401

# the owning module of each public name that loads on first use.  Every
# command and every layer needs the core above, so it loads with the package;
# the CLI imports only the layer of the command it runs, and the finite
# fields only for a modular command
_LAZY = {name: module for module, names in (
    ("scalars", "FFElem FieldDescriptor artin_schreier_solve make_field"),
    ("weyl", "UnityExp alcove_descent inversion_set orbit_partition reflection_stabilizer"),
    ("modular", "BlockReport PChar dim_C mod_blocks poincare_series"
                " regularity_and_structure unramified_count"),
    ("quantum", "QBlockReport QChar TorusElement eps_pow exceptional_elements hc_shift q_blocks"
                " q_regularity_and_counts q_unramified simplicity_necessary"
                " verify_appendix_row w_t"),
) for name in names.split()}

__all__ = [
    "BoundExceeded", "HypothesisFailure", "InvalidSupport", "InvalidType",
    "InvariantViolation", "LieramError", "NoParabolicConjugate", "NonInvertibleDenominator",
    "NonPrime", "NotClosed", "NotNilpotentContext", "NotParabolic", "UnknownRow",
    "RootSystem", "Subsystem", "build_root_system", "hypothesis_check", "subsystem_classify",
    "two_rho_dot", *_LAZY,
]


def __getattr__(name):
    owner = _LAZY.get(name, name)
    if owner not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{owner}")
    value = module if name == owner else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys() | set(_LAZY.values()))


__version__ = "0.1.0"
