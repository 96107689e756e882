"""Exception types shared across the engine.

Every domain failure raises a subclass of LieramError; the CLI maps these
to exit status 1 (usage problems are exit 2).
"""


class LieramError(Exception):
    pass


class NonPrime(LieramError):
    pass


class BoundExceeded(LieramError):
    pass


class NonInvertibleDenominator(LieramError):
    pass


class InvalidType(LieramError):
    pass


class NotClosed(LieramError):
    pass


class NotParabolic(LieramError):
    pass


class NotNilpotentContext(LieramError):
    pass


class NoParabolicConjugate(LieramError):
    pass


class UnknownRow(LieramError):
    pass


class InvalidSupport(LieramError):
    pass


class HypothesisFailure(LieramError):
    pass


class InvariantViolation(LieramError):
    pass
