"""Exception types shared across the engine, and the one cost model behind
the bound.

Every domain failure raises a subclass of LieramError; the CLI maps these
to exit status 1 (usage problems are exit 2).

One value, `bound` (the CLI's --bound, else LIERAM_BOUND), caps the work of
every check in BOUNDS, and None means each check's own default.  A check
predicts its work as one integer from its inputs alone, before it builds
anything, and charges it through charge(), the only place BoundExceeded is
raised.
"""


class LieramError(Exception):
    pass


class NonPrime(LieramError):
    pass


class BoundExceeded(LieramError):
    """The work a check predicts exceeds its bound; raised by charge alone."""


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


# each check by name, in the order a command meets them, with its default cap
# and the str.format template of what a refusal says it counts (see charge):
# the root tables of the Cartan type (rank^2, then |Phi+| x rank), the size
# p^e of a finite field, the points a block walk visits (p^r of Lambda_chi,
# ell^r of the fiber) and |W| of a group the oracles enumerate
BOUNDS = {
    "type": (10**6, "type {}: {} = {n}"),
    "field": (10**9, "field size {n}^{e}"),
    "points": (10**6, "{n} points to walk"),
    "group": (10**6, "|W({})| = {n}"),
}


def charge(check, bound, n, *args, e=1):
    """Charge the work n^e to `check`, a key of BOUNDS: BoundExceeded("<what>
    exceeds bound <cap>") when it exceeds `bound`, else the check's default
    when `bound` is None.  <what> is the check's template filled with args,
    n and e, only when the check refuses; an integer of more digits than
    str() writes is named by its bit length."""
    cap = BOUNDS[check][0] if bound is None else bound
    # n^e >= 2^e, so an e past the bit length of the cap exceeds it unpowered
    if e > cap.bit_length() and n >= 2 or n ** e > cap:
        what = BOUNDS[check][1].format(*args, n=_text(n), e=_text(e))
        raise BoundExceeded(f"{what} exceeds bound {_text(cap)}")


def _text(x):
    try:
        return str(x)
    except ValueError:  # an int of more digits than str() writes
        return f"a {x.bit_length()}-bit number"
