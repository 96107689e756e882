"""Exact scalar arithmetic: finite fields F_{p^e}, roots of unity, and the one
linear solver over Q or F_p.

Field elements are coefficient tuples over F_p in the basis 1, x, ..., x^{e-1}
of F_p[x]/(f), where f is the deterministic modulus for (p, e): the
lexicographically smallest monic irreducible of degree e, coefficients
compared constant term first.  The search tests the candidates in that order
with a root test (Horner at each a in F_p), then Ben-Or's test, which stops
at a reducible candidate's first factor; Rabin's full test is kept as an
oracle in lieram.selftest.  A field derives on the first read, and keeps as
functools.cached_property attributes, its Frobenius matrix (frobenius_rows),
the linear form of its absolute trace t_j = Tr(x^j) (trace_form), its
generator, and the solver of x^p - x = c (as_solver: Frobenius - 1 reduced
once).  All values are immutable.

Roots of unity are exact rationals mod 1: e^{2*pi*i*q} is the Fraction q in
[0, 1) (eps_pow returns one), or `UnityExp(q)` where a torus point is viewed
coordinate by coordinate; equality is rational equality, nothing is ever a
float.

Membership in the prime subfield is read off the representation: the power
basis starts at 1, so x lies in F_p iff every coefficient after the constant
term is 0 (the Frobenius fixed points x^p == x, in any field F_{p^e}).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .errors import BoundExceeded, InvariantViolation, NonInvertibleDenominator, NonPrime

DEFAULT_FIELD_BOUND = 10**9


def is_prime(n: int) -> bool:
    return _prime_factors(n) == {n}


def _prime_factors(n: int) -> set:
    """The primes dividing n (none for n < 2), by trial division by 2 and the
    odd q up to the square root of what is left."""
    out = set()
    for q in itertools.chain((2,), itertools.count(3, 2)):
        if q * q > n:
            break
        while n % q == 0:
            out.add(q)
            n //= q
    return out | {n} if n > 1 else out


# -- dense polynomials over F_p, low-degree-first coefficient tuples --------

def _ptrim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, b, p):
    # b must be nonzero; returns r with a = q*b + r, deg r < deg b
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return _ptrim(a)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _ppowmod(a, n, mod, p):
    result = (1,)
    a = _pmod(a, mod, p)
    while n:
        if n & 1:
            result = _pmod(_pmul(result, a, p), mod, p)
        a = _pmod(_pmul(a, a, p), mod, p)
        n >>= 1
    return result


def _irreducible(f, p, e):
    # f monic of degree e >= 2.  A reducible f has a monic irreducible factor
    # of degree i <= e/2, and x^{p^i} - x is the product of the monic
    # irreducibles of degree dividing i; so f is irreducible iff it has no
    # root in F_p (i = 1) and gcd(x^{p^i} - x, f) = 1 for i = 2..e/2 (Ben-Or).
    # The search stops at a reducible candidate's first factor.
    for a in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if not acc:
            return False
    x = t = (0, 1)
    for i in range(2, e // 2 + 1):
        t = _ppowmod(t, p * p if i == 2 else p, f, p)  # x^{p^i} mod f
        if len(_pgcd(_psub(t, x, p), f, p)) != 1:
            return False
    return True


def _smallest_irreducible(p: int, e: int):
    if e == 1:
        return (0, 1)  # the polynomial x
    # enumerate monic degree-e moduli in increasing low-degree-first lex order,
    # from the first with constant term 1 (x divides every f with c0 = 0)
    for coeffs in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        f = coeffs + (1,)
        if _irreducible(f, p, e):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldDescriptor:
    """The field F_{p^e} with its deterministic modulus."""

    __slots__ = ("p", "e", "modulus", "__dict__")  # __dict__ holds the derived data

    def __init__(self, p, e, modulus):
        self.p = p
        self.e = e
        self.modulus = modulus

    @property
    def order(self) -> int:
        return self.p**self.e

    def __eq__(self, other):
        return (isinstance(other, FieldDescriptor)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FieldDescriptor(p={self.p}, e={self.e})"

    def zero(self) -> "FFElem":
        return FFElem(self, ())

    def one(self) -> "FFElem":
        return FFElem(self, (1,))

    def from_int(self, n: int) -> "FFElem":
        n %= self.p
        return FFElem(self, (n,) if n else ())

    def elem(self, coeffs) -> "FFElem":
        return FFElem(self, _ptrim([c % self.p for c in coeffs]))

    def elements(self):
        """All p^e elements, in low-degree-first lex order of coefficients."""
        for digits in itertools.product(range(self.p), repeat=self.e):
            yield FFElem(self, _ptrim(digits[::-1]))

    @functools.cached_property
    def frobenius_rows(self):
        # matrix of x -> x^p in the power basis, rows over F_p
        cols = []
        for k in range(self.e):
            xk = _ptrim([0] * k + [1])
            img = _ppowmod(xk, self.p, self.modulus, self.p)
            cols.append(tuple(img[i] if i < len(img) else 0 for i in range(self.e)))
        return tuple(tuple(cols[j][i] for j in range(self.e)) for i in range(self.e))

    @functools.cached_property
    def trace_form(self):
        # t_j = Tr(x^j), the sum of the j-th powers of the e roots of the
        # modulus c_0 + ... + c_{e-1} x^{e-1} + x^e (the Frobenius images of
        # x), read off its coefficients by Newton's identities: t_0 = e and
        # t_j = -(j c_{e-j} + sum_{0<i<j} c_{e-i} t_{j-i}); the absolute trace
        # is F_p-linear, so Tr(v) = sum v_j t_j
        p, e, c = self.p, self.e, self.modulus
        t = [e % p]
        for j in range(1, e):
            t.append(-(j * c[e - j] + sum(c[e - i] * t[j - i] for i in range(1, j))) % p)
        return tuple(t)

    @functools.cached_property
    def generator(self) -> "FFElem":
        """Deterministic multiplicative generator: lex-smallest full-order element."""
        n = self.order - 1
        factors = _prime_factors(n)
        for cand in self.elements():
            if cand.coeffs and all(cand ** (n // q) != self.one() for q in factors):
                return cand

    @functools.cached_property
    def as_solver(self):
        """The solver of frob(v) - v = b over F_p: Frobenius - 1 reduced once."""
        return solve_linear([[(x - (i == j)) % self.p for j, x in enumerate(row)]
                             for i, row in enumerate(self.frobenius_rows)], self.p)


@functools.lru_cache(maxsize=None)
def _build_field(p, e):
    if e == 1:
        if not is_prime(p):
            raise NonPrime(f"{p} is not prime")
        return FieldDescriptor(p, 1, (0, 1))
    return FieldDescriptor(p, e, _smallest_irreducible(p, e))


def prime_field(p: int) -> FieldDescriptor:
    """The descriptor of F_p, with no bound; NonPrime unless p is prime.
    Descriptors are kept for the process, so p is tested for primality once."""
    return _build_field(p, 1)


def make_field(p: int, e: int, bound=None) -> FieldDescriptor:
    """The deterministic descriptor of F_{p^e}; idempotent for fixed (p, e).
    BoundExceeded when p^e exceeds `bound` (default DEFAULT_FIELD_BOUND),
    checked before p is tested for primality (by prime_field); then NonPrime."""
    bound = DEFAULT_FIELD_BOUND if bound is None else bound
    # p^e >= 2^e, so an e past the bit length of the bound exceeds it unpowered
    if e >= 1 and p >= 2 and (e > bound.bit_length() or p**e > bound):
        raise BoundExceeded(f"field size {p}^{e} exceeds bound {bound}")
    prime_field(p)
    if e < 1:
        raise NonPrime(f"extension degree {e} must be >= 1")
    return _build_field(p, e)


class FFElem:
    """Immutable element of F_{p^e}; coefficient tuple in the power basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        self._check(other)
        return FFElem(self.field, _padd(self.coeffs, other.coeffs, self.field.p))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        self._check(other)
        return FFElem(self.field, _psub(self.coeffs, other.coeffs, self.field.p))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.p
            k = other % p
            return FFElem(self.field, _ptrim([(c * k) % p for c in self.coeffs]))
        self._check(other)
        return FFElem(self.field,
                      _pmod(_pmul(self.coeffs, other.coeffs, self.field.p),
                            self.field.modulus, self.field.p))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return FFElem(self.field,
                      _ppowmod(self.coeffs, n, self.field.modulus, self.field.p))

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero")
        # Fermat: the multiplicative group of F_q has order q - 1
        return self ** (self.field.p ** self.field.e - 2)

    def frobenius(self):
        rows = self.field.frobenius_rows
        p, e = self.field.p, self.field.e
        v = self.coeffs
        out = [0] * e
        for j, vj in enumerate(v):
            if vj:
                for i in range(e):
                    out[i] = (out[i] + rows[i][j] * vj) % p
        return FFElem(self.field, _ptrim(out))

    def is_zero(self):
        return not self.coeffs

    def trace_to_prime(self) -> int:
        """The absolute trace, read off the field's trace form."""
        return sum(map(operator.mul, self.coeffs, self.field.trace_form)) % self.field.p

    def as_int(self) -> int:
        """The value as an integer mod p; only valid on prime-field elements."""
        if len(self.coeffs) > 1:
            raise ValueError("not a prime-field representation")
        return self.coeffs[0] if self.coeffs else 0

    def __eq__(self, other):
        return (isinstance(other, FFElem) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "+".join(parts)


def solve_linear(A, p=None):
    """Reduce the integer m x n matrix A once, over Q (p None) or over F_p, and
    return the solver of A x = b for any number of right-hand sides b: x has
    its free unknowns set to 0, so it is deterministic (Fractions over Q, ints
    mod p over F_p), or is None when A x = b is inconsistent.  Fraction-free:
    rows of [A | I] are combined with integer multipliers and divided by their
    gcd over Q, reduced mod p over F_p; the identity columns record the row
    operations E, so each b costs one product E b.  The rows of E past the
    pivots are the solver's `consistency` rows: A x = b is consistent iff
    each of them is orthogonal to b, so they vanish exactly on the column
    span of A."""
    m, n = len(A), (len(A[0]) if A else 0)
    rows = [[x % p if p else x for x in row] + [int(i == j) for j in range(m)]
            for i, row in enumerate(A)]
    pivots = []
    for col in range(n):
        k = len(pivots)
        piv = next((i for i in range(k, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        top, a = rows[k], rows[k][col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != k:
                row = [a * x - f * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                rows[i] = [x % p for x in row] if p else [x // g for x in row]
        pivots.append(col)
    E = [row[n:] for row in rows]
    lead = [pow(row[c], -1, p) if p else row[c] for row, c in zip(rows, pivots)]

    def solve(b):
        y = [sum(map(operator.mul, e, b)) for e in E]
        y = [v % p for v in y] if p else y
        if any(y[len(pivots):]):
            return None
        x = [0 if p else Fraction(0)] * n
        for c, v, d in zip(pivots, y, lead):
            x[c] = v * d % p if p else Fraction(v, d)
        return x
    solve.consistency = tuple(map(tuple, E[len(pivots):]))
    return solve


@functools.lru_cache(maxsize=None)
def _subfield_embedding(small: FieldDescriptor, big: FieldDescriptor) -> FFElem:
    """Image in big of x, the class that generates small = F_p[x]/(f) over
    F_p: a root of small's modulus f in big.
    small must embed in big; embed, the one caller, has checked that.

    The roots lie in the degree-e subfield, whose nonzero elements are the
    powers of h = g^((p^E - 1)/(p^e - 1)) for the generator g of big; the
    lex-smallest root is taken, so the embedding is deterministic.
    """
    p, e, ee = small.p, small.e, big.e
    h = big.generator ** ((p**ee - 1) // (p**e - 1))
    roots = []
    z = big.one()
    for _ in range(p**e - 1):
        acc = big.zero()
        for c in reversed(small.modulus):
            acc = acc * z + big.from_int(c)
        if acc.is_zero():
            roots.append(z)
        z = z * h
    if len(roots) != e:
        raise InvariantViolation(
            f"the modulus of F_{p}^{e} has {len(roots)} roots in the subfield, not {e}")
    return min(roots, key=lambda x: x.coeffs)


def embed(x: FFElem, big: FieldDescriptor) -> FFElem:
    """Embed x from F_{p^e} into F_{p^E} with e | E (deterministic embedding)."""
    small = x.field
    if small == big:
        return x
    if big.p != small.p or big.e % small.e:
        raise InvariantViolation(
            f"F_{small.p}^{small.e} does not embed in F_{big.p}^{big.e}")
    if small.e == 1:
        return big.from_int(x.as_int())
    r = _subfield_embedding(small, big)
    acc = big.zero()
    for c in reversed(x.coeffs):
        acc = acc * r + big.from_int(c)
    return acc


def artin_schreier_solve(c: FFElem, bound=None):
    """One solution x of x^p - x = c, in the smallest extension containing it.

    Returns (x, descriptor).  The full solution set is x + F_p.  The extension
    degree multiplies by p exactly when the absolute trace of c is nonzero.
    """
    field = c.field
    p, e = field.p, field.e
    if c.trace_to_prime() == 0:
        target = field
        rhs = c
    else:
        target = make_field(p, e * p, bound)
        rhs = embed(c, target)
    ee = target.e
    sol = target.as_solver(rhs.coeffs + (0,) * (ee - len(rhs.coeffs)))
    if sol is None:
        raise InvariantViolation(f"x^p - x = {rhs} has no solution in F_{p}^{ee}")
    x = FFElem(target, _ptrim(sol))
    if x.frobenius() - x != rhs:
        raise InvariantViolation(f"{x} does not solve x^p - x = {rhs}")
    return x, target


class UnityExp:
    """The root of unity e^{2*pi*i*q} for an exact rational q mod 1."""

    __slots__ = ("q",)

    def __init__(self, q):
        q = Fraction(q)
        self.q = q - (q.numerator // q.denominator)  # reduce into [0, 1)

    def __mul__(self, k: int):
        return UnityExp(self.q * k)

    __rmul__ = __mul__

    def is_one(self):
        return self.q == 0

    def __eq__(self, other):
        return isinstance(other, UnityExp) and self.q == other.q

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return f"e({self.q})"

    def __str__(self):
        return f"{self.q.numerator}/{self.q.denominator}"


def eps_pow(q, ell: int, eps: int = 1) -> Fraction:
    """epsilon^q for rational q whose denominator is invertible mod ell.

    epsilon is the primitive ell-th root of unity with exponent eps/ell
    (eps = 1 unless overridden; gcd(eps, ell) must be 1).  The result is the
    exponent in [0, 1), with denominator dividing ell, of the unique ell-th
    root of unity u with u^denominator = epsilon^numerator.
    """
    q = q if type(q) is Fraction else Fraction(q)
    num, den = q.numerator, q.denominator
    if math.gcd(den, ell) != 1:
        raise NonInvertibleDenominator(f"denominator {den} not invertible mod {ell}")
    if math.gcd(eps, ell) != 1:
        raise NonInvertibleDenominator(f"eps exponent {eps} not coprime to {ell}")
    return Fraction(num * pow(den % ell, -1, ell) * eps % ell, ell)
