"""Exact scalar arithmetic: finite fields F_{p^e}, roots of unity, and the one
linear solver over Q or F_p.

Field elements are coefficient tuples over F_p in the basis 1, x, ..., x^{e-1}
of F_p[x]/(f), where f is the deterministic modulus for (p, e): the
lexicographically smallest monic irreducible of degree e, coefficients
compared constant term first.  All values are immutable.

Roots of unity are exact rationals mod 1 (`UnityExp(q)` means e^{2*pi*i*q});
equality is rational equality, nothing is ever a float.

Membership in the prime subfield is always decided by the Frobenius fixed
point test x^p == x, never by looking at the representation, so it survives
embeddings into larger fields.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .errors import BoundExceeded, InvariantViolation, NonInvertibleDenominator, NonPrime

DEFAULT_FIELD_BOUND = 10**9


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


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


def _pdivmod(a, b, p):
    # b must be nonzero; returns (q, r) with a = q*b + r, deg r < deg b
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return _ptrim(q), _ptrim(a)


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


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
    # f monic of degree e; irreducible iff x^{p^e} == x (mod f) and
    # gcd(x^{p^{e/q}} - x, f) = 1 for every prime q | e.
    x = (0, 1)
    t = x
    powers = [x]  # powers[k] = x^{p^k} mod f
    for _ in range(e):
        t = _ppowmod(t, p, f, p)
        powers.append(t)
    if powers[e] != _pmod(x, f, p):
        return False
    q = 2
    m = e
    seen = set()
    while m > 1:
        while m % q:
            q += 1
        seen.add(q)
        while m % q == 0:
            m //= q
    for q in seen:
        g = _pgcd(_psub(powers[e // q], x, p), f, p)
        if len(g) != 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
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

    __slots__ = ("p", "e", "modulus", "_frob_rows", "_generator")

    def __init__(self, p, e, modulus):
        self.p = p
        self.e = e
        self.modulus = modulus
        self._frob_rows = None
        self._generator = None

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

    def gen_x(self) -> "FFElem":
        # the residue class of x (not necessarily a multiplicative generator)
        if self.e == 1:
            return self.zero()
        return FFElem(self, (0, 1))

    def elements(self):
        """All p^e elements, in low-degree-first lex order of coefficients."""
        for digits in itertools.product(range(self.p), repeat=self.e):
            yield FFElem(self, _ptrim(digits[::-1]))

    def frobenius_rows(self):
        # matrix of x -> x^p in the power basis, rows over F_p
        if self._frob_rows is None:
            cols = []
            for k in range(self.e):
                xk = _ptrim([0] * k + [1])
                img = _ppowmod(xk, self.p, self.modulus, self.p)
                cols.append(tuple(img[i] if i < len(img) else 0 for i in range(self.e)))
            self._frob_rows = tuple(tuple(cols[j][i] for j in range(self.e))
                                    for i in range(self.e))
        return self._frob_rows

    def generator(self) -> "FFElem":
        """Deterministic multiplicative generator: lex-smallest full-order element."""
        if self._generator is None:
            n = self.order - 1
            factors = set()
            m, q = n, 2
            while q * q <= m:
                while m % q == 0:
                    factors.add(q)
                    m //= q
                q += 1
            if m > 1:
                factors.add(m)
            for cand in self.elements():
                if not cand.coeffs:
                    continue
                if all(cand ** (n // q) != self.one() for q in factors):
                    self._generator = cand
                    break
        return self._generator


@functools.lru_cache(maxsize=None)
def _build_field(p, e):
    return FieldDescriptor(p, e, _smallest_irreducible(p, e))


def make_field(p: int, e: int, bound=None) -> FieldDescriptor:
    """The deterministic descriptor of F_{p^e}; idempotent for fixed (p, e).
    BoundExceeded when p^e exceeds `bound` (default DEFAULT_FIELD_BOUND)."""
    bound = DEFAULT_FIELD_BOUND if bound is None else bound
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if e < 1:
        raise NonPrime(f"extension degree {e} must be >= 1")
    if p**e > bound:
        raise BoundExceeded(f"field size {p}^{e} exceeds bound {bound}")
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

    def __neg__(self):
        p = self.field.p
        return FFElem(self.field, tuple((-c) % p for c in self.coeffs))

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
        p, mod = self.field.p, self.field.modulus
        # extended Euclid over F_p[x]
        r0, r1 = mod, self.coeffs
        s0, s1 = (), (1,)
        while r1:
            q, r = _pdivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        inv_lead = pow(r0[-1], p - 2, p)
        return FFElem(self.field, _ptrim([(c * inv_lead) % p for c in s0]))

    def frobenius(self):
        rows = self.field.frobenius_rows()
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

    def in_prime_field(self):
        """F_p-membership via the Frobenius fixed point test x^p == x."""
        return self.frobenius() == self

    def trace_to_prime(self) -> int:
        t = self
        acc = self
        for _ in range(self.field.e - 1):
            t = t.frobenius()
            acc = acc + t
        if len(acc.coeffs) > 1:
            raise InvariantViolation(f"the trace of {self} is not in F_{self.field.p}")
        return acc.coeffs[0] if acc.coeffs else 0

    def as_int(self) -> int:
        """The value as an integer mod p; only valid on prime-field elements."""
        if len(self.coeffs) > 1:
            raise ValueError("not a prime-field representation")
        return self.coeffs[0] if self.coeffs else 0

    def key(self):
        return self.coeffs

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


def solve_linear(A, b, p=None):
    """A solution x of A x = b for any m x n matrix A, over Q (p None; x as
    Fractions) or over F_p (x as ints mod p), with the free unknowns set to 0
    so that it is deterministic; None when the system is inconsistent."""
    if p is None:
        aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(A, b)]
        inv, red, zero = (lambda x: 1 / x), (lambda x: x), Fraction(0)
    else:
        aug = [[x % p for x in row] + [y % p] for row, y in zip(A, b)]
        inv, red, zero = (lambda x: pow(x, p - 2, p)), (lambda x: x % p), 0
    m = len(aug)
    n = len(A[0]) if m else 0
    pivots = []
    for col in range(n):
        rr = len(pivots)
        piv = next((row for row in range(rr, m) if aug[row][col]), None)
        if piv is None:
            continue
        aug[rr], aug[piv] = aug[piv], aug[rr]
        c = inv(aug[rr][col])
        aug[rr] = [red(x * c) for x in aug[rr]]
        for row in range(m):
            f = aug[row][col]
            if row != rr and f:
                aug[row] = [red(x - f * y) for x, y in zip(aug[row], aug[rr])]
        pivots.append(col)
    if any(aug[row][n] for row in range(len(pivots), m)):
        return None
    x = [zero] * n
    for row, col in enumerate(pivots):
        x[col] = aug[row][n]
    return x


@functools.lru_cache(maxsize=None)
def _subfield_embedding(small: FieldDescriptor, big: FieldDescriptor) -> FFElem:
    """Image of small.gen_x() in big: a root of small's modulus in big.

    The roots lie in the degree-e subfield, whose nonzero elements are the
    powers of h = g^((p^E - 1)/(p^e - 1)) for the generator g of big; the
    lex-smallest root is taken, so the embedding is deterministic.
    """
    p, e, ee = small.p, small.e, big.e
    if big.p != p or ee % e:
        raise InvariantViolation(f"F_{p}^{e} does not embed in F_{big.p}^{ee}")
    h = big.generator() ** ((p**ee - 1) // (p**e - 1))
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
    rows = target.frobenius_rows()
    # matrix of v -> frob(v) - v
    mat_rows = [tuple((rows[i][j] - (1 if i == j else 0)) % p for j in range(ee))
                for i in range(ee)]
    rhs_vec = [rhs.coeffs[i] if i < len(rhs.coeffs) else 0 for i in range(ee)]
    sol = solve_linear(mat_rows, rhs_vec, p)
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

    def __add__(self, other):
        return UnityExp(self.q + other.q)

    def __sub__(self, other):
        return UnityExp(self.q - other.q)

    def __neg__(self):
        return UnityExp(-self.q)

    def __mul__(self, k: int):
        return UnityExp(self.q * k)

    __rmul__ = __mul__

    def is_one(self):
        return self.q == 0

    def order(self) -> int:
        return self.q.denominator

    def key(self):
        return (self.q.numerator, self.q.denominator)

    def __eq__(self, other):
        return isinstance(other, UnityExp) and self.q == other.q

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return f"e({self.q})"

    def __str__(self):
        return f"{self.q.numerator}/{self.q.denominator}"


def eps_pow(q, ell: int, eps: int = 1) -> UnityExp:
    """epsilon^q for rational q whose denominator is invertible mod ell.

    epsilon is the primitive ell-th root of unity with exponent eps/ell
    (eps = 1 unless overridden; gcd(eps, ell) must be 1).  The result is the
    unique ell-th root of unity u with u^denominator = epsilon^numerator.
    """
    q = Fraction(q)
    num, den = q.numerator, q.denominator
    import math
    if math.gcd(den, ell) != 1:
        raise NonInvertibleDenominator(f"denominator {den} not invertible mod {ell}")
    if math.gcd(eps, ell) != 1:
        raise NonInvertibleDenominator(f"eps exponent {eps} not coprime to {ell}")
    den_inv = pow(den % ell, -1, ell)
    return UnityExp(Fraction((num * den_inv * eps) % ell, ell))
