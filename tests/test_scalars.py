"""Field and root-of-unity arithmetic, checked against exhaustive oracles."""

from fractions import Fraction

import pytest

from lieram.errors import BoundExceeded, NonInvertibleDenominator, NonPrime
from lieram.scalars import (
    UnityExp,
    artin_schreier_solve,
    embed,
    eps_pow,
    make_field,
)


def poly_has_root_mod_p(coeffs, p):
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


def smallest_irreducible_by_roots(p, e):
    # oracle for e in {2, 3}: irreducible iff no root in F_p
    assert e in (2, 3)
    for k in range(p**e):
        coeffs = []
        n = k
        for _ in range(e):
            coeffs.append(n % p)
            n //= p
        coeffs.reverse()
        f = tuple(coeffs) + (1,)
        if f[0] != 0 and not poly_has_root_mod_p(f, p):
            return f
    raise AssertionError


def test_make_field_prime_degenerate():
    F = make_field(3, 1)
    assert F.modulus == (0, 1)
    assert F.from_int(5) == F.from_int(2)


def test_make_field_f27_lex_smallest():
    F = make_field(3, 3)
    assert F.modulus == smallest_irreducible_by_roots(3, 3)
    assert not poly_has_root_mod_p(F.modulus, 3)


def test_make_field_f25_lex_smallest():
    F = make_field(5, 2)
    assert F.modulus == smallest_irreducible_by_roots(5, 2)


def test_make_field_pinned_large_moduli():
    # the search starts at constant term 1 and finds the same lex-smallest
    # moduli as a scan from 0 (every modulus with c0 = 0 is divisible by x)
    assert make_field(5, 10).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1)
    assert make_field(7, 7).modulus == (1, 0, 0, 0, 0, 0, 6, 1)


def test_make_field_idempotent_and_errors():
    assert make_field(7, 2) is make_field(7, 2)
    with pytest.raises(NonPrime):
        make_field(6, 1)
    with pytest.raises(BoundExceeded):
        make_field(3, 30)


def test_field_axioms_exhaustive_f9():
    F = make_field(3, 2)
    elems = list(F.elements())
    assert len(elems) == 9
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            if not b.is_zero():
                assert (a * b) * b.inverse() == a
    one = F.one()
    for a in elems:
        if not a.is_zero():
            assert a * a.inverse() == one


def test_frobenius_fixed_field_exhaustive():
    # x^p == x iff the coefficient vector is supported in degree 0
    for (p, e) in ((3, 3), (5, 2)):
        F = make_field(p, e)
        for x in F.elements():
            fixed = x.frobenius() == x
            assert fixed == (len(x.coeffs) <= 1)
            assert fixed == x.in_prime_field()
            assert x.frobenius() == x**p


def test_artin_schreier_zero_case():
    F3 = make_field(3, 1)
    x, fld = artin_schreier_solve(F3.zero())
    assert fld is F3 and x.is_zero()


def test_artin_schreier_c1_over_f3_against_bruteforce():
    F3 = make_field(3, 1)
    x, K = artin_schreier_solve(F3.from_int(1))
    assert (K.p, K.e) == (3, 3)
    # oracle: enumerate all 27 elements
    sols = [y for y in K.elements() if y**3 - y == K.from_int(1)]
    assert len(sols) == 3
    assert x in sols
    # the full solution set is x + F_p
    assert set(sols) == {x + K.from_int(j) for j in range(3)}


def test_artin_schreier_c2_over_f5():
    F5 = make_field(5, 1)
    c = F5.from_int(2)
    x, K = artin_schreier_solve(c)
    assert (K.p, K.e) == (5, 5)
    assert x**5 - x == embed(c, K)
    # exactly p translated solutions, verified by evaluation
    two = embed(c, K)
    for j in range(5):
        y = x + K.from_int(j)
        assert y**5 - y == two
    assert len({x + K.from_int(j) for j in range(5)}) == 5


def test_artin_schreier_bound():
    F7 = make_field(7, 1)
    with pytest.raises(BoundExceeded):
        artin_schreier_solve(F7.from_int(1), bound=1000)  # needs F_{7^7}


def test_artin_schreier_trace_zero_stays_in_field():
    # quadratic extension values with zero absolute trace solve in place
    F9 = make_field(3, 2)
    zt = [c for c in F9.elements() if not c.is_zero() and c.trace_to_prime() == 0]
    assert zt
    for c in zt:
        x, fld = artin_schreier_solve(c)
        assert fld is F9
        assert x.frobenius() - x == c


def test_embedding_is_a_ring_map():
    small = make_field(3, 2)
    big = make_field(3, 6)
    elems = list(small.elements())
    img = {a: embed(a, big) for a in elems}
    for a in elems:
        for b in elems:
            assert img[a] + img[b] == embed(a + b, big)
            assert img[a] * img[b] == embed(a * b, big)
    assert img[small.one()] == big.one()


def test_generator_orders():
    for (p, e) in ((5, 1), (3, 2), (5, 2)):
        F = make_field(p, e)
        g = F.generator()
        n = F.order - 1
        seen = set()
        x = F.one()
        for _ in range(n):
            x = x * g
            seen.add(x)
        assert len(seen) == n  # full multiplicative order


def test_eps_pow_worked_values():
    assert eps_pow(1, 5).q == Fraction(1, 5)
    assert eps_pow(Fraction(-1, 2), 5).q == Fraction(2, 5)
    assert eps_pow(Fraction(3, 2), 3).q == 0
    # check (2/5)*2 == -1/5 mod 1
    assert (eps_pow(Fraction(-1, 2), 5) * 2).q == UnityExp(Fraction(-1, 5)).q


def test_eps_pow_additive_exhaustive():
    dens = (1, 2, 4)
    for ell in (3, 5, 7):
        for d1 in dens:
            for d2 in dens:
                for n1 in range(-8, 9):
                    for n2 in range(-8, 9):
                        q1, q2 = Fraction(n1, d1), Fraction(n2, d2)
                        lhs = eps_pow(q1, ell) + eps_pow(q2, ell)
                        assert lhs == eps_pow(q1 + q2, ell)


def test_eps_pow_errors():
    with pytest.raises(NonInvertibleDenominator):
        eps_pow(Fraction(1, 3), 3)
    with pytest.raises(NonInvertibleDenominator):
        eps_pow(1, 5, eps=5)


def test_unity_exp_group_law():
    a = UnityExp(Fraction(3, 4))
    b = UnityExp(Fraction(1, 2))
    assert (a + b).q == Fraction(1, 4)
    assert (-a).q == Fraction(1, 4)
    assert (a - a).is_one()
    assert (a * 4).is_one() and not (a * 2).is_one()
    assert a.order() == 4
