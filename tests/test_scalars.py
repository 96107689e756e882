"""Field and root-of-unity arithmetic and the one linear solver, checked
against exhaustive oracles."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from lieram import cli, rootdata, scalars
from lieram.errors import BoundExceeded, NonInvertibleDenominator, NonPrime
from lieram.rootdata import RootSystem, parse_cartan_type, subsystem_classify
from lieram.scalars import (
    UnityExp,
    artin_schreier_solve,
    embed,
    eps_pow,
    make_field,
    solve_linear,
)
from lieram.selftest import close_up, irreducible_by_rabin


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


# every monic polynomial of these degrees, constant term 0 included
RABIN_CELLS = [(2, range(2, 7)), (3, range(2, 7)), (5, range(2, 7)),
               (7, range(2, 5)), (11, range(2, 5))]


@pytest.mark.parametrize("p, degrees", RABIN_CELLS)
def test_the_irreducibility_test_agrees_with_rabin_on_every_monic(p, degrees):
    for e in degrees:
        for coeffs in itertools.product(range(p), repeat=e):
            f = coeffs + (1,)
            assert scalars._irreducible(f, p, e) == irreducible_by_rabin(f, p, e), f


def test_every_field_modulus_up_to_a_million_is_irreducible_by_rabin():
    for p in (q for q in range(2, 32) if scalars.is_prime(q)):
        e = 1
        while p**e <= 10**6:
            f = make_field(p, e).modulus
            assert len(f) == e + 1 and f[-1] == 1
            assert irreducible_by_rabin(f, p, e), (p, e)
            assert e == 1 or scalars._irreducible(f, p, e), (p, e)
            e += 1


@pytest.mark.parametrize("p, e, budget", [(5, 10, 20), (7, 7, 4)])
def test_the_modulus_search_stops_at_a_candidate_s_first_factor(p, e, budget, monkeypatch):
    # Rabin's test computes all e Frobenius powers of x on every candidate:
    # 130 and 49 powerings here
    calls = []
    real = scalars._ppowmod
    monkeypatch.setattr(scalars, "_ppowmod", lambda *args: calls.append(args) or real(*args))
    scalars._smallest_irreducible(p, e)
    assert len(calls) <= budget


def test_make_field_idempotent_and_errors():
    assert make_field(7, 2) is make_field(7, 2)
    with pytest.raises(NonPrime):
        make_field(6, 1)
    with pytest.raises(BoundExceeded):
        make_field(3, 30)


def test_one_trial_division_agrees_with_a_sieve():
    # is_prime reads _prime_factors: n is prime iff its one prime factor is n
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, limit, q))
    assert [n for n in range(-5, limit) if scalars.is_prime(n)] == [
        n for n in range(2, limit) if sieve[n]]
    for n in range(-5, limit):
        factors = scalars._prime_factors(n)
        assert all(sieve[q] and n % q == 0 for q in factors), n
        rest = n
        for q in factors:
            while rest % q == 0:
                rest //= q
        assert (rest == 1) if n >= 1 else not factors, n


HUGE_PRIME = 2**61 - 1


def primality_tests_only_within_the_field_bound(monkeypatch):
    """Patch is_prime, where scalars.prime_field reads it (the one primality
    test of every module), to fail on any n past the default field bound:
    trial division up to sqrt(2^61 - 1) would run for minutes, so the field
    bound must be checked first."""
    def is_prime(n):
        if n > scalars.DEFAULT_FIELD_BOUND:
            raise AssertionError(f"is_prime({n}) called before the field bound")
        return real(n)
    real = scalars.is_prime
    monkeypatch.setattr(scalars, "is_prime", is_prime)


def test_make_field_checks_the_bound_before_primality(monkeypatch):
    primality_tests_only_within_the_field_bound(monkeypatch)
    with pytest.raises(BoundExceeded, match=f"field size {HUGE_PRIME}\\^1 exceeds bound"):
        make_field(HUGE_PRIME, 1)
    # an extension degree past the bit length of the bound is refused without
    # powering p; the refusal is exact at every bound
    for bound in range(70):
        for p, e in itertools.product((2, 3, 4), range(1, 8)):
            if p**e > bound:
                with pytest.raises(BoundExceeded):
                    make_field(p, e, bound)
            elif p == 4:
                with pytest.raises(NonPrime):
                    make_field(p, e, bound)
            else:
                assert make_field(p, e, bound).order == p**e


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
            assert fixed == (x in {F.from_int(k) for k in range(p)})
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


def trace_by_frobenius_sum(x):
    acc = t = x
    for _ in range(x.field.e - 1):
        t = t.frobenius()
        acc = acc + t
    assert len(acc.coeffs) <= 1
    return acc.as_int()


def test_the_trace_form_gives_the_frobenius_sum():
    rng = random.Random(0)
    for p, e in ((2, 5), (3, 3), (5, 2)):
        for x in make_field(p, e).elements():
            assert x.trace_to_prime() == trace_by_frobenius_sum(x)
    for p, e in ((5, 5), (7, 7), (5, 10)):
        F = make_field(p, e)
        for _ in range(200):
            x = F.elem([rng.randrange(p) for _ in range(e)])
            assert x.trace_to_prime() == trace_by_frobenius_sum(x)


def test_the_trace_form_is_the_frobenius_sum_of_each_power_of_x():
    # Newton's identities against the e Frobenius images of x^j, on every
    # field with p^e <= 10^6; e >= p on many, where the j c_{e-j} term of
    # t_j drops out for j = 0 mod p
    fields = [make_field(p, e) for p in (2, 3, 5, 7, 11, 13)
              for e in range(1, 20) if p**e <= 10**6]
    assert sum(F.e >= F.p for F in fields) >= 30
    for F in fields:
        powers = [F.elem([0] * j + [1]) for j in range(F.e)]
        assert F.trace_form == tuple(map(trace_by_frobenius_sum, powers)), F


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
        g = F.generator
        n = F.order - 1
        seen = set()
        x = F.one()
        for _ in range(n):
            x = x * g
            seen.add(x)
        assert len(seen) == n  # full multiplicative order


def test_eps_pow_worked_values():
    assert eps_pow(1, 5) == Fraction(1, 5)
    assert eps_pow(Fraction(-1, 2), 5) == Fraction(2, 5)
    assert eps_pow(Fraction(3, 2), 3) == 0
    # check (2/5)*2 == -1/5 mod 1
    assert (eps_pow(Fraction(-1, 2), 5) * 2) % 1 == UnityExp(Fraction(-1, 5)).q


def test_eps_pow_additive_exhaustive():
    dens = (1, 2, 4)
    for ell in (3, 5, 7):
        for d1 in dens:
            for d2 in dens:
                for n1 in range(-8, 9):
                    for n2 in range(-8, 9):
                        q1, q2 = Fraction(n1, d1), Fraction(n2, d2)
                        lhs = (eps_pow(q1, ell) + eps_pow(q2, ell)) % 1
                        assert lhs == eps_pow(q1 + q2, ell)


def test_eps_pow_errors():
    with pytest.raises(NonInvertibleDenominator):
        eps_pow(Fraction(1, 3), 3)
    with pytest.raises(NonInvertibleDenominator):
        eps_pow(1, 5, eps=5)


def test_unity_exp_group_law():
    a = UnityExp(Fraction(3, 4))
    assert (a * 4).is_one() and not (a * 2).is_one()


# -- the one linear solver ---------------------------------------------------

def solve_by_fractions(A, b, p=None):
    """Oracle: Gauss-Jordan elimination on Fractions (or mod p), one
    right-hand side per call, free unknowns 0; None when inconsistent."""
    if p is None:
        aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(A, b)]
    else:
        aug = [[x % p for x in row] + [y % p] for row, y in zip(A, b)]
    m, n = len(aug), (len(A[0]) if A else 0)
    pivots = []
    for col in range(n):
        rr = len(pivots)
        piv = next((row for row in range(rr, m) if aug[row][col]), None)
        if piv is None:
            continue
        aug[rr], aug[piv] = aug[piv], aug[rr]
        c = 1 / aug[rr][col] if p is None else pow(aug[rr][col], p - 2, p)
        aug[rr] = [x * c if p is None else x * c % p for x in aug[rr]]
        for row in range(m):
            f = aug[row][col]
            if row != rr and f:
                aug[row] = [x - f * y if p is None else (x - f * y) % p
                            for x, y in zip(aug[row], aug[rr])]
        pivots.append(col)
    if any(aug[row][n] for row in range(len(pivots), m)):
        return None
    x = [Fraction(0) if p is None else 0] * n
    for row, col in enumerate(pivots):
        x[col] = aug[row][n]
    return x


def _free_columns(A, p=None):
    # a column is free when it lies in the span of the columns before it
    return {j for j in range(len(A[0]))
            if solve_by_fractions([row[:j] for row in A], [row[j] for row in A], p) is not None}


def _times(A, x, p=None):
    Ax = [sum(a * v for a, v in zip(row, x)) for row in A]
    return [v % p for v in Ax] if p else Ax


def _deficient(rng, m, n, lo=-3, hi=3):
    """A random integer m x n matrix, made rank-deficient in one of several
    ways: a zero, repeated or summed row, a zero or repeated column."""
    A = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    kind = rng.randrange(6)
    if kind == 1 and m > 1:
        A[rng.randrange(m)] = [0] * n
    elif kind == 2 and m > 1:
        A[-1] = list(A[0])
    elif kind == 3 and m > 2:
        A[-1] = [x + y for x, y in zip(A[0], A[1])]
    elif kind == 4 and n > 1:
        j = rng.randrange(n)
        for row in A:
            row[j] = 0
    elif kind == 5 and n > 1:
        for row in A:
            row[-1] = row[0]
    return A


def test_several_right_hand_sides_give_what_one_at_a_time_gives():
    rng = random.Random(14)
    for p in (None, 3, 7):
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            A = _deficient(rng, m, n)
            bs = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(8)]
            bs += [_times(A, [rng.randint(-2, 2) for _ in range(n)], p) for _ in range(8)]
            solve = solve_linear(A, p)
            together = [solve(b) for b in bs]
            assert together == [solve_linear(A, p)(b) for b in bs]
            assert [solve(b) for b in reversed(bs)] == together[::-1]
            assert together == [solve_by_fractions(A, b, p) for b in bs]


def test_consistency_rows_vanish_exactly_on_the_span():
    # over Q and over F_p: b is a combination of the columns of A iff every
    # consistency row is orthogonal to b (mod p), and there are m - rank A
    # of them
    rng = random.Random(1999)
    for p in (None, 3, 7):
        for _ in range(80):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            A = _deficient(rng, m, n)
            solve = solve_linear(A, p)
            rank = n - len(_free_columns(A, p))
            assert len(solve.consistency) == m - rank
            bs = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(8)]
            bs += [_times(A, [rng.randint(-2, 2) for _ in range(n)], p) for _ in range(8)]
            for b in bs:
                values = [sum(map(operator.mul, row, b)) for row in solve.consistency]
                vanish = not any(v % p if p else v for v in values)
                assert vanish == (solve_by_fractions(A, b, p) is not None)


@pytest.mark.parametrize("p", [3, 5])
def test_solver_over_fp_against_brute_force(p):
    rng = random.Random(p)
    for m, n in itertools.product(range(1, 4), repeat=2):
        for _ in range(6):
            A = _deficient(rng, m, n, 0, p - 1)
            # every x, grouped by A x
            by_image = {}
            for x in itertools.product(range(p), repeat=n):
                by_image.setdefault(tuple(_times(A, x, p)), []).append(list(x))
            free = _free_columns(A, p)
            solve = solve_linear(A, p)
            for b in itertools.product(range(p), repeat=m):
                x = solve(list(b))
                sols = by_image.get(b, [])
                if not sols:
                    assert x is None
                    continue
                # the one solution whose free unknowns are 0
                (want,) = [y for y in sols if not any(y[j] for j in free)]
                assert x == want


def test_solver_over_q_is_exact_on_deficient_matrices():
    rng = random.Random(1968)
    inconsistent = 0
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = _deficient(rng, m, n)
        free = _free_columns(A)
        solve = solve_linear(A)
        x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        for b in (_times(A, x0), [rng.randint(-5, 5) for _ in range(m)]):
            x = solve(b)
            if x is None:
                inconsistent += 1
                assert solve_by_fractions(A, b) is None
                continue
            assert all(isinstance(v, Fraction) for v in x)
            assert _times(A, x) == b
            assert not any(x[j] for j in free)
            assert x == solve_by_fractions(A, b)
        # a zero row or a repeated row with two different entries of b
        if not any(A[-1]) or (m > 1 and A[-1] == A[0]):
            b = [0] * m
            b[-1] = 1
            assert solve(b) is None
            inconsistent += 1
    assert inconsistent > 50


ALL_TYPES = ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
             + [f"C{r}" for r in range(2, 9)] + [f"D{r}" for r in range(4, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("t", ALL_TYPES)
def test_fundamental_weights_invert_the_cartan_matrix(t):
    rs = RootSystem(parse_cartan_type(t))
    C, X, r = rs.cartan, rs.fundamental_weights, rs.rank
    assert all(isinstance(v, Fraction) for row in X for v in row)
    assert [_times(C, x) for x in X] == [[int(i == j) for j in range(r)] for i in range(r)]
    assert X == tuple(tuple(solve_by_fractions(C, [int(i == j) for j in range(r)]))
                      for i in range(r))


# -- one reduction per matrix -----------------------------------------------

def _count_reductions(monkeypatch, module):
    """Count the reductions solve_linear makes when `module` calls it, and
    the right-hand sides their solvers are given."""
    seen = {"reductions": [], "solves": 0}
    reduce = scalars.solve_linear

    def counted(A, p=None):
        seen["reductions"].append((len(A), p))
        solve = reduce(A, p)

        def counted_solve(b):
            seen["solves"] += 1
            return solve(b)
        counted_solve.consistency = solve.consistency
        return counted_solve
    monkeypatch.setattr(module, "solve_linear", counted)
    return seen


@pytest.mark.parametrize("simple", [[0, 1], [1, 2, 3], []])
def test_is_parabolic_reduces_once_per_subsystem(monkeypatch, simple):
    rs = RootSystem(parse_cartan_type("F4"))  # fresh: no subsystem memo
    gens = [tuple(int(k == j) for k in range(4)) for j in simple]
    seen = _count_reductions(monkeypatch, rootdata)
    sub = subsystem_classify(rs, close_up(rs, gens))
    assert sub.is_parabolic and sub.is_parabolic
    # the consistency rows of the one reduction decide it: no solve
    assert seen == {"reductions": [(4, None)], "solves": 0}
    # the long roots of F4 form a D4, which is not parabolic
    long_roots = [b for b in rs.all_roots() if rs.norm(b) == 2]
    assert not subsystem_classify(rs, long_roots).is_parabolic
    assert seen == {"reductions": [(4, None)] * 2, "solves": 0}


def test_fundamental_weights_reduce_once(monkeypatch):
    seen = _count_reductions(monkeypatch, rootdata)
    for t in ("G2", "F4", "E8"):
        rs = RootSystem(parse_cartan_type(t))
        rs.fundamental_weights
        rs.rho_weight_pairs
        assert seen["reductions"][-1] == (rs.rank, None) and seen["solves"] == rs.rank
        seen["solves"] = 0
    assert len(seen["reductions"]) == 3


def test_artin_schreier_reduces_once_per_field(monkeypatch, capsys):
    big = make_field(7, 7)
    monkeypatch.delitem(vars(big), "as_solver", raising=False)  # as if F_{7^7} were new
    seen = _count_reductions(monkeypatch, scalars)
    for c in range(1, 7):
        assert cli.main(["modular", "blocks", "--type", "A1", "--p", "7",
                         "--chi-s", f"AS({c})", "--support", ""]) == 0
        assert cli.main(["modular", "unramified", "--type", "A2", "--p", "7",
                         "--weight", f"AS({c}),AS({7 - c})"]) == 0
    capsys.readouterr()
    assert seen["reductions"] == [(7, 7)]
    assert seen["solves"] > 6
