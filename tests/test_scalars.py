"""Ring arithmetic and the exact linear solvers."""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadembed.algmat import block2
from quadembed.scalars import (
    QQ,
    RingError,
    ScalarMatrix,
    ShapeError,
    SpanSolver,
    ZZ,
    Zmod,
    is_unimodular,
    parse_scalar,
    rank_in_ring,
    rank_over_fractions,
    solve_in_ring,
)


def ints(ring, values):
    return [ring(v) for v in values]


def test_is_unit_examples():
    assert ZZ(1).is_unit()
    assert Zmod(6)(5).is_unit()
    assert not ZZ(2).is_unit()


def test_is_nonzerodivisor_examples():
    assert ZZ(3).is_nonzerodivisor()
    assert not Zmod(6)(2).is_nonzerodivisor()
    assert not QQ(0).is_nonzerodivisor()


def test_unit_implies_nonzerodivisor():
    candidates = [ZZ(v) for v in range(-6, 7)]
    candidates += [QQ(Fraction(p, q)) for p in range(-3, 4) for q in (1, 2, 3)]
    for m in (2, 4, 6, 7, 12):
        candidates += [Zmod(m)(v) for v in range(m)]
    for r in candidates:
        if r.is_unit():
            assert r.is_nonzerodivisor()


def test_scalar_strings_round_trip():
    cases = [(ZZ(-7), "-7"), (QQ(Fraction(3, 4)), "3/4"), (Zmod(6)(5), "5 mod 6")]
    for s, text in cases:
        assert str(s) == text
        assert parse_scalar(text, s.ring) == s


def test_parse_scalar_refuses_what_it_cannot_read_exactly():
    with pytest.raises(RingError):
        parse_scalar("1/0", QQ)
    with pytest.raises(RingError):
        parse_scalar("1 mod 3", Zmod(5))
    with pytest.raises(RingError):
        parse_scalar("5 mod 7", Zmod(6))
    assert parse_scalar("5 mod 6", Zmod(6)) == Zmod(6)(5)
    assert parse_scalar(" 11 ", Zmod(6)) == Zmod(6)(5)


def test_malformed_text_is_a_ring_error_naming_the_text_and_its_form():
    """Text that is no scalar or ring name raised Python's bare ValueError
    (int's words, or "too many values to unpack"); now a RingError names the
    text and the form it should take, through the JSON readers too."""
    from quadembed.qspace import QuadraticSpace
    from quadembed.scalars import ring_from_name

    for call, text, form in (
        (lambda: parse_scalar("1/2/3", QQ), "1/2/3", "n/d"),
        (lambda: parse_scalar("1/", QQ), "1/", "n/d"),
        (lambda: parse_scalar("x", ZZ), "x", "n"),
        (lambda: parse_scalar("x", QQ), "x", "n/d"),
        (lambda: parse_scalar("3 mod x", Zmod(6)), "3 mod x", "n mod m"),
        (lambda: parse_scalar("x mod 6", Zmod(6)), "x mod 6", "n mod m"),
        (lambda: ring_from_name("Z/x"), "Z/x", "Z/m"),
        (lambda: ring_from_name("Z/"), "Z/", "Z/m"),
        (lambda: ScalarMatrix.from_json([["1/2/3"]], QQ), "1/2/3", "n/d"),
        (lambda: QuadraticSpace.from_json({"ring": "Z", "q": [["x"]]}), "x", "n"),
        (lambda: QuadraticSpace.from_json({"ring": "Z/x", "q": [["1"]]}), "Z/x", "Z/m"),
        # text str() never writes, which int() had read as a number
        (lambda: parse_scalar("1_000", ZZ), "1_000", "n"),
        (lambda: parse_scalar("１２", ZZ), "１２", "n"),
        (lambda: parse_scalar("1 / 2", QQ), "1 / 2", "n/d"),
        (lambda: ring_from_name("Z/1_2"), "Z/1_2", "Z/m"),
    ):
        with pytest.raises(RingError) as err:
            call()
        named, _, use = str(err.value).partition("; use ")
        assert repr(text) in named and form in use, err.value


def test_rational_canonical_form():
    s = QQ(Fraction(4, -6))
    assert s.value == Fraction(-2, 3)
    assert str(s) == "-2/3"


def test_modular_canonical_form():
    assert Zmod(5)(-3).value == 2
    assert (Zmod(5)(4) + Zmod(5)(3)).value == 2


def test_equality_agrees_with_hash():
    assert ZZ(2) == 2 and hash(ZZ(2)) == hash(2)
    assert ZZ(2) in {2}
    half = Fraction(1, 2)
    assert QQ(half) == half and hash(QQ(half)) == hash(half)
    assert QQ(2) == 2 and hash(QQ(2)) == hash(2)
    # a residue equals only its canonical representative
    assert Zmod(5)(2) == 2 and hash(Zmod(5)(2)) == hash(2)
    assert Zmod(5)(2) != 7 and Zmod(5)(2) != -3
    assert Zmod(5)(7) in {2}


def test_mixed_ring_arithmetic_rejected():
    with pytest.raises(RingError):
        ZZ(1) + QQ(1)
    # a plain int is no matrix: TypeError, as for m * 2
    m = ScalarMatrix.identity(2, ZZ)
    for call in (lambda: m + 1, lambda: m - 1):
        with pytest.raises(TypeError):
            call()


def test_matrices_subtract_without_negating_the_operand(monkeypatch):
    """`a - b` had computed `a + -b`, building the negation of b as a whole
    matrix first; now it subtracts entry by entry, and term maps (Clifford
    elements too) term by term."""
    from quadembed.algmat import AlgMatrix, CliffordCoeffs
    from quadembed.clifford import CliffordElement, monomial
    from quadembed.qspace import hyperbolic

    half, third = QQ(Fraction(1, 2)), QQ(Fraction(1, 3))
    a = ScalarMatrix.from_rows([[half, QQ(1)], [QQ(0), QQ(3)]])
    b = ScalarMatrix.from_rows([[third, QQ(-1)], [QQ(2), QQ(3)]])
    h = hyperbolic(1, ZZ)
    e1, e2 = monomial(h, 1), monomial(h, 2)
    x, y = AlgMatrix(CliffordCoeffs(h), [[e1]]), AlgMatrix(CliffordCoeffs(h), [[e2]])
    for cls in (ScalarMatrix, AlgMatrix, CliffordElement):
        monkeypatch.setattr(cls, "__neg__", lambda self: pytest.fail("negated an operand"))
    assert a - b == ScalarMatrix.from_rows([[QQ(Fraction(1, 6)), QQ(2)], [QQ(-2), QQ(0)]])
    assert b - b == ScalarMatrix.zero(2, 2, QQ)
    assert e1 - e2 == CliffordElement(h, {1: ZZ(1), 2: ZZ(-1)})
    assert x - y == AlgMatrix(CliffordCoeffs(h), [[e1 - e2]])


def test_solve_examples():
    a = ScalarMatrix.of_ints(ZZ, [[2]])
    assert solve_in_ring(a, ints(ZZ, [4])) == ints(ZZ, [2])
    assert solve_in_ring(a, ints(ZZ, [3])) is None
    # underdetermined over Z: with the free variable at zero the solution is
    # not integral (x = 1/2, resp. y = -1/2), but integral solutions exist
    for rows, x in (([[2, 3]], [-1, 1]), ([[2, 4, 3], [0, 6, 3]], [1, -1, 1])):
        a = ScalarMatrix.of_ints(ZZ, rows)
        b = a.apply(ints(ZZ, x))
        span = SpanSolver([a.col(j) for j in range(a.cols)], ZZ)
        for got in (solve_in_ring(a, b), span.solve(b)):
            assert got is not None
            assert a.apply(got) == b


def back_substitute(aug):
    """Independent oracle for upper-triangular systems over Q."""
    n = len(aug)
    xs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = aug[i][n] - sum(aug[i][j] * xs[j] for j in range(i + 1, n))
        xs[i] = s / aug[i][i]
    return xs


def test_solve_triangular_matches_back_substitution():
    oracle = back_substitute([[Fraction(1), Fraction(1), Fraction(3)],
                              [Fraction(0), Fraction(1), Fraction(1)]])
    assert oracle == [Fraction(2), Fraction(1)]
    a = ScalarMatrix.of_ints(QQ, [[1, 1], [0, 1]])
    assert solve_in_ring(a, ints(QQ, [3, 1])) == ints(QQ, [2, 1])


def test_rank_examples():
    assert rank_over_fractions(ScalarMatrix.identity(3, ZZ)) == 3
    assert rank_over_fractions(ScalarMatrix.of_ints(ZZ, [[1, 2], [2, 4]])) == 1
    with pytest.raises(RingError):
        rank_over_fractions(ScalarMatrix.identity(2, Zmod(5)))


def rref_rank(rows):
    """Independent rank oracle: plain fraction row reduction."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_matches_rref_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(150):
        rows = [
            [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]
        ]
        width = len(rows[0])
        for _ in range(rng.randint(0, 4)):
            rows.append([rng.randint(-5, 5) for _ in range(width)])
        m = ScalarMatrix.of_ints(ZZ, rows)
        assert rank_over_fractions(m) == rref_rank(rows)


def rank_mod_prime(rows, p):
    """Independent rank oracle over the field Z/p: row reduction mod p."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_in_ring_is_the_least_rank_mod_a_prime_dividing_m():
    """McCoy's rank over Z/m against brute force: the least rank mod a
    prime p | m, on matrices rich in zero divisors and nilpotents."""
    rng = random.Random(17)
    for _ in range(400):
        m = rng.randint(2, 60)
        primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        pool = [0, 0, 1, m - 1, *primes, m // primes[0], rng.randrange(m)]
        rows = [[rng.choice(pool) % m for _ in range(c)] for _ in range(r)]
        want = min(rank_mod_prime(rows, p) for p in primes)
        ring = Zmod(m)
        assert rank_in_ring(ScalarMatrix.of_ints(ring, rows), ring) == want, (m, rows)
        assert rank_in_ring([ints(ring, row) for row in rows], ring) == want, (m, rows)


def test_rank_in_ring_worked_cases():
    z6 = Zmod(6)
    # 2 vanishes mod 2, so the McCoy rank of [2] is 0 although 2 != 0
    assert rank_in_ring([ints(z6, [2])], z6) == 0
    # [2] and [3] are each dependent mod one prime of 6, together rank 1
    assert rank_in_ring([ints(z6, [2]), ints(z6, [3])], z6) == 1
    rows = [ScalarMatrix.of_ints(z6, [[2, 3]]), ScalarMatrix.of_ints(z6, [[4, 0]])]
    assert rank_in_ring(rows, z6) == 1
    # over Z and Q the certificate is the rank over Q
    assert rank_in_ring([ints(ZZ, [2, 3]), ints(ZZ, [4, 0])], ZZ) == 2
    assert rank_in_ring(ScalarMatrix.of_ints(QQ, [[1, 2], [2, 4]]), QQ) == 1


def test_rank_over_fractions_refuses_modular_vectors():
    z6 = Zmod(6)
    rows = [ScalarMatrix.of_ints(z6, [[2, 3]]), ScalarMatrix.of_ints(z6, [[4, 0]])]
    with pytest.raises(RingError):
        rank_over_fractions(rows)  # ranking the residues over Q would give 2
    with pytest.raises(RingError):
        rank_over_fractions([ints(z6, [2, 3]), ints(z6, [4, 0])])
    # the rank is taken over the input's own ring, so Z and Q vectors do not mix
    with pytest.raises(RingError):
        rank_over_fractions([ints(ZZ, [1, 2]), ints(QQ, [2, 4])])


def test_vectors_of_another_ring_are_refused():
    """A solver or a rank reads only vectors over its own ring: a raw
    value of another ring would be misread (5 mod 6 as the integer 5)."""
    half = QQ(Fraction(1, 2))
    calls = [
        lambda: SpanSolver([[half]], ZZ).solve([ZZ(1)]),
        lambda: SpanSolver([[Zmod(6)(5)]], ZZ).solve([ZZ(5)]),
        lambda: SpanSolver([[ZZ(2)]], ZZ).solve([Zmod(4)(2)]),
        lambda: SpanSolver([[ZZ(1)]], ZZ).solve([half]),
        lambda: rank_in_ring([[ZZ(2)], [ZZ(3)]], Zmod(6)),
        lambda: rank_in_ring(ScalarMatrix.identity(2, ZZ), QQ),
        lambda: SpanSolver([ScalarMatrix.identity(2, Zmod(6))], ZZ),
        lambda: solve_in_ring(ScalarMatrix.identity(1, QQ), [ZZ(1)]),
        # a Q row's denominator was dropped, so [1/2] read as unimodular
        lambda: is_unimodular([ScalarMatrix.from_rows([[half]])]),
        lambda: is_unimodular([[half]]),
        lambda: is_unimodular([[Zmod(5)(4)]]),
        # a plain int is an entry of no ring
        lambda: is_unimodular([[1]]),
        lambda: rank_in_ring([[1, 2]], ZZ),
        lambda: rank_in_ring([[ZZ(1), 2]], ZZ),
        lambda: SpanSolver([[1]], QQ),
        lambda: SpanSolver([[ZZ(1)]], ZZ).solve([1]),
    ]
    for call in calls:
        with pytest.raises(RingError, match="not over"):
            call()
    with pytest.raises(RingError):
        rank_over_fractions([[1, 2]])
    # zero-length vectors have rank 0, however many
    for vectors in ([[]], [[], []]):
        assert rank_over_fractions(vectors) == 0
        for ring in (ZZ, QQ, Zmod(6)):
            assert rank_in_ring(vectors, ring) == 0


def test_vectors_of_unequal_length_are_refused():
    # a length read off the first vector solves [0, 1] as [5, 0] over Z/6,
    # which does not substitute back, and truncates or overruns over Z and Q
    for ring in (ZZ, QQ, Zmod(6)):
        short, long = ints(ring, [1, 0]), ints(ring, [0, 1, 5])
        for vectors in ([short, long], [long, short]):
            with pytest.raises(ShapeError, match="equal length"):
                SpanSolver(vectors, ring)
            with pytest.raises(ShapeError, match="equal length"):
                rank_in_ring(vectors, ring)
            if ring in (ZZ, QQ):
                with pytest.raises(ShapeError, match="equal length"):
                    rank_over_fractions(vectors)
        # a Scalar where a vector belongs had raised TypeError
        for call in (rank_in_ring, SpanSolver):
            with pytest.raises(ShapeError, match="not a Scalar"):
                call(short, ring)
        with pytest.raises(ShapeError, match="not a Scalar"):
            SpanSolver([short], ring).solve(ring(1))


def test_unit_pivots_first_matches_the_rank_oracles():
    """The unit-pivot rank against plain row reduction on sparse, +-1-rich
    matrices over Z, Q (rows over their own denominators) and Z/m: 1 x k
    and k x 1 shapes, zero rows, all-even input with no unit pivot, and
    densities on both sides of the hand-off to dense elimination."""
    rng = random.Random(23)
    shapes = [(1, k) for k in range(1, 6)] + [(k, 1) for k in range(1, 6)]
    for trial in range(600):
        r, c = shapes[trial] if trial < len(shapes) else (rng.randint(1, 9), rng.randint(1, 9))
        pool = [2, -2, 4, 6] if trial % 5 == 0 else [1, -1, 1, -1, 2, -3, 5]
        density = rng.choice((0.1, 0.25, 0.5, 0.75, 1.0))
        rows = [[rng.choice(pool) if rng.random() < density else 0 for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.3:
            rows[rng.randrange(r)] = [0] * c
        want = rref_rank(rows)
        assert rank_over_fractions(ScalarMatrix.of_ints(ZZ, rows)) == want, rows
        assert rank_in_ring([ints(ZZ, row) for row in rows], ZZ) == want, rows
        q_rows = [[QQ(Fraction(x, d)) for x in row] for row, d in zip(rows, rng.choices((1, 2, 3, 6), k=r))]
        assert rank_over_fractions(q_rows) == want, q_rows
        assert rank_in_ring(ScalarMatrix.from_rows(q_rows), QQ) == want, q_rows
        m = rng.choice((2, 4, 6, 12, 30, 101))
        want = min(rank_mod_prime(rows, p) for p in (2, 3, 5, 101) if m % p == 0)
        ring = Zmod(m)
        assert rank_in_ring(ScalarMatrix.of_ints(ring, rows), ring) == want, (m, rows)
        assert rank_in_ring([ints(ring, row) for row in rows], ring) == want, (m, rows)
    assert rank_over_fractions([]) == 0
    for ring in (ZZ, QQ, Zmod(6)):
        assert rank_in_ring([], ring) == 0


def test_dense_input_goes_to_bareiss_unconverted(monkeypatch):
    import quadembed.scalars as scalars

    calls, real = [], scalars._unit_pivots
    monkeypatch.setattr(scalars, "_unit_pivots", lambda rows, m: calls.append(m) or real(rows, m))
    rng = random.Random(9)
    dense = [[rng.choice((-9, -1, 1, 2, 7)) for _ in range(12)] for _ in range(12)]
    assert rank_over_fractions(ScalarMatrix.of_ints(ZZ, dense)) == rref_rank(dense)
    assert calls == []
    assert rank_over_fractions(ScalarMatrix.identity(12, QQ)) == 12
    assert calls == [0]


def test_rank_transpose_invariant():
    rng = random.Random(11)
    for _ in range(200):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        m = ScalarMatrix.of_ints(ZZ, rows)
        assert rank_over_fractions(m) == rank_over_fractions(m.transpose())


def test_solve_certifies_solution_on_random_integer_systems():
    rng = random.Random(3)
    hits = 0
    for _ in range(500):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        a = ScalarMatrix.of_ints(
            ZZ, [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        )
        b = ints(ZZ, [rng.randint(-9, 9) for _ in range(n)])
        x = solve_in_ring(a, b)
        if x is not None:
            hits += 1
            assert a.apply(x) == b
    assert hits > 10  # sanity: the sampler does produce solvable systems


def test_integer_solve_matches_brute_force():
    rng = random.Random(31)
    for _ in range(300):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)]
        b = [rng.randint(-4, 4) for _ in range(n)]
        a = ScalarMatrix.of_ints(ZZ, rows)
        got = solve_in_ring(a, ints(ZZ, b))
        box = [
            x
            for x in product(range(-4, 5), repeat=k)
            if all(sum(r[j] * x[j] for j in range(k)) == bi for r, bi in zip(rows, b))
        ]
        if box:
            assert got is not None
        if got is not None:
            assert a.apply(got) == ints(ZZ, b)


def test_modular_solve_matches_brute_force():
    rng = random.Random(5)
    for m, size in ((2, 2), (4, 2), (6, 2), (9, 2), (8, 3), (12, 3)):
        ring = Zmod(m)
        for _ in range(40):
            rows = [[rng.randrange(m) for _ in range(size)] for _ in range(size)]
            a = ScalarMatrix.of_ints(ring, rows)
            b = [ring(rng.randrange(m)) for _ in range(size)]
            got = solve_in_ring(a, b)
            solutions = [
                x
                for x in product(range(m), repeat=size)
                if all(
                    sum(r * xj for r, xj in zip(rows[i], x)) % m == b[i].value
                    for i in range(size)
                )
            ]
            if got is None:
                assert not solutions
            else:
                assert a.apply(got) == b


def test_modular_solve_nonunit_pivots():
    # every coefficient is a zero divisor mod 6
    ring = Zmod(6)
    a = ScalarMatrix.of_ints(ring, [[2, 3], [4, 3]])
    b = [ring(5), ring(1)]
    x = solve_in_ring(a, b)
    assert x is not None
    assert a.apply(x) == b
    # no unit anywhere mod 64 either; the solve must not search the values
    rng = random.Random(37)
    ring = Zmod(64)
    a = ScalarMatrix.of_ints(ring, [[2 * rng.randrange(32) for _ in range(6)] for _ in range(6)])
    b = a.apply([ring(rng.randrange(64)) for _ in range(6)])
    start = time.perf_counter()
    x = solve_in_ring(a, b)
    assert time.perf_counter() - start < 1.0
    assert x is not None
    assert a.apply(x) == b


def test_a_float_modulus_is_refused():
    """Z/6.0 had been a ring of floats, in a package with no floating point."""
    with pytest.raises(RingError, match="6.0 is not an integer"):
        Zmod(6.0)


def test_a_modulus_that_is_not_an_int_is_a_ring_error():
    for modulus in ("6", None, True, False, 1, -6, Fraction(6)):
        with pytest.raises(RingError, match="not an integer at least 2"):
            Zmod(modulus)


def test_the_modular_ring_class_keeps_one_instance_per_modulus():
    from quadembed.scalars import ModularRing

    assert ModularRing(6) is Zmod(6) and ModularRing(6) is not Zmod(4)
    a = ScalarMatrix.identity(2, ModularRing(6))
    assert a + ScalarMatrix.identity(2, Zmod(6)) == a.scale(Zmod(6)(2))


def test_modular_modulus_cap():
    """Modular solves have no cap on the modulus."""
    ring = Zmod(101)
    a = ScalarMatrix.of_ints(ring, [[3, 7], [50, 100]])
    b = [ring(1), ring(0)]
    x = solve_in_ring(a, b)
    assert x is not None
    assert a.apply(x) == b


def cofactor_det(rows):
    """Independent determinant oracle by first-row expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        m = ScalarMatrix.of_ints(ZZ, rows)
        assert m.determinant() == ZZ(cofactor_det(rows))


def test_is_unimodular_matches_the_cofactor_determinant():
    """Unit pivots then Bareiss against |det| = 1 by cofactors, on square
    matrices rich in +-1 (zero rows, all-even input with no unit pivot,
    dense input) and on non-square shapes, which are never unimodular."""
    rng = random.Random(29)
    for trial in range(400):
        n = rng.randint(1, 5)
        pool = [2, -2, 4] if trial % 7 == 0 else [1, -1, 1, -1, 2, -3]
        density = rng.choice((0.25, 0.5, 1.0))
        rows = [[rng.choice(pool) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        if trial % 11 == 0:
            rows[rng.randrange(n)] = [0] * n
        want = abs(cofactor_det(rows)) == 1
        assert is_unimodular([ints(ZZ, row) for row in rows]) is want, rows
        assert is_unimodular([ScalarMatrix.of_ints(ZZ, [row]) for row in rows]) is want, rows
    assert is_unimodular([ints(ZZ, [1, 0])]) is False
    assert is_unimodular([ints(ZZ, [1]), ints(ZZ, [1])]) is False
    assert is_unimodular([ints(ZZ, [1, 1]), ints(ZZ, [1, -1])]) is False  # det -2


def test_is_scalar_matches_a_solve_against_the_identity():
    """`ScalarMatrix.is_scalar` against SpanSolver([I]): Q entries over
    different denominators, Z/6 residues that wrap to equal values, and
    sampled matrices near and far from scalar."""
    rng = random.Random(31)
    cases = [
        (QQ, [[Fraction(1, 2), 0], [0, Fraction(2, 4)]]),
        (QQ, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]),
        (Zmod(6), [[1, 6], [-12, 7]]),
        (Zmod(6), [[1, 3], [0, 1]]),
        (Zmod(6), [[0, 0], [0, 6]]),
        (ZZ, [[5]]),
        (ZZ, [[2, 0, 0], [0, 2, 0], [0, 0, -2]]),
    ]
    for _ in range(200):
        ring = rng.choice((ZZ, QQ, Zmod(6)))
        n = rng.randint(1, 4)
        c = rng.choice([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))] if ring is QQ else [rng.randint(-7, 7)])
        rows = [[c if i == j else 0 for j in range(n)] for i in range(n)]
        if rng.random() < 0.6:
            rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1, 6, Fraction(1, 2)) if ring is QQ else (1, -1, 6))
        cases.append((ring, rows))
    for ring, rows in cases:
        m = ScalarMatrix.from_rows([[ring(x) for x in row] for row in rows])
        want = SpanSolver([ScalarMatrix.identity(m.rows, ring)], ring).solve(m) is not None
        assert m.is_scalar() is want, (ring.name, rows)
    with pytest.raises(ShapeError):
        ScalarMatrix.of_ints(ZZ, [[1, 0]]).is_scalar()


def test_determinant_modular_matches_oracle():
    rng = random.Random(17)
    for m in (4, 6, 9):
        ring = Zmod(m)
        for _ in range(60):
            n = rng.randint(1, 4)
            rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
            mat = ScalarMatrix.of_ints(ring, rows)
            assert mat.determinant() == ring(cofactor_det(rows) % m)
    # past the sizes a cofactor expansion reaches: the integer determinant mod m
    for n in range(10, 17):
        m = rng.choice((6, 64, 101))
        rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
        want = ScalarMatrix.of_ints(ZZ, rows).determinant().value % m
        assert ScalarMatrix.of_ints(Zmod(m), rows).determinant() == Zmod(m)(want)


def test_big_integer_determinant_is_exact():
    # 12x12 with entries up to 9 overflows 64-bit intermediates comfortably
    rng = random.Random(19)
    rows = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
    m = ScalarMatrix.of_ints(ZZ, rows)
    det = m.determinant()
    # determinant changes sign under a row swap: independent cross-check
    swapped = rows[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert ScalarMatrix.of_ints(ZZ, swapped).determinant() == -det


def test_inverse_round_trip():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        m = ScalarMatrix.from_rows([[QQ(v) for v in row] for row in rows])
        if m.determinant().is_zero:
            continue
        assert m * m.inverse() == ScalarMatrix.identity(n, QQ)


def test_inverse_modular():
    ring = Zmod(6)
    m = ScalarMatrix.of_ints(ring, [[1, 2], [0, 5]])
    assert m * m.inverse() == ScalarMatrix.identity(2, ring)
    ring = Zmod(26)
    rng = random.Random(41)
    m = ScalarMatrix.of_ints(ring, [[rng.randrange(26) for _ in range(10)] for _ in range(10)])
    while not m.determinant().is_unit():
        m = ScalarMatrix.of_ints(ring, [[rng.randrange(26) for _ in range(10)] for _ in range(10)])
    assert m * m.inverse() == ScalarMatrix.identity(10, ring)
    assert m.inverse() * m == ScalarMatrix.identity(10, ring)


def test_span_solver_agrees_with_solve_in_ring():
    rng = random.Random(29)
    for ring in (ZZ, QQ, Zmod(12)):
        for _ in range(60):
            n, k = rng.randint(1, 5), rng.randint(1, 4)
            cols = [
                [ring(rng.randint(-4, 4)) for _ in range(n)] for _ in range(k)
            ]
            solver = SpanSolver(cols, ring)
            target = [ring(rng.randint(-4, 4)) for _ in range(n)]
            a = ScalarMatrix.from_rows(
                [[cols[j][i] for j in range(k)] for i in range(n)]
            )
            direct = solve_in_ring(a, target)
            cached = solver.solve(target)
            assert (direct is None) == (cached is None)
            if direct is not None:
                assert a.apply(cached) == target


def full_negation_bareiss(rows, cols, pivots, jordan=True):
    """Bareiss as it read before the carried sign: a pivot equal to minus
    the previous one rewrites every row clear of its column as its negation."""
    n = len(rows)
    sign = prev = 1
    for c in cols:
        r = len(pivots)
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        prow = rows[r]
        pc = prow[c]
        for i in range(0 if jordan else r + 1, n):
            f = rows[i][c]
            if i != r and (f or pc != prev):
                rows[i] = [(x * pc - f * y) // prev for x, y in zip(rows[i], prow)]
        pivots.append(c)
        prev = pc
    return prev, sign


def bareiss_inputs(rng):
    """Dense rows, sparse 0/+-1 rows, and rows whose pivots alternate in sign."""
    n, k = rng.randint(1, 7), rng.randint(1, 9)
    yield [[rng.randint(-5, 5) for _ in range(k)] for _ in range(n)]
    yield [[rng.choice((0, 0, 0, 1, -1)) for _ in range(k)] for _ in range(n)]
    rows = [[(-1) ** i if i == j else rng.choice((0, 0, 1, -1, 2)) * (j > i) for j in range(k)]
            for i in range(n)]
    rng.shuffle(rows)
    yield rows


def test_bareiss_carried_sign_leaves_the_full_negation_integers():
    import quadembed.scalars as scalars

    rng = random.Random(41)
    for _ in range(400):
        for rows in bareiss_inputs(rng):
            k = len(rows[0])
            split = rng.randint(0, k)
            for jordan in (True, False):
                got, want = [r[:] for r in rows], [r[:] for r in rows]
                gp, wp = [], []
                g = scalars._bareiss(got, range(split), gp, jordan=jordan)
                w = full_negation_bareiss(want, range(split), wp, jordan=jordan)
                if jordan:
                    assert got == want
                assert (g, gp) == (w, wp)


def test_span_solver_z_answers_survive_the_carried_sign(monkeypatch):
    import quadembed.scalars as scalars

    rng = random.Random(43)
    cases, big_d = [], 0
    while big_d < 100:
        n, k = rng.randint(2, 6), rng.randint(2, 6)
        base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k - 1)]
        dep = [sum(rng.randint(-2, 2) * v[i] for v in base) for i in range(n)]
        cols = [[ZZ(x) for x in c] for c in base + [dep]]
        targets = [[ZZ(rng.randint(-6, 6)) for _ in range(n)] for _ in range(3)]
        targets.append([sum((rng.randint(-3, 3) * c[i] for c in cols), ZZ(0)) for i in range(n)])
        solver = SpanSolver(cols, ZZ)
        if abs(solver._d) > 1:
            big_d += 1
        cases.append((cols, targets, [solver.solve(t) for t in targets]))
    monkeypatch.setattr(scalars, "_bareiss", full_negation_bareiss)
    for cols, targets, got in cases:
        solver = SpanSolver(cols, ZZ)
        assert [solver.solve(t) for t in targets] == got


def test_span_solver_z_solves_run_no_echelon(monkeypatch):
    """Over Z the Howell form of the free columns mod |d| depends on the span
    alone: the solver builds it once, and a solve runs no `_echelon`."""
    import quadembed.scalars as scalars

    a = ScalarMatrix.of_ints(ZZ, [[2, 4, 3], [0, 6, 3]])
    solver = SpanSolver([a.col(j) for j in range(a.cols)], ZZ)
    calls, real = [], scalars._echelon
    monkeypatch.setattr(scalars, "_echelon", lambda *args: calls.append(args) or real(*args))
    for x in ([1, -1, 1], [0, 2, -3], [5, 0, 0]):
        b = a.apply(ints(ZZ, x))
        assert a.apply(solver.solve(b)) == b
    assert solver.solve(ints(ZZ, [1, 0])) is None
    assert calls == []


# Worked solves over Z for the integrality step: the spanning vectors, the
# target, and whether an integral solution exists.
Z_WORKED_CASES = [
    ([[2]], [-5], False),  # full rank, |d| = 2, no kernel rows
    ([[2], [3]], [1], True),  # 2x + 3y = 1
    ([[2], [4]], [1], False),  # 2x + 4y = 1
    ([[2, 0], [4, 6], [3, 3]], [1, -3], True),  # [[2, 4, 3], [0, 6, 3]] x = (1, -3)
    # rank 2 of 3 with |d| = 4: (v1 + v2) / 2 is in the Q-span, not the Z-span
    ([[2, 0, 2], [0, 2, 2], [2, 2, 4]], [1, 1, 2], False),
]


def z_worked_case_holds(vectors, target, solvable) -> bool:
    """Whether the Z solve answers as the case says, an answer checked by
    substituting it back; an exception is a wrong answer."""
    try:
        x = SpanSolver([ints(ZZ, v) for v in vectors], ZZ).solve(ints(ZZ, target))
    except RingError:
        return False
    if x is None:
        return not solvable
    back = [sum(c.value * v[i] for c, v in zip(x, vectors)) for i in range(len(target))]
    return solvable and back == target


def test_span_solver_z_worked_cases():
    for case in Z_WORKED_CASES:
        assert z_worked_case_holds(*case), case
    vectors, target, _ = Z_WORKED_CASES[-1]
    solver = SpanSolver([ints(ZZ, v) for v in vectors], ZZ)
    assert solver.rank == 2 and abs(solver._d) > 1
    assert SpanSolver([ints(QQ, v) for v in vectors], QQ).solve(ints(QQ, target)) is not None


def test_span_solver_z_worked_cases_catch_a_dropped_integrality_step(monkeypatch):
    """With the mod |d| step planted away (every free coordinate 0), some
    worked case must answer wrongly."""
    import quadembed.scalars as scalars

    monkeypatch.setattr(scalars, "_howell_solve", lambda rows, pivots, m, b, k: [0] * k)
    assert not all(z_worked_case_holds(*case) for case in Z_WORKED_CASES)


def test_shape_errors():
    a = ScalarMatrix.of_ints(ZZ, [[1, 2]])
    with pytest.raises(ShapeError):
        solve_in_ring(a, ints(ZZ, [1, 2]))
    with pytest.raises(ShapeError):
        ScalarMatrix.of_ints(ZZ, [[1, 2], [3]])


def test_matrix_accessors_refuse_an_index_outside_the_matrix():
    # entry(0, 2) of a 2x2 matrix read the entry at (1, 0), and entry(0, -1)
    # the last one; an out-of-range row or column came back short or empty
    m = ScalarMatrix.of_ints(ZZ, [[1, 2], [3, 4]])
    for call in (lambda: m.entry(0, 2), lambda: m.entry(0, -1), lambda: m.entry(2, 0),
                 lambda: m.entry(-1, 0), lambda: m.row(2), lambda: m.row(-1),
                 lambda: m.col(2), lambda: m.col(-1)):
        with pytest.raises(IndexError, match="outside a 2x2 matrix"):
            call()
    wide = ScalarMatrix.of_ints(QQ, [[1, 2, 3]])
    assert (wide.entry(0, 2), wide.row(0), wide.col(1)) == (QQ(3), ints(QQ, [1, 2, 3]), [QQ(2)])
    with pytest.raises(IndexError, match="column 3 is outside a 1x3 matrix"):
        wide.col(3)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_integer_ring_laws(a, b, c):
    x, y, z = ZZ(a), ZZ(b), ZZ(c)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


@given(st.integers(-20, 20), st.integers(1, 20), st.integers(-20, 20), st.integers(1, 20))
def test_rational_field_laws(p1, q1, p2, q2):
    x = QQ(Fraction(p1, q1))
    y = QQ(Fraction(p2, q2))
    assert x + y == y + x
    assert x * y == y * x
    if not y.is_zero:
        assert y * y.inverse() == QQ(1)


@settings(max_examples=60)
@given(st.integers(2, 30), st.integers(), st.integers())
def test_modular_ring_laws(m, a, b):
    ring = Zmod(m)
    x, y = ring(a), ring(b)
    assert x + y == y + x
    assert x * y == y * x
    assert 0 <= (x * y).value < m


def test_matrix_json_round_trip():
    m = ScalarMatrix.of_ints(ZZ, [[1, -2], [3, 4]])
    assert ScalarMatrix.from_json(m.to_json(), ZZ) == m
    q = ScalarMatrix.from_rows([[QQ(Fraction(1, 2)), QQ(3)]])
    assert ScalarMatrix.from_json(q.to_json(), QQ) == q


def _in_normal_form(m: ScalarMatrix) -> bool:
    if m.ring is QQ:
        return m.den > 0 and math.gcd(m.den, *m.values) == 1
    if m.ring is ZZ:
        return m.den == 1
    return m.den == 1 and all(0 <= v < m.ring.modulus for v in m.values)


def test_equal_matrices_built_by_different_routes_are_equal():
    """Raw storage has one normal form per ring, so every route to the same
    matrix ends in the same values and denominator: == and hash agree."""
    rng = random.Random(7)
    cases = [
        (ZZ, lambda: rng.randint(-9, 9), ZZ(-1), ZZ(-1), 6),
        (QQ, lambda: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6])),
         QQ(Fraction(3, 7)), QQ(Fraction(7, 3)), -6),
        (Zmod(6), lambda: rng.randint(-20, 20), Zmod(6)(5), Zmod(6)(5), 5),
    ]
    for ring, draw, c, c_inv, k in cases:
        for _ in range(5):
            a = ScalarMatrix.of_ints(ring, [[draw() for _ in range(4)] for _ in range(4)])
            b = ScalarMatrix.of_ints(ring, [[draw() for _ in range(4)] for _ in range(4)])
            eye = ScalarMatrix.identity(4, ring)
            routes = [
                # the same values over a denominator that cancels
                ScalarMatrix(4, 4, [v * k for v in a.values], ring, a.den * k),
                a.scale(c).scale(c_inv),
                (a + b) - b,
                a * eye,
                eye * a,
                a.transpose().transpose(),
                block2(*a.blocks2()),
                ScalarMatrix.from_rows([a.entries[i : i + 4] for i in range(0, 16, 4)]),
                ScalarMatrix.from_json(a.to_json(), ring),
            ]
            assert _in_normal_form(a) and a.algebra is ring
            for m in routes:
                assert _in_normal_form(m)
                assert m == a and hash(m) == hash(a)
                assert (m.values, m.den) == (a.values, a.den)
    # a block of a rational matrix can be integral: it drops the denominator
    half = ScalarMatrix.of_ints(QQ, [[Fraction(1, 2), 0], [2, 4]])
    assert half.den == 2
    assert [blk.den for blk in half.blocks2()] == [2, 1, 1, 1]
