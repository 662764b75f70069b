"""Hypothesis-driven algebraic laws, complementing the seeded suites with
shrinking counterexamples should anything regress."""

import importlib.util
import math
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadembed.clifford import (
    CliffordElement,
    GradedTensorAlgebra,
    cl_one,
    embed_vector,
    grade_involution,
    monomial,
    standard_involution,
)
from quadembed.qspace import QuadraticSpace
from quadembed.scalars import (
    QQ,
    RingError,
    ScalarMatrix,
    ShapeError,
    SpanSolver,
    ZZ,
    Zmod,
    is_unimodular,
    rank_in_ring,
    rank_over_fractions,
    solve_in_ring,
)


RINGS = (ZZ, QQ, Zmod(2), Zmod(6))


def scalars(ring, bound):
    """Scalars of `ring` with numerators in [-bound, bound]; over Q with
    denominators up to 4, so forms and coefficients are not integral."""
    ints = st.integers(-bound, bound)
    if ring is QQ:
        return st.builds(lambda n, d: QQ(Fraction(n, d)), ints, st.integers(1, 4))
    return ints.map(ring)


@st.composite
def spaces(draw, max_rank=4, ring=None):
    ring = draw(st.sampled_from(RINGS)) if ring is None else ring
    rank = draw(st.integers(1, max_rank))
    rows = []
    for i in range(rank):
        row = [ring(0)] * i + [draw(scalars(ring, 3)) for _ in range(rank - i)]
        rows.append(row)
    return QuadraticSpace(ScalarMatrix.from_rows(rows))


@st.composite
def elements(draw, space, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        mask = draw(st.integers(0, (1 << space.rank) - 1))
        terms[mask] = draw(scalars(space.ring, 4))
    return CliffordElement(space, terms)


@st.composite
def element_triples(draw):
    space = draw(spaces())
    return tuple(draw(elements(space)) for _ in range(3))


@settings(max_examples=60, deadline=None)
@given(element_triples())
def test_multiplication_associates(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(element_triples())
def test_multiplication_distributes(triple):
    a, b, c = triple
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=60, deadline=None)
@given(element_triples())
def test_reversal_is_an_antiautomorphism(triple):
    a, b, _ = triple
    assert standard_involution(a * b) == standard_involution(b) * standard_involution(a)
    assert standard_involution(standard_involution(a)) == a


@settings(max_examples=60, deadline=None)
@given(element_triples())
def test_grade_involution_is_an_automorphism(triple):
    a, b, _ = triple
    assert grade_involution(a * b) == grade_involution(a) * grade_involution(b)
    assert grade_involution(grade_involution(a)) == a


@st.composite
def space_with_vectors(draw):
    space = draw(spaces())
    vec = lambda: [draw(scalars(space.ring, 4)) for _ in range(space.rank)]
    return space, vec(), vec()


@settings(max_examples=80, deadline=None)
@given(space_with_vectors())
def test_polarised_generator_relation(data):
    space, u, v = data
    eu, ev = embed_vector(space, u), embed_vector(space, v)
    assert eu * ev + ev * eu == cl_one(space).scale(space.bilinear(u, v))
    assert eu * eu == cl_one(space).scale(space.evaluate_q(u))


@st.composite
def tensor_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    s1 = draw(spaces(max_rank=2, ring=ring))
    s2 = draw(spaces(max_rank=2, ring=ring))
    alg = GradedTensorAlgebra(s1, s2)

    def homog():
        m1 = draw(st.integers(0, (1 << s1.rank) - 1))
        m2 = draw(st.integers(0, (1 << s2.rank) - 1))
        c = draw(scalars(ring, 3))
        return alg.pure(monomial(s1, m1), monomial(s2, m2)).scale(c)

    return homog(), homog(), homog()


@settings(max_examples=60, deadline=None)
@given(tensor_pairs())
def test_tensor_product_associates(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(tensor_pairs())
def test_tensor_parity_adds(triple):
    a, b, _ = triple
    pa, pb = a.parity(), b.parity()
    prod = a * b
    if pa is not None and pb is not None and prod.terms:
        assert prod.parity() == (pa + pb) % 2


# -- the certificates' linear algebra against the benchmark's oracles ----------

_spec = importlib.util.spec_from_file_location(
    "bench_oracles", Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
)
ORACLES = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ORACLES)

CERTIFICATE_RINGS = (ZZ, QQ, Zmod(2), Zmod(4), Zmod(6), Zmod(12))
EXHAUSTIVE_LIMIT = 4096  # largest m**k searched over (Z/m)^k


def modulus(ring) -> int:
    return getattr(ring, "modulus", 0)


def raw_entries(ring, count):
    """Raw entries rich in 0 and +-1: ints, Fractions over Q, residues mod m."""
    entry = st.sampled_from((0, 0, 1, -1, 2, -2, 3))
    if ring is QQ:
        entry = st.builds(Fraction, entry, st.sampled_from((1, 1, 2, 3)))
    elif modulus(ring):
        entry = entry.map(lambda x: x % modulus(ring))
    return st.lists(entry, min_size=count, max_size=count)


@st.composite
def vector_families(draw, rings=CERTIFICATE_RINGS, max_vectors=4, max_length=4, square=False):
    """(ring, raw rows, the rows as the certificates take them): lists of
    Scalars, one-row ScalarMatrices, or the rows of one ScalarMatrix."""
    ring = draw(st.sampled_from(rings))
    count = draw(st.integers(1, max_vectors))
    length = count if square else draw(st.integers(0, max_length))
    rows = [draw(raw_entries(ring, length)) for _ in range(count)]
    boxed = [[ring(x) for x in row] for row in rows]
    form = draw(st.sampled_from(("scalars", "row matrices", "matrix") if length else ("scalars",)))
    if form == "matrix":
        return ring, rows, ScalarMatrix.from_rows(boxed)
    if form == "row matrices":
        return ring, rows, [ScalarMatrix.from_rows([row]) for row in boxed]
    return ring, rows, boxed


def mccoy_rank(rows, m: int) -> int:
    """McCoy's rank by the oracle's determinants: the largest t whose t x t
    minors generate the unit ideal of Z/m, or over Z and Q (m = 0) include
    a non-zero one."""
    rank = 0
    for t in range(1, min(len(rows), len(rows[0])) + 1):
        minors = [
            ORACLES.det([[rows[i][j] for j in js] for i in its])
            for its in combinations(range(len(rows)), t)
            for js in combinations(range(len(rows[0])), t)
        ]
        if not (math.gcd(m, *map(int, minors)) == 1 if m else any(minors)):
            break
        rank = t
    return rank


def combination(coefficients, vectors, m: int) -> list:
    """sum_j c_j v_j over raw entries, reduced mod m when m > 0."""
    out = [sum(c * v[i] for c, v in zip(coefficients, vectors)) for i in range(len(vectors[0]))]
    return [x % m for x in out] if m else out


@settings(max_examples=100, deadline=None)
@given(vector_families())
def test_rank_in_ring_is_mccoys_rank(family):
    ring, rows, vectors = family
    m = modulus(ring)
    rank = rank_in_ring(vectors, ring)
    assert rank == mccoy_rank(rows, m)
    if not m:
        assert rank == ORACLES.rank(rows) == rank_over_fractions(vectors)
        return
    if rows[0]:  # a vector with no entries is over every ring
        with pytest.raises(RingError):
            rank_over_fractions(vectors)
    if m ** len(rows) <= EXHAUSTIVE_LIMIT:
        # McCoy: the rows are independent exactly when no non-zero
        # combination of them vanishes
        dependent = any(
            any(xs) and not any(combination(xs, rows, m))
            for xs in product(range(m), repeat=len(rows))
        )
        assert (rank == len(rows)) is not dependent


@settings(max_examples=100, deadline=None)
@given(vector_families(rings=(ZZ,), square=True) | vector_families(rings=CERTIFICATE_RINGS[1:]))
def test_is_unimodular_is_a_determinant_of_one_over_z(family):
    ring, rows, vectors = family
    if ring is not ZZ:
        if rows[0]:  # a vector with no entries is over every ring
            with pytest.raises(RingError):
                is_unimodular(vectors)
        return
    assert is_unimodular(vectors) is (abs(ORACLES.det(rows)) == 1)


@st.composite
def span_problems(draw):
    """Spanning vectors and a raw target, drawn inside their span or not."""
    ring, cols, vectors = draw(vector_families(max_vectors=3))
    if draw(st.booleans()):
        target = combination(draw(raw_entries(ring, len(cols))), cols, modulus(ring))
        return ring, cols, vectors, target, True
    return ring, cols, vectors, draw(raw_entries(ring, len(cols[0]))), False


@settings(max_examples=100, deadline=None)
@given(span_problems())
def test_span_solver_solves_exactly_when_a_solution_exists(problem):
    ring, cols, vectors, target, inside = problem
    m, k = modulus(ring), len(cols)
    boxed = [ring(x) for x in target]
    x = SpanSolver(vectors, ring).solve(boxed)
    if x is not None:
        assert all(s.ring is ring for s in x)
        assert combination([s.value for s in x], cols, m) == target
    if m and m**k <= EXHAUSTIVE_LIMIT:
        exists = any(combination(xs, cols, m) == target for xs in product(range(m), repeat=k))
        assert (x is not None) is exists
    elif ring is QQ:
        assert (x is not None) is (ORACLES.rank(cols) == ORACLES.rank(cols + [target]))
    if inside:
        assert x is not None
    if target:
        a = ScalarMatrix.from_rows([[ring(col[i]) for col in cols] for i in range(len(target))])
        assert solve_in_ring(a, boxed) == x


def in_lattice(vectors, target) -> bool:
    """Whether `target` is an integer combination of the integer `vectors`:
    an echelon form of their rows over Z (Hermite's, without reducing above
    the pivots) by Euclid's steps on each column, then the target reduced
    along it, each coefficient forced by the pivot it meets."""
    rows, echelon = [list(v) for v in vectors], []
    for c in range(len(target)):
        while len(live := [r for r in rows if r[c]]) > 1:
            pivot = min(live, key=lambda r: abs(r[c]))
            rows = [r if r is pivot else [x - r[c] // pivot[c] * p for x, p in zip(r, pivot)]
                    for r in rows]
        if live:
            echelon.append((c, live[0]))
            rows = [r for r in rows if r is not live[0]]
    target = list(target)
    for c, row in echelon:
        q, rest = divmod(target[c], row[c])
        if rest:
            return False
        target = [t - q * x for t, x in zip(target, row)]
    return not any(target)


@st.composite
def deficient_z_spans(draw):
    """Integer vectors, the last an integer combination of the others, and a
    target: a combination of them, half of one when that is integral (in the
    Q-span, often not in the Z-span), or any vector."""
    length = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-3, 3), min_size=length, max_size=length)
    base = draw(st.lists(vector, min_size=1, max_size=3))
    vectors = base + [combination(draw(st.lists(st.integers(-2, 2), min_size=len(base),
                                                max_size=len(base))), base, 0)]
    kind = draw(st.sampled_from(("combination", "half", "any")))
    if kind == "any":
        return vectors, draw(st.lists(st.integers(-4, 4), min_size=length, max_size=length))
    xs = draw(st.lists(st.integers(-3, 3), min_size=len(vectors), max_size=len(vectors)))
    target = combination(xs, vectors, 0)
    if kind == "half" and not any(t % 2 for t in target):
        target = [t // 2 for t in target]
    return vectors, target


def test_the_lattice_oracle_on_worked_cases():
    assert in_lattice([[2], [3]], [1]) and not in_lattice([[2], [4]], [1])
    assert not in_lattice([[2, 0, 2], [0, 2, 2], [2, 2, 4]], [1, 1, 2])
    assert in_lattice([[2, 0, 2], [0, 2, 2], [2, 2, 4]], [2, -2, 0])
    assert in_lattice([[0, 0]], [0, 0]) and not in_lattice([[0, 0]], [0, 1])


@settings(max_examples=200, deadline=None)
@given(deficient_z_spans())
def test_span_solver_over_z_decides_lattice_membership(case):
    """On rank-deficient Z spans a solution exists exactly when the target
    is in the lattice, and every solution substitutes back."""
    vectors, target = case
    x = SpanSolver([[ZZ(v) for v in vec] for vec in vectors], ZZ).solve([ZZ(t) for t in target])
    if x is not None:
        assert combination([s.value for s in x], vectors, 0) == target
    assert (x is not None) is in_lattice(vectors, target)


@st.composite
def spoiled_families(draw):
    """Vectors as lists of Scalars, a copy with one vector spoiled, and the
    error the spoiling must raise: an entry that is a plain int, an entry
    or a whole vector over another ring, or one entry too many."""
    ring, _, vectors = draw(vector_families(max_vectors=3).filter(lambda f: isinstance(f[2], list)))
    vectors = [list(v) if isinstance(v, list) else v.flatten() for v in vectors]
    other = draw(st.sampled_from([r for r in CERTIFICATE_RINGS if r is not ring]))
    i = draw(st.integers(0, len(vectors) - 1))
    spoil = draw(st.sampled_from(("int", "entry", "vector", "length")))
    spoiled = [list(v) for v in vectors]
    if spoil == "length":
        spoiled[i].append(ring(0))
        return vectors, spoiled, i, ring, ShapeError
    if spoil == "vector":
        spoiled[i] = ScalarMatrix.from_rows([[other(1)] * max(1, len(spoiled[i]))])
    else:
        bad = 1 if spoil == "int" else other(1)
        at = draw(st.integers(0, max(0, len(spoiled[i]) - 1)))
        spoiled[i][at : at + 1] = [bad]  # replaces entry `at`, or fills an empty vector
    return vectors, spoiled, i, ring, RingError


@settings(max_examples=100, deadline=None)
@given(spoiled_families())
def test_certificates_refuse_a_spoiled_vector_with_the_package_errors(case):
    vectors, spoiled, i, ring, error = case
    with pytest.raises(error):
        SpanSolver(vectors, ring).solve(spoiled[i])
    if error is ShapeError and len(vectors) == 1:
        return  # one vector of any length is a family of equal lengths
    with pytest.raises(error):
        rank_in_ring(spoiled, ring)
    with pytest.raises(error):
        SpanSolver(spoiled, ring)
    # these two take no ring (is_unimodular reads over Z, rank_over_fractions
    # over Z or Q), so a spoiled family may be sound for them: either answers
    # or refuses it
    for certificate in (is_unimodular, rank_over_fractions):
        try:
            certificate(spoiled)
        except (RingError, ShapeError):
            pass
