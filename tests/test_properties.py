"""Hypothesis-driven algebraic laws, complementing the seeded suites with
shrinking counterexamples should anything regress."""

from fractions import Fraction

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
from quadembed.scalars import QQ, ScalarMatrix, ZZ, Zmod


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
