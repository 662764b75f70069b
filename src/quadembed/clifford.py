"""Clifford algebras with a monomial basis and straightening multiplication.

Elements are finitely supported maps from basis masks to scalars.  A mask is
a bit pattern over the generator indices; mask 0 is the unit and the grade
of a monomial is its popcount.  Multiplication rewrites products through the
generator relations, which works uniformly for non-orthogonal forms.
"""

from __future__ import annotations

from .qspace import QuadraticSpace, orthogonal_sum
from .scalars import (
    QQ,
    RingError,
    Scalar,
    ScalarMatrix,
    ShapeError,
    ZZ,
    rank_over_fractions,
)

RANK_LIMIT = 12


class CliffordRelationError(ValueError):
    """Candidate generator images violate the defining relations."""

    def __init__(self, i: int, j: int, message: str):
        super().__init__(message)
        self.pair = (i, j)


class CliffordElement:
    """An element of Cl(V, q), stored as mask -> coefficient."""

    __slots__ = ("space", "terms")

    def __init__(self, space: QuadraticSpace, terms: dict):
        self.space = space
        self.terms = {m: c for m, c in terms.items() if not c.is_zero}

    def _check(self, other: "CliffordElement"):
        if self.space != other.space:
            raise ShapeError("elements live in different Clifford algebras")

    def __add__(self, other):
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            _bump(acc, m, c)
        return CliffordElement(self.space, acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CliffordElement(self.space, {m: -c for m, c in self.terms.items()})

    def scale(self, s: Scalar) -> "CliffordElement":
        return CliffordElement(self.space, {m: s * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._check(other)
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                for m3, c3 in _mono_product(self.space, m1, m2):
                    _bump(acc, m3, c * c3)
        return CliffordElement(self.space, acc)

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mask: int) -> Scalar:
        return self.terms.get(mask, self.space.ring.zero)

    def coefficients(self) -> list[Scalar]:
        """Dense coordinate vector over the monomial basis, mask order."""
        zero = self.space.ring.zero
        return [self.terms.get(m, zero) for m in range(1 << self.space.rank)]

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "terms": [
                {"mask": m, "coeff": str(c)} for m, c in sorted(self.terms.items())
            ],
        }

    def __repr__(self):
        if not self.terms:
            return "0"

        def mono(m):
            if m == 0:
                return "1"
            return "".join(f"e{i + 1}" for i in range(self.space.rank) if m >> i & 1)

        return " + ".join(f"({c})*{mono(m)}" for m, c in sorted(self.terms.items()))


def _bump(acc: dict, mask: int, c: Scalar):
    cur = acc.get(mask)
    acc[mask] = c if cur is None else cur + c


def _mono_product(space: QuadraticSpace, m1: int, m2: int):
    """Product of two ordered monomials, as ((mask, coeff), ...), kept in
    the space's product table under (m1, m2)."""
    out = space.products.get((m1, m2))
    if out is not None:
        return out
    low, low2 = m1 & -m1, m2 & -m2
    acc: dict = {}
    if m2 == 0 or m1 < low2:
        # already ordered: every generator of m1 precedes those of m2
        acc[m1 | m2] = space.ring.one
    elif m1 != low:
        # e_m1 = e_i e_rest, e_i the lowest generator of m1
        for m, c in _mono_product(space, m1 ^ low, m2):
            for m3, c3 in _mono_product(space, low, m):
                _bump(acc, m3, c * c3)
    else:
        # e_i times e_m2, whose lowest generator e_j has j <= i
        i, j, rest = low.bit_length() - 1, low2.bit_length() - 1, m2 ^ low2
        if i == j:
            acc[rest] = space.q_generator(i)
        else:
            # move e_i past e_j using e_i e_j = <e_i, e_j> - e_j e_i
            _bump(acc, rest, space.bilinear_generators(i, j))
            for m, c in _mono_product(space, low, rest):
                _bump(acc, m | low2, -c)
    out = space.products[m1, m2] = tuple(sorted((m, c) for m, c in acc.items() if not c.is_zero))
    return out


def _mono_involution(space: QuadraticSpace, mask: int):
    """The standard involution of e_mask: its generators in decreasing index
    order, times (-1)^grade; kept in the space's product table under the
    mask alone."""
    out = space.products.get(mask)
    if out is not None:
        return out
    if mask == 0:
        out = ((0, space.ring.one),)
    else:
        low = mask & -mask
        acc: dict = {}
        for m, c in _mono_involution(space, mask ^ low):
            for m3, c3 in _mono_product(space, m, low):
                _bump(acc, m3, -(c * c3))
        out = tuple(sorted((m, c) for m, c in acc.items() if not c.is_zero))
    space.products[mask] = out
    return out


def cl_zero(space: QuadraticSpace) -> CliffordElement:
    return CliffordElement(space, {})


def cl_one(space: QuadraticSpace) -> CliffordElement:
    return CliffordElement(space, {0: space.ring.one})


def cl_scalar(space: QuadraticSpace, s: Scalar) -> CliffordElement:
    return CliffordElement(space, {0: s})


def monomial(space: QuadraticSpace, mask: int) -> CliffordElement:
    if mask >> space.rank:
        raise ShapeError("mask uses generators beyond the rank")
    return CliffordElement(space, {mask: space.ring.one})


def embed_vector(space: QuadraticSpace, x) -> CliffordElement:
    """The canonical copy of a module vector inside its Clifford algebra."""
    coords = space.coordinates(x)
    return CliffordElement(space, {1 << i: c for i, c in enumerate(coords)})


def grade_involution(a: CliffordElement) -> CliffordElement:
    return CliffordElement(
        a.space,
        {m: (-c if bin(m).count("1") % 2 else c) for m, c in a.terms.items()},
    )


def grade_component(a: CliffordElement, k: int) -> CliffordElement:
    return CliffordElement(
        a.space, {m: c for m, c in a.terms.items() if bin(m).count("1") == k}
    )


def is_homogeneous(a: CliffordElement) -> int | None:
    """Parity (0 or 1) when all terms share one grade mod 2, else None."""
    parities = {bin(m).count("1") % 2 for m in a.terms}
    if len(parities) == 1:
        return parities.pop()
    return None


def standard_involution(a: CliffordElement) -> CliffordElement:
    """The anti-automorphism extending v -> -v on vectors.

    Each monomial is re-multiplied with its generators reversed and scaled
    by (-1)^grade; a closed-form sign would only be valid for orthogonal
    bases, which the forms here need not have.
    """
    acc: dict = {}
    for mask, c in a.terms.items():
        for m, c2 in _mono_involution(a.space, mask):
            _bump(acc, m, c * c2)
    return CliffordElement(a.space, acc)


def pbw_basis(space: QuadraticSpace) -> list[CliffordElement]:
    """All 2**rank ordered monomials, in mask order."""
    if space.rank > RANK_LIMIT:
        raise ShapeError(f"rank {space.rank} exceeds the monomial-basis limit")
    return [monomial(space, m) for m in range(1 << space.rank)]


class UniversalMap:
    """Algebra map out of Cl(V, q) determined by images of the generators."""

    def __init__(self, space: QuadraticSpace, images, one):
        self.space = space
        self.images = list(images)
        self.one = one
        self._mask_images = {0: one}

    def image_of_mask(self, mask: int):
        cached = self._mask_images.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        i = low.bit_length() - 1
        value = self.images[i] * self.image_of_mask(mask ^ low)
        self._mask_images[mask] = value
        return value

    def __call__(self, a: CliffordElement):
        if a.space != self.space:
            raise ShapeError("element belongs to a different Clifford algebra")
        total = None
        for mask, c in sorted(a.terms.items()):
            part = self.image_of_mask(mask).scale(c)
            total = part if total is None else total + part
        return total if total is not None else self.one.scale(self.space.ring.zero)


def extend_universal(space: QuadraticSpace, images, one) -> UniversalMap:
    """Check the generator relations and return the induced algebra map.

    The images must support +, *, scale(Scalar) and ==.  Violations report
    the offending generator pair.
    """
    images = list(images)
    if len(images) != space.rank:
        raise ShapeError("need one image per generator")
    for i, gi in enumerate(images):
        want = one.scale(space.q_generator(i))
        if gi * gi != want:
            raise CliffordRelationError(i, i, f"image {i} squares incorrectly")
    for i in range(space.rank):
        for j in range(i + 1, space.rank):
            want = one.scale(space.bilinear_generators(i, j))
            got = images[i] * images[j] + images[j] * images[i]
            if got != want:
                raise CliffordRelationError(
                    i, j, f"images {i},{j} violate the polarised relation"
                )
    return UniversalMap(space, images, one)


class GradedTensorElement:
    """Element of the graded tensor product of two Clifford algebras."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "GradedTensorAlgebra", terms: dict):
        self.algebra = algebra
        self.terms = {mm: c for mm, c in terms.items() if not c.is_zero}

    def _check(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ShapeError("elements live in different tensor algebras")

    def __add__(self, other):
        self._check(other)
        acc = dict(self.terms)
        for mm, c in other.terms.items():
            _bump(acc, mm, c)
        return GradedTensorElement(self.algebra, acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GradedTensorElement(self.algebra, {mm: -c for mm, c in self.terms.items()})

    def scale(self, s: Scalar):
        return GradedTensorElement(self.algebra, {mm: s * c for mm, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GradedTensorElement):
            return NotImplemented
        self._check(other)
        s1, s2 = self.algebra.left_space, self.algebra.right_space
        acc: dict = {}
        for (a1, b1), c in self.terms.items():
            db = bin(b1).count("1")
            for (a2, b2), c2 in other.terms.items():
                sign = -1 if (db * bin(a2).count("1")) % 2 else 1
                coeff = c * c2
                if sign < 0:
                    coeff = -coeff
                for ma, ca in _mono_product(s1, a1, a2):
                    for mb, cb in _mono_product(s2, b1, b2):
                        _bump(acc, (ma, mb), coeff * ca * cb)
        return GradedTensorElement(self.algebra, acc)

    def __eq__(self, other):
        if not isinstance(other, GradedTensorElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    def parity(self) -> int | None:
        ps = {(bin(a).count("1") + bin(b).count("1")) % 2 for a, b in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def flatten(self) -> list[Scalar]:
        n2 = self.algebra.right_space.rank
        zero = self.algebra.ring.zero
        size = 1 << (self.algebra.left_space.rank + n2)
        out = [zero] * size
        for (a, b), c in self.terms.items():
            out[(a << n2) | b] = c
        return out


class GradedTensorAlgebra:
    """Handle for Cl(V1) tensor Cl(V2) with the parity sign rule."""

    def __init__(self, left_space: QuadraticSpace, right_space: QuadraticSpace):
        if left_space.ring is not right_space.ring:
            raise RingError("tensor factors need a common base ring")
        self.left_space = left_space
        self.right_space = right_space

    @property
    def ring(self):
        return self.left_space.ring

    def __eq__(self, other):
        if not isinstance(other, GradedTensorAlgebra):
            return NotImplemented
        return (
            self.left_space == other.left_space
            and self.right_space == other.right_space
        )

    def __hash__(self):
        return hash((self.left_space, self.right_space))

    def one(self) -> GradedTensorElement:
        return GradedTensorElement(self, {(0, 0): self.ring.one})

    def pure(self, a: CliffordElement, b: CliffordElement) -> GradedTensorElement:
        """The decomposable element a (x) b; bilinear in both slots."""
        acc: dict = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                _bump(acc, (m1, m2), c1 * c2)
        return GradedTensorElement(self, acc)

    def left(self, a: CliffordElement) -> GradedTensorElement:
        return self.pure(a, cl_one(self.right_space))

    def right(self, b: CliffordElement) -> GradedTensorElement:
        return self.pure(cl_one(self.left_space), b)


def check_graded_iso_sum(s1: QuadraticSpace, s2: QuadraticSpace) -> bool:
    """Verify that splitting an orthogonal sum into tensor slots is faithful.

    Sends each generator of Cl(s1 + s2) to x(x)1 or 1(x)x, checks the
    generator relations inside the tensor algebra, then checks that all
    monomial images stay linearly independent over the fraction field.
    """
    if s1.rank > 4 or s2.rank > 4:
        raise ShapeError("rank capped at 4 per factor")
    if s1.ring not in (ZZ, QQ):
        raise RingError("independence check needs Z or Q coefficients")
    total = orthogonal_sum(s1, s2)
    alg = GradedTensorAlgebra(s1, s2)
    images = []
    for i in range(total.rank):
        if i < s1.rank:
            images.append(alg.left(monomial(s1, 1 << i)))
        else:
            images.append(alg.right(monomial(s2, 1 << (i - s1.rank))))
    phi = extend_universal(total, images, alg.one())
    rows = []
    for mask in range(1 << total.rank):
        rows.append(phi.image_of_mask(mask).flatten())
    matrix = ScalarMatrix.from_rows(rows)
    return rank_over_fractions(matrix) == 1 << total.rank
