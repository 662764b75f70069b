"""Clifford algebras with a monomial basis and Chevalley's generator action.

Elements are finitely supported maps from basis masks to scalars.  A mask is
a bit pattern over the generator indices; mask 0 is the unit and the grade
of a monomial is its popcount.  Every product runs one Horner-rule kernel
(`_horner`) over one closed form, a generator times an ordered monomial,
valid for non-orthogonal forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import RANK_LIMIT
from .qspace import QuadraticSpace, orthogonal_sum
from .scalars import ZZ, RingError, Scalar, ShapeError, is_unimodular, rank_in_ring, raw_row


class CliffordRelationError(ValueError):
    """Candidate generator images violate the defining relations."""

    def __init__(self, i: int, j: int, message: str):
        super().__init__(message)
        self.pair = (i, j)


class _TermMap:
    """A finitely supported map key -> non-zero scalar over an owner, a
    Clifford space or a tensor algebra, whose `ring` holds the scalars.

    A subclass declares the owner and `terms` slots, aliases the owner's
    slot descriptor as `_owner`, names its `_mismatch` error and gives
    `_check_key` and `_product`, the raw kernel on {key: int or Fraction}
    maps.  The constructor checks every key and coefficient; `_new` builds
    the results of `+`, `-`, `scale` and `*` from checked terms unchecked."""

    __slots__ = ()

    def __init__(self, owner, terms: dict):
        ring = owner.ring
        for k, c in terms.items():
            if not isinstance(c, Scalar) or c.ring is not ring:
                raise RingError(f"coefficient {c!r} at {k!r} is not an element of {ring}")
            self._check_key(owner, k)
        self._owner = owner
        self.terms = {k: c for k, c in terms.items() if not c.is_zero}

    def _new(self, terms: dict):
        out = object.__new__(type(self))
        out._owner, out.terms = self._owner, {k: c for k, c in terms.items() if not c.is_zero}
        return out

    def _check(self, other):
        if self._owner is not other._owner and self._owner != other._owner:
            raise ShapeError(self._mismatch)

    def __add__(self, other):
        if not isinstance(other, _TermMap):
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            cur = acc.get(k)
            acc[k] = c if cur is None else cur + c
        return self._new(acc)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, _TermMap) else NotImplemented

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, s: Scalar):
        return self._new({k: s * c for k, c in self.terms.items()})

    def _raw(self) -> tuple[dict, int]:
        """The terms as raw values over one denominator: integers over Q."""
        vals, den = raw_row(self.terms.values(), self._owner.ring)
        return dict(zip(self.terms, vals)), den

    def _box(self, raw: dict, den: int = 1):
        """The element of raw values over `den`, each boxed once."""
        ring = self._owner.ring
        boxed = {k: ring(v if den == 1 else Fraction(v, den)) for k, v in raw.items() if v}
        return self._new(boxed)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        (x, da), (y, db) = self._raw(), other._raw()
        return self._box(self._product(x, y), da * db)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._owner == other._owner and self.terms == other.terms

    def __hash__(self):
        return hash((self._owner, frozenset(self.terms.items())))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def ring(self):
        return self._owner.ring


class CliffordElement(_TermMap):
    """An element of Cl(V, q), stored as mask -> coefficient."""

    __slots__ = ("space", "terms")
    _mismatch = "elements live in different Clifford algebras"
    __mul__ = _TermMap.__mul__  # its own entry, which bench/tracer.py wraps

    @staticmethod
    def _check_key(space, mask):
        if not (isinstance(mask, int) and not isinstance(mask, bool) and 0 <= mask < 1 << space.rank):
            raise ShapeError(f"mask {mask} is outside 0..{(1 << space.rank) - 1}")

    def _product(self, x: dict, y: dict) -> dict:
        return _horner(self.space, x, y)

    def coefficients(self) -> list[Scalar]:
        """Dense coordinate vector over the monomial basis, mask order."""
        zero = self.space.ring.zero
        return [self.terms.get(m, zero) for m in range(1 << self.space.rank)]

    def raw_values(self) -> list:
        """The values of `coefficients()`; an absent mask is a plain 0."""
        return [self.terms[m].value if m in self.terms else 0 for m in range(1 << self.space.rank)]

    def to_json(self):
        terms = [{"mask": m, "coeff": str(c)} for m, c in sorted(self.terms.items())]
        return {"space": self.space.to_json(), "terms": terms}

    def __repr__(self):
        parts = (
            f"({c})*" + ("".join(f"e{i + 1}" for i in _generators(m)) or "1")
            for m, c in sorted(self.terms.items())
        )
        return " + ".join(parts) or "0"


CliffordElement._owner = CliffordElement.space  # the same slot, read by _TermMap


def _gen_action(space: QuadraticSpace, i: int, mask: int):
    """e_i times the ordered monomial e_mask, as raw (mask, value) pairs.

    Chevalley's action x.w = x ^ w + i_b(x) w (Chevalley 1954), for the
    triangular form b with b_ii = q(e_i), b_ij = <e_i, e_j> for j < i and
    0 for j > i, under which ordered monomials are wedges:

        e_i e_m = [i not in m] (-1)^#{j in m : j < i} e_(m + i)
                + sum over j in m, j <= i, of (-1)^#{k in m : k < j} b_ij e_(m - j)

    No 1/2 enters, so it is exact over Z and Z/m.  Integral values are ints,
    also over Q, so the fold runs on ints for integral forms.
    """
    (q, den), n = raw_row(space.qmatrix, space.ring), space.rank
    out = []
    sign, rest = 1, mask
    while rest and rest & -rest <= 1 << i:
        low = rest & -rest
        b = q[(low.bit_length() - 1) * n + i]
        if b:
            b = b if den == 1 else Fraction(b, den)
            out.append((mask ^ low, (b.numerator if b.denominator == 1 else b) * sign))
        sign, rest = -sign, rest ^ low
    if not mask >> i & 1:
        out.append((mask | 1 << i, sign))  # sign is now (-1)^#{j in m : j < i}
    return tuple(out)


def _generators(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _horner(space: QuadraticSpace, x: dict, y: dict, reverse: bool = False) -> dict:
    """The sum over m of x[m] word(m) y, on raw terms {mask: value}, where
    word(m) is the ordered monomial e_m, or its generators in reverse order
    with `reverse`.

    Horner's rule on the first letter g of every word in x, the lowest
    generator any mask holds (the highest with `reverse`): x = x0 + e_g x1
    with g in no mask of x0, so x y = x0 y + e_g (x1 y), and e_g acts once on
    the merged x1 y rather than once per term that begins with it.  The
    space keeps each generator action it uses under (i, mask), at most
    rank * 2^rank of them."""
    held = 0
    for m in x:
        held |= m
    if not held:
        v = x.get(0)
        return {m: v * c for m, c in y.items()} if v else {}
    g = held.bit_length() - 1 if reverse else (held & -held).bit_length() - 1
    bit, x0, x1 = 1 << g, {}, {}
    for m, v in x.items():
        if m & bit:
            x1[m ^ bit] = v
        else:
            x0[m] = v
    acc = _horner(space, x0, y, reverse) if x0 else {}
    table = space.products
    for m, v in _horner(space, x1, y, reverse).items():
        if not v:
            continue
        action = table.get((g, m))
        if action is None:
            action = table[g, m] = _gen_action(space, g, m)
        for m2, c in action:
            acc[m2] = acc.get(m2, 0) + v * c
    return acc


def cl_zero(space: QuadraticSpace) -> CliffordElement:
    return CliffordElement(space, {})


def cl_one(space: QuadraticSpace) -> CliffordElement:
    return CliffordElement(space, {0: space.ring.one})


def cl_scalar(space: QuadraticSpace, s: Scalar) -> CliffordElement:
    return CliffordElement(space, {0: s})


def monomial(space: QuadraticSpace, mask: int) -> CliffordElement:
    return CliffordElement(space, {mask: space.ring.one})


def embed_vector(space: QuadraticSpace, x) -> CliffordElement:
    """The canonical copy of a module vector inside its Clifford algebra."""
    coords = space.coordinates(x)
    return CliffordElement(space, {1 << i: c for i, c in enumerate(coords)})


def grade_involution(a: CliffordElement) -> CliffordElement:
    terms = {m: (-c if bin(m).count("1") % 2 else c) for m, c in a.terms.items()}
    return CliffordElement(a.space, terms)


def grade_component(a: CliffordElement, k: int) -> CliffordElement:
    return CliffordElement(a.space, {m: c for m, c in a.terms.items() if bin(m).count("1") == k})


def is_homogeneous(a: CliffordElement) -> int | None:
    """Parity (0 or 1) when all terms share one grade mod 2, else None."""
    parities = {bin(m).count("1") % 2 for m in a.terms}
    return parities.pop() if len(parities) == 1 else None


def standard_involution(a: CliffordElement) -> CliffordElement:
    """The anti-automorphism extending v -> -v on vectors: each monomial's
    generators multiplied in reverse order, times (-1)^grade."""
    raw, den = a._raw()
    signed = {m: -v if bin(m).count("1") % 2 else v for m, v in raw.items()}
    return a._box(_horner(a.space, signed, {0: 1}, reverse=True), den)


def pbw_basis(space: QuadraticSpace) -> list[CliffordElement]:
    """All 2**rank ordered monomials, in mask order."""
    if space.rank > RANK_LIMIT:
        raise ShapeError(f"rank {space.rank} exceeds the monomial-basis limit")
    return [monomial(space, m) for m in range(1 << space.rank)]


class UniversalMap:
    """Algebra map out of Cl(V, q) determined by images of the generators;
    injective when its monomial images are independent (`rank_in_ring`),
    bijective when they are a basis of the target (`bijective`)."""

    def __init__(self, space: QuadraticSpace, images, one):
        self.space = space
        self.images = list(images)
        self.one = one
        self._mask_images = {0: one}

    def image_of_mask(self, mask: int):
        value = self._mask_images.get(mask)
        if value is None:
            low = mask & -mask
            value = self.images[low.bit_length() - 1] * self.image_of_mask(mask ^ low)
            self._mask_images[mask] = value
        return value

    @property
    def monomial_images(self) -> list:
        """The images of the ordered monomials, in mask order."""
        return [self.image_of_mask(m) for m in range(1 << self.space.rank)]

    @cached_property
    def monomial_rank(self) -> int:
        return rank_in_ring(self.monomial_images, self.space.ring)

    @property
    def injective(self) -> bool:
        return self.monomial_rank == 1 << self.space.rank

    @cached_property
    def bijective(self) -> bool:
        """Whether the monomial images are a basis of the free module their
        entries live in: as many as its rank, independent, and over Z of
        determinant +-1 (`is_unimodular`).  Over Q and Z/m independence is
        enough, since a non-zero-divisor of a field or a finite ring is a
        unit."""
        ring, images = self.space.ring, self.monomial_images
        if len(raw_row(images[0], ring)[0]) != len(images) or not self.injective:
            return False
        return ring is not ZZ or is_unimodular(images)

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
    n = space.rank
    forms = {(i, j): space.bilinear_generators(i, j) if i < j else space.q_generator(i)
             for i in range(n) for j in range(i, n)}
    scaled = {s: one.scale(s) for s in set(forms.values())}  # one per distinct value
    for i, gi in enumerate(images):
        if gi * gi != scaled[forms[i, i]]:
            raise CliffordRelationError(i, i, f"image {i} squares incorrectly")
    for i in range(n):
        for j in range(i + 1, n):
            got = images[i] * images[j] + images[j] * images[i]
            if got != scaled[forms[i, j]]:
                raise CliffordRelationError(i, j, f"images {i},{j} violate the polarised relation")
    return UniversalMap(space, images, one)


class GradedTensorElement(_TermMap):
    """Element of the graded tensor product of two Clifford algebras."""

    __slots__ = ("algebra", "terms")
    _mismatch = "elements live in different tensor algebras"

    @staticmethod
    def _check_key(algebra, key):
        if not (isinstance(key, tuple) and len(key) == 2):
            raise ShapeError(f"key {key!r} is not a (left mask, right mask) pair")
        CliffordElement._check_key(algebra.left_space, key[0])
        CliffordElement._check_key(algebra.right_space, key[1])

    def _product(self, x: dict, y: dict) -> dict:
        """The Koszul sign rule on (left mask, right mask) keys:
        (a1 (x) b1)(a2 (x) b2) = (-1)^(|b1| |a2|) a1 a2 (x) b1 b2."""
        s1, s2 = self.algebra.left_space, self.algebra.right_space
        acc: dict = {}
        for (a1, b1), v1 in x.items():
            deg = bin(b1).count("1")
            for (a2, b2), v2 in y.items():
                coeff = -v1 * v2 if deg * bin(a2).count("1") % 2 else v1 * v2
                right = _horner(s2, {b1: 1}, {b2: 1})
                for ma, ca in _horner(s1, {a1: 1}, {a2: 1}).items():
                    for mb, cb in right.items():
                        acc[ma, mb] = acc.get((ma, mb), 0) + coeff * ca * cb
        return acc

    def parity(self) -> int | None:
        ps = {(bin(a).count("1") + bin(b).count("1")) % 2 for a, b in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def raw_values(self) -> list:
        """Coefficient values, left mask major; an absent pair is a plain 0."""
        n1, n2 = self.algebra.left_space.rank, self.algebra.right_space.rank
        out = [0] * (1 << (n1 + n2))
        for (a, b), c in self.terms.items():
            out[(a << n2) | b] = c.value
        return out


GradedTensorElement._owner = GradedTensorElement.algebra


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
        return self.left_space == other.left_space and self.right_space == other.right_space

    def __hash__(self):
        return hash((self.left_space, self.right_space))

    def one(self) -> GradedTensorElement:
        return GradedTensorElement(self, {(0, 0): self.ring.one})

    def pure(self, a: CliffordElement, b: CliffordElement) -> GradedTensorElement:
        """The decomposable element a (x) b; bilinear in both slots."""
        return GradedTensorElement(
            self, {(m1, m2): c1 * c2 for m1, c1 in a.terms.items() for m2, c2 in b.terms.items()}
        )

    def left(self, a: CliffordElement) -> GradedTensorElement:
        return self.pure(a, cl_one(self.right_space))

    def right(self, b: CliffordElement) -> GradedTensorElement:
        return self.pure(cl_one(self.left_space), b)


def check_graded_iso_sum(s1: QuadraticSpace, s2: QuadraticSpace) -> bool:
    """Verify that splitting an orthogonal sum into tensor slots is faithful.

    Sends each generator of Cl(s1 + s2) to x(x)1 or 1(x)x, checks the
    generator relations inside the tensor algebra, then certifies that all
    monomial images stay independent over the base ring (Z, Q or Z/m).
    """
    if s1.rank > 4 or s2.rank > 4:
        raise ShapeError("rank capped at 4 per factor")
    alg = GradedTensorAlgebra(s1, s2)
    images = [alg.left(monomial(s1, 1 << i)) for i in range(s1.rank)]
    images += [alg.right(monomial(s2, 1 << i)) for i in range(s2.rank)]
    return extend_universal(orthogonal_sum(s1, s2), images, alg.one()).injective
