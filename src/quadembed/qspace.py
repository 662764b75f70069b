"""Quadratic spaces on free modules, their bilinear forms and constructions."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .scalars import (
    QQ,
    Ring,
    RingError,
    Scalar,
    ScalarMatrix,
    ShapeError,
    ZZ,
    json_field,
    raw_row,
    ring_from_name,
)


class QuadraticSpace:
    """A free module of finite rank with a quadratic form.

    The form is stored as an upper-triangular matrix Q, so that
    q(x) = sum over i <= j of Q[i][j] * x_i * x_j.  Storing Q rather than
    the symmetric bilinear matrix keeps the form faithful over rings where
    2 is not invertible.

    The form never changes, so the space hashes it once and owns `products`,
    the Clifford generator actions e_i e_mask that `clifford` keeps under
    (i, mask): at most rank * 2^rank entries.
    """

    __slots__ = ("rank", "qmatrix", "_hash", "products")

    def __init__(self, qmatrix: ScalarMatrix):
        if qmatrix.rows != qmatrix.cols:
            raise ShapeError("form matrix must be square")
        if qmatrix.rows < 1:
            raise ShapeError("rank must be at least 1")
        n, q = qmatrix.rows, qmatrix.values
        if any(q[i * n + j] for i in range(n) for j in range(i)):
            raise ShapeError("form matrix must be upper triangular")
        self.rank = qmatrix.rows
        self.qmatrix = qmatrix
        self._hash = hash(qmatrix)
        self.products = {}

    @property
    def ring(self) -> Ring:
        return self.qmatrix.ring

    def coordinates(self, values) -> list[Scalar]:
        """Coerce a sequence of ring values or Scalars to a coordinate column."""
        out = []
        for v in values:
            out.append(v if isinstance(v, Scalar) else self.ring(v))
        if len(out) != self.rank:
            raise ShapeError(f"expected {self.rank} coordinates, got {len(out)}")
        for s in out:
            if s.ring is not self.ring:
                raise RingError("coordinates must live in the base ring")
        return out

    def evaluate_q(self, x) -> Scalar:
        """q(x), summed over the raw form and coordinates, boxed once."""
        xs, xden = raw_row(self.coordinates(x), self.ring)
        (q, den), n = raw_row(self.qmatrix, self.ring), self.rank
        total = sum(q[i * n + j] * xs[i] * xs[j] for i in range(n) for j in range(i, n))
        return self.ring(Fraction(total, den * xden * xden))

    def bilinear(self, x, y) -> Scalar:
        """The polarised form q(x+y) - q(x) - q(y)."""
        x = self.coordinates(x)
        y = self.coordinates(y)
        xy = [a + b for a, b in zip(x, y)]
        return self.evaluate_q(xy) - self.evaluate_q(x) - self.evaluate_q(y)

    def bilinear_matrix(self) -> ScalarMatrix:
        return self.qmatrix + self.qmatrix.transpose()

    def q_generator(self, i: int) -> Scalar:
        """q(e_i), a diagonal entry of the form matrix."""
        return self.qmatrix.entry(i, i)

    def bilinear_generators(self, i: int, j: int) -> Scalar:
        """The pairing of two basis vectors."""
        return self.qmatrix.entry(i, j) + self.qmatrix.entry(j, i)

    def is_nondegenerate(self) -> bool:
        return self.bilinear_matrix().determinant().is_nonzerodivisor()

    def is_nonsingular(self) -> bool:
        return self.bilinear_matrix().determinant().is_unit()

    def basis_vector(self, i: int) -> list[Scalar]:
        return [self.ring(1 if k == i else 0) for k in range(self.rank)]

    def __eq__(self, other):
        if not isinstance(other, QuadraticSpace):
            return NotImplemented
        return self is other or (self._hash == other._hash and self.qmatrix == other.qmatrix)

    def __hash__(self):
        return self._hash

    def to_json(self):
        return {"rank": self.rank, "ring": self.ring.name, "q": self.qmatrix.to_json()}

    @classmethod
    def from_json(cls, data) -> "QuadraticSpace":
        ring = ring_from_name(json_field(data, "ring", str, "space JSON"))
        return cls(ScalarMatrix.from_json(json_field(data, "q", list, "space JSON"), ring))

    def __repr__(self):
        return f"QuadraticSpace(rank={self.rank}, ring={self.ring.name})"


def random_vector(rng, space: QuadraticSpace, bound: int = 4) -> list[Scalar]:
    """Coordinates drawn uniformly from [-bound, bound], one per generator."""
    return [space.ring(rng.randint(-bound, bound)) for _ in range(space.rank)]


def hyperbolic(n: int, ring: Ring) -> QuadraticSpace:
    """Rank-2n space with basis (e_1..e_n, f_1..f_n) and q = sum e_i f_i."""
    if n < 1:
        raise ShapeError("hyperbolic space needs n >= 1")
    size = 2 * n
    values = [int(j == n + i) for i in range(size) for j in range(size)]
    return QuadraticSpace(ScalarMatrix(size, size, values, ring))


def diagonal_space(coefficients, ring: Ring) -> QuadraticSpace:
    """Orthogonal form sum c_i x_i**2."""
    coeffs = [c if isinstance(c, Scalar) else ring(c) for c in coefficients]
    n = len(coeffs)
    rows = [[ring(0)] * n for _ in range(n)]
    for i, c in enumerate(coeffs):
        rows[i][i] = c
    return QuadraticSpace(ScalarMatrix.from_rows(rows))


def orthogonal_sum(s1: QuadraticSpace, s2: QuadraticSpace) -> QuadraticSpace:
    if s1.ring is not s2.ring:
        raise RingError("orthogonal sum needs a common base ring")
    zero, n1, n2 = s1.ring.zero, s1.rank, s2.rank
    rows = [s1.qmatrix.row(i) + [zero] * n2 for i in range(n1)]
    rows += [[zero] * n1 + s2.qmatrix.row(i) for i in range(n2)]
    return QuadraticSpace(ScalarMatrix.from_rows(rows))


def negate(space: QuadraticSpace) -> QuadraticSpace:
    return QuadraticSpace(-space.qmatrix)


def find_isometry(src: QuadraticSpace, dst: QuadraticSpace) -> ScalarMatrix | None:
    """Search for an invertible T with q_dst(T x) = q_src(x), coordinatewise.

    Backtracks over candidate columns with entries in {-1, 0, 1}; enough for
    the small split forms this package derives.  Returns None when the pool
    is exhausted.
    """
    if src.rank != dst.rank or src.ring is not dst.ring:
        return None
    if src.ring not in (ZZ, QQ):
        raise RingError("isometry search runs over Z or Q")
    n = src.rank
    ring = src.ring
    pool = [ring(-1), ring(0), ring(1)]
    vectors = [list(v) for v in product(pool, repeat=n)]
    candidates = []
    for i in range(n):
        want = src.q_generator(i)
        candidates.append([v for v in vectors if dst.evaluate_q(v) == want])

    chosen: list[list[Scalar]] = []

    def fits(v) -> bool:
        i = len(chosen)
        for j, u in enumerate(chosen):
            if dst.bilinear(u, v) != src.bilinear_generators(j, i):
                return False
        return True

    def assemble() -> ScalarMatrix:
        return ScalarMatrix.from_rows(
            [[chosen[j][i] for j in range(n)] for i in range(n)]
        )

    def search() -> ScalarMatrix | None:
        i = len(chosen)
        if i == n:
            t = assemble()
            return t if t.determinant().is_nonzerodivisor() else None
        for v in candidates[i]:
            if fits(v):
                chosen.append(v)
                t = search()
                if t is not None:
                    return t
                chosen.pop()
        return None

    return search()
