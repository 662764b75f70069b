"""Quadratic spaces on free modules, their bilinear forms and constructions."""

from __future__ import annotations

from fractions import Fraction

from .scalars import (
    Ring,
    RingError,
    Scalar,
    ScalarMatrix,
    ShapeError,
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


def split_isometry(q: QuadraticSpace) -> ScalarMatrix:
    """T with q_H(T x) = q'(x) for q' = orthogonal_sum(q, negate(q)) and
    H = hyperbolic(rank q), for nonsingular q.

    With B the polar matrix and g_j = B^-1 e_j, the vectors E_i = (e_i, e_i)
    and F_j = (g_j, 0) - sum_k C_jk E_k form a hyperbolic basis of q', where C is upper triangular with C_jj = q(g_j) and C_jk = (B^-1)_jk for
    j < k.  T is the inverse of [E | F] = [[I, B^-1 - C^T], [I, -C^T]], in
    closed form [[C^T B, I - C^T B], [B, -B]].  Nothing is divided, so this
    holds over Z, Q and Z/m alike (Knus, Quadratic and Hermitian Forms over
    Rings, ch. I: a nonsingular space with a Lagrangian is hyperbolic)."""
    if not q.is_nonsingular():
        raise RingError("split isometry needs a nonsingular form: det B must be a unit")
    n, ring, b = q.rank, q.ring, q.bilinear_matrix()
    g = b.inverse()
    c = ScalarMatrix.from_rows([
        [q.evaluate_q(g.col(j)) if j == k else g.entry(j, k) if j < k else ring.zero for k in range(n)]
        for j in range(n)
    ])
    ctb = c.transpose() * b
    rest, minus_b = ScalarMatrix.identity(n, ring) - ctb, -b
    rows = [ctb.row(i) + rest.row(i) for i in range(n)]
    return ScalarMatrix.from_rows(rows + [b.row(i) + minus_b.row(i) for i in range(n)])
