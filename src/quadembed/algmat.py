"""Square matrices over a coefficient algebra: plain scalars, or a Clifford
algebra used as the entry domain."""

from __future__ import annotations

from dataclasses import dataclass

from .clifford import cl_one, cl_scalar, cl_zero, pbw_basis
from .qspace import QuadraticSpace
from .scalars import (
    QQ,
    Ring,
    RingError,
    Scalar,
    ScalarMatrix,
    ShapeError,
    ZZ,
    SpanSolver,
)


@dataclass(frozen=True)
class ScalarCoeffs:
    """Entries are plain ring scalars."""

    ring: Ring

    kind = "scalars"

    @property
    def flat_dim(self) -> int:
        return 1

    def zero(self):
        return self.ring.zero

    def one(self):
        return self.ring.one

    def from_scalar(self, s: Scalar):
        return s

    def scale(self, s: Scalar, a):
        return s * a

    def is_zero(self, a) -> bool:
        return a.is_zero

    def flatten(self, a) -> list[Scalar]:
        return [a]

    def entry_to_json(self, a):
        return str(a)


@dataclass(frozen=True)
class CliffordCoeffs:
    """Entries are elements of a fixed Clifford algebra."""

    space: QuadraticSpace

    kind = "clifford"

    @property
    def ring(self) -> Ring:
        return self.space.ring

    @property
    def flat_dim(self) -> int:
        return 1 << self.space.rank

    def zero(self):
        return cl_zero(self.space)

    def one(self):
        return cl_one(self.space)

    def from_scalar(self, s: Scalar):
        return cl_scalar(self.space, s)

    def scale(self, s: Scalar, a):
        return a.scale(s)

    def is_zero(self, a) -> bool:
        return a.is_zero

    def flatten(self, a) -> list[Scalar]:
        return a.coefficients()

    def entry_to_json(self, a):
        return {"terms": [{"mask": m, "coeff": str(c)} for m, c in sorted(a.terms.items())]}


class AlgMatrix:
    """A square matrix with entries in a coefficient algebra."""

    __slots__ = ("dim", "algebra", "entries")

    def __init__(self, algebra, rows):
        entries = tuple(tuple(row) for row in rows)
        dim = len(entries)
        for row in entries:
            if len(row) != dim:
                raise ShapeError("matrix must be square")
        self.dim = dim
        self.algebra = algebra
        self.entries = entries

    @classmethod
    def identity(cls, algebra, dim: int) -> "AlgMatrix":
        one, zero = algebra.one(), algebra.zero()
        return cls(algebra, [[one if i == j else zero for j in range(dim)] for i in range(dim)])

    @classmethod
    def zero(cls, algebra, dim: int) -> "AlgMatrix":
        z = algebra.zero()
        return cls(algebra, [[z] * dim for _ in range(dim)])

    @classmethod
    def from_scalar_matrix(cls, m: ScalarMatrix) -> "AlgMatrix":
        if m.rows != m.cols:
            raise ShapeError("matrix must be square")
        return cls(ScalarCoeffs(m.ring), m.row_lists())

    def to_scalar_matrix(self) -> ScalarMatrix:
        if not isinstance(self.algebra, ScalarCoeffs):
            raise RingError("entries are not plain scalars")
        return ScalarMatrix.from_rows([list(r) for r in self.entries])

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def _check(self, other: "AlgMatrix"):
        if self.dim != other.dim:
            raise ShapeError("dimension mismatch")
        if self.algebra != other.algebra:
            raise RingError("coefficient algebra mismatch")

    def __add__(self, other):
        self._check(other)
        return AlgMatrix(
            self.algebra,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        self._check(other)
        return AlgMatrix(
            self.algebra,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self):
        return AlgMatrix(self.algebra, [[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        self._check(other)
        n = self.dim
        alg = self.algebra
        rows = []
        for i in range(n):
            out_row = []
            for j in range(n):
                acc = None
                for k in range(n):
                    a = self.entries[i][k]
                    if alg.is_zero(a):
                        continue
                    b = other.entries[k][j]
                    if alg.is_zero(b):
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                out_row.append(acc if acc is not None else alg.zero())
            rows.append(out_row)
        return AlgMatrix(alg, rows)

    def scale(self, s: Scalar) -> "AlgMatrix":
        alg = self.algebra
        return AlgMatrix(alg, [[alg.scale(s, a) for a in row] for row in self.entries])

    def transpose(self) -> "AlgMatrix":
        # plain transpose: no entry involution is applied
        return AlgMatrix(
            self.algebra,
            [[self.entries[j][i] for j in range(self.dim)] for i in range(self.dim)],
        )

    def __eq__(self, other):
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.algebra == other.algebra
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.algebra, self.entries))

    def flatten(self) -> list[Scalar]:
        """Row-major concatenation of flattened entries."""
        out = []
        for row in self.entries:
            for a in row:
                out.extend(self.algebra.flatten(a))
        return out

    def blocks2(self):
        """Split an even-dimensional matrix into its four half-size blocks."""
        if self.dim % 2:
            raise ShapeError("need an even dimension")
        h = self.dim // 2

        def sub(r0, c0):
            return AlgMatrix(
                self.algebra,
                [[self.entries[r0 + i][c0 + j] for j in range(h)] for i in range(h)],
            )

        return sub(0, 0), sub(0, h), sub(h, 0), sub(h, h)

    def is_zero(self) -> bool:
        return all(self.algebra.is_zero(a) for row in self.entries for a in row)

    def to_json(self):
        alg = self.algebra
        if isinstance(alg, ScalarCoeffs):
            algebra_json = {"kind": "scalars", "ring": alg.ring.name}
        else:
            algebra_json = {"kind": "clifford", "space": alg.space.to_json()}
        return {
            "dim": self.dim,
            "algebra": algebra_json,
            "entries": [[alg.entry_to_json(a) for a in row] for row in self.entries],
        }

    def __repr__(self):
        return f"AlgMatrix(dim={self.dim}, algebra={self.algebra.kind})"


def mat_mul(a: AlgMatrix, b: AlgMatrix) -> AlgMatrix:
    return a * b


def mat_add(a: AlgMatrix, b: AlgMatrix) -> AlgMatrix:
    return a + b


def scalar_mul(s: Scalar, m: AlgMatrix) -> AlgMatrix:
    return m.scale(s)


def transpose(m: AlgMatrix) -> AlgMatrix:
    return m.transpose()


def block2(a: AlgMatrix, b: AlgMatrix, c: AlgMatrix, d: AlgMatrix) -> AlgMatrix:
    """Assemble the doubled matrix [[a, b], [c, d]] from equal-sized blocks."""
    blocks = (a, b, c, d)
    dim = a.dim
    for m in blocks:
        if m.dim != dim:
            raise ShapeError("blocks must share one dimension")
        if m.algebra != a.algebra:
            raise RingError("blocks must share one coefficient algebra")
    rows = []
    for i in range(dim):
        rows.append(list(a.entries[i]) + list(b.entries[i]))
    for i in range(dim):
        rows.append(list(c.entries[i]) + list(d.entries[i]))
    return AlgMatrix(a.algebra, rows)


def parity_of_block_matrix(m: AlgMatrix) -> int | None:
    """0 when both off-diagonal blocks vanish, 1 when both diagonal blocks
    vanish, None otherwise."""
    a, b, c, d = m.blocks2()
    if b.is_zero() and c.is_zero():
        return 0
    if a.is_zero() and d.is_zero():
        return 1
    return None


def determinant(m: AlgMatrix) -> Scalar:
    if not isinstance(m.algebra, ScalarCoeffs):
        raise RingError("determinant needs scalar entries")
    return m.to_scalar_matrix().determinant()


def span_coords(basis, m: AlgMatrix) -> list[Scalar] | None:
    """Coordinates of `m` as a ring-linear combination of `basis`, or None."""
    basis = list(basis)
    if not basis:
        raise ShapeError("empty basis")
    for b in basis:
        if b.dim != m.dim or b.algebra != m.algebra:
            raise ShapeError("basis and target must match in shape and algebra")
    return SpanSolver([b.flatten() for b in basis], m.algebra.ring).solve(m.flatten())


def generated_algebra_rank(generators) -> int:
    """Dimension over the fraction field of the algebra the generators span.

    The span is closed under products of generator words until it stops
    growing; word length is additionally capped at twice the matrix
    dimension as a safety bound.
    """
    generators = list(generators)
    if not generators:
        raise ShapeError("need at least one generator")
    first = generators[0]
    alg = first.algebra
    if not isinstance(alg, ScalarCoeffs) or alg.ring not in (ZZ, QQ):
        raise RingError("generated rank needs scalar entries over Z or Q")
    if first.dim > 16:
        raise ShapeError("dimension capped at 16")
    for g in generators:
        if g.dim != first.dim or g.algebra != alg:
            raise ShapeError("generators must match in shape and algebra")

    # the span is taken over Q, so the rank is the one over the fraction field
    span = SpanSolver([AlgMatrix.identity(alg, first.dim).flatten()], QQ)
    frontier = []
    for g in generators:
        if span.add(g.flatten()):
            frontier.append(g)
    length = 1
    while frontier and length < 2 * first.dim:
        fresh = []
        for x in frontier:
            for g in generators:
                p = x * g
                if span.add(p.flatten()):
                    fresh.append(p)
        frontier = fresh
        length += 1
    return span.rank


def algebra_basis(algebra, dim: int) -> list[AlgMatrix]:
    """Module basis of the matrix algebra: unit matrices times entry basis."""
    out = []
    if isinstance(algebra, ScalarCoeffs):
        entry_basis = [algebra.one()]
    else:
        entry_basis = pbw_basis(algebra.space)
    zero = algebra.zero()
    for i in range(dim):
        for j in range(dim):
            for e in entry_basis:
                rows = [[zero] * dim for _ in range(dim)]
                rows[i][j] = e
                out.append(AlgMatrix(algebra, rows))
    return out


def lift_scalar_matrix(m: ScalarMatrix, algebra) -> AlgMatrix:
    """Re-interpret a scalar matrix inside a larger coefficient algebra."""
    if m.ring is not algebra.ring:
        raise RingError("ring mismatch")
    return AlgMatrix(
        algebra, [[algebra.from_scalar(e) for e in m.row(i)] for i in range(m.rows)]
    )

