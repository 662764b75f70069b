"""Square matrices with Clifford-algebra entries, and the block, span and
basis helpers shared with `ScalarMatrix`, the matrix type for plain scalar
entries.

A coefficient algebra is either a `Ring` (entries are scalars, matrices are
`ScalarMatrix`) or a `CliffordCoeffs` (entries are Clifford elements,
matrices are `AlgMatrix`).
"""

from __future__ import annotations

import math
from operator import add, sub

from .clifford import cl_one, cl_scalar, cl_zero, pbw_basis
from .qspace import QuadraticSpace
from .scalars import (
    Ring,
    RingError,
    Scalar,
    ScalarMatrix,
    ShapeError,
    SpanSolver,
    _Value,
)


class CliffordCoeffs(_Value):
    """Entries are elements of a fixed Clifford algebra."""

    __slots__ = ("space",)

    def __init__(self, space: QuadraticSpace):
        self.space = space

    @property
    def ring(self) -> Ring:
        return self.space.ring

    def zero(self):
        return cl_zero(self.space)

    def one(self):
        return cl_one(self.space)


class AlgMatrix:
    """A square matrix with entries in a Clifford algebra."""

    __slots__ = ("dim", "algebra", "entries")

    def __init__(self, algebra: CliffordCoeffs, rows):
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

    @staticmethod
    def from_scalar_matrix(m: ScalarMatrix) -> ScalarMatrix:
        """`m` itself, after checking it is square.  Scalar entries live in
        `ScalarMatrix`; this stays only for the benchmark's workloads
        (bench/workloads.py), which still call it."""
        if m.rows != m.cols:
            raise ShapeError("matrix must be square")
        return m

    @property
    def ring(self) -> Ring:
        return self.algebra.ring

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def row(self, i: int):
        return self.entries[i]

    def _check(self, other: "AlgMatrix"):
        if self.dim != other.dim:
            raise ShapeError("dimension mismatch")
        if self.algebra != other.algebra:
            raise RingError("coefficient algebra mismatch")

    def __add__(self, other, op=add):
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        self._check(other)
        return AlgMatrix(
            self.algebra,
            [
                [op(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        return self.__add__(other, sub)

    def __neg__(self):
        return AlgMatrix(self.algebra, [[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        self._check(other)
        # each row sums a_ik b_kj over its non-zero a_ik and the non-zero b_kj of row k
        zero = self.algebra.zero()
        nonzero = [[(j, b) for j, b in enumerate(row) if b.terms] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [None] * self.dim
            for a, bs in zip(row, nonzero):
                if a.terms:
                    for j, b in bs:
                        acc[j] = a * b if acc[j] is None else acc[j] + a * b
            out.append([zero if c is None else c for c in acc])
        return AlgMatrix(self.algebra, out)

    def scale(self, s: Scalar) -> "AlgMatrix":
        return AlgMatrix(self.algebra, [[a.scale(s) for a in row] for row in self.entries])

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
        """Row-major concatenation of the entries' coefficient vectors."""
        return [c for row in self.entries for a in row for c in a.coefficients()]

    def raw_values(self) -> list:
        """The values of `flatten()`, read from the terms; absent ones are 0."""
        masks = range(1 << self.algebra.space.rank)
        return [a.terms[m].value if m in a.terms else 0 for row in self.entries for a in row for m in masks]

    def blocks2(self):
        """Split an even-dimensional matrix into its four half-size blocks."""
        h, odd = divmod(self.dim, 2)
        if odd:
            raise ShapeError("need an even dimension")
        return tuple(
            AlgMatrix(self.algebra, [row[c0 : c0 + h] for row in self.entries[r0 : r0 + h]])
            for r0 in (0, h)
            for c0 in (0, h)
        )

    def is_zero(self) -> bool:
        return all(a.is_zero for row in self.entries for a in row)

    def to_json(self):
        return [
            [{"terms": [{"mask": m, "coeff": str(c)} for m, c in sorted(a.terms.items())]}
             for a in row]
            for row in self.entries
        ]

    def __repr__(self):
        return f"AlgMatrix(dim={self.dim}, algebra=clifford)"


def matrix_json(m) -> dict:
    """A square matrix as JSON: its dimension, coefficient algebra and entries."""
    if isinstance(m, ScalarMatrix):
        algebra = {"kind": "scalars", "ring": m.ring.name}
    else:
        algebra = {"kind": "clifford", "space": m.algebra.space.to_json()}
    return {"dim": m.dim, "algebra": algebra, "entries": m.to_json()}


def block2(a, b, c, d):
    """Assemble the doubled matrix [[a, b], [c, d]] from equal-sized blocks."""
    dim = a.dim
    for m in (a, b, c, d):
        if m.dim != dim:
            raise ShapeError("blocks must share one dimension")
        if m.algebra != a.algebra:
            raise RingError("blocks must share one coefficient algebra")
    if isinstance(a, ScalarMatrix):
        den = math.lcm(a.den, b.den, c.den, d.den)
        values = []
        for left, right in ((a, b), (c, d)):
            fl, fr = den // left.den, den // right.den
            for i in range(0, dim * dim, dim):
                values += [v * fl for v in left.values[i : i + dim]]
                values += [v * fr for v in right.values[i : i + dim]]
        return ScalarMatrix(2 * dim, 2 * dim, values, a.ring, den)
    rows = [a.row(i) + b.row(i) for i in range(dim)] + [c.row(i) + d.row(i) for i in range(dim)]
    return AlgMatrix(a.algebra, rows)


def parity_of_block_matrix(m) -> int | None:
    """0 when both off-diagonal blocks vanish, 1 when both diagonal blocks
    vanish, None otherwise."""
    a, b, c, d = m.blocks2()
    if b.is_zero() and c.is_zero():
        return 0
    if a.is_zero() and d.is_zero():
        return 1
    return None


def span_coords(basis, m) -> list[Scalar] | None:
    """Coordinates of `m` as a ring-linear combination of `basis`, or None;
    `SpanSolver` reads both and refuses a basis or target of another
    length, ring or coefficient algebra."""
    return SpanSolver(basis, m.ring).solve(m)


def algebra_basis(algebra, dim: int) -> list:
    """Module basis of the matrix algebra: unit matrices times entry basis."""
    if isinstance(algebra, Ring):
        units = range(dim * dim)
        return [ScalarMatrix(dim, dim, [int(k == t) for k in units], algebra) for t in units]
    zero, entry_basis = algebra.zero(), pbw_basis(algebra.space)
    out = []
    for i in range(dim):
        for j in range(dim):
            for e in entry_basis:
                rows = [[zero] * dim for _ in range(dim)]
                rows[i][j] = e
                out.append(AlgMatrix(algebra, rows))
    return out


def lift_scalar_matrix(m: ScalarMatrix, algebra):
    """Re-interpret a scalar matrix inside a coefficient algebra; over its
    own ring it comes back unchanged."""
    if isinstance(algebra, Ring):
        if algebra is not m.ring:
            raise RingError("ring mismatch")
        return m
    if m.ring is not algebra.ring:
        raise RingError("ring mismatch")
    return AlgMatrix(
        algebra, [[cl_scalar(algebra.space, e) for e in m.row(i)] for i in range(m.rows)]
    )
