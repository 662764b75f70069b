"""Square matrices with Clifford-algebra entries, and the block, span and
basis helpers shared with `ScalarMatrix`, the matrix type for plain scalar
entries.

A coefficient algebra is either a `Ring` (entries are scalars, matrices are
`ScalarMatrix`) or a `CliffordCoeffs` (entries are Clifford elements,
matrices are `AlgMatrix`).  An `AlgMatrix` is a term map, keyed (i, j, mask)
for the coefficient of e_mask in entry (i, j), so `clifford._TermMap` gives
it +, -, scale, == and hash; its product runs `_horner` on raw entries.
"""

from __future__ import annotations

import math
from itertools import product

from .clifford import CliffordElement, _horner, _TermMap, cl_zero, pbw_basis
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


class AlgMatrix(_TermMap):
    """A square matrix with entries in a Clifford algebra, stored as
    (i, j, mask) -> the coefficient of e_mask in entry (i, j)."""

    __slots__ = ("algebra", "terms", "dim")

    def __init__(self, algebra: CliffordCoeffs, rows):
        rows = [tuple(row) for row in rows]
        space, terms = algebra.space, {}
        for i, row in enumerate(rows):
            if len(row) != len(rows):
                raise ShapeError("matrix must be square")
            for j, a in enumerate(row):
                if not isinstance(a, CliffordElement) or a.space is not space and a.space != space:
                    raise RingError(f"entry {a!r} at {(i, j)} is not in the matrices' algebra")
                terms.update(((i, j, m), c) for m, c in a.terms.items())
        self.algebra, self.dim, self.terms = algebra, len(rows), terms

    @classmethod
    def _of(cls, algebra, dim: int, terms: dict) -> "AlgMatrix":
        """The matrix of checked, non-zero terms, built unchecked."""
        out = object.__new__(cls)
        out.algebra, out.dim, out.terms = algebra, dim, terms
        return out

    def _new(self, terms: dict) -> "AlgMatrix":
        return self._of(self.algebra, self.dim, {k: c for k, c in terms.items() if not c.is_zero})

    @classmethod
    def identity(cls, algebra, dim: int) -> "AlgMatrix":
        return cls._of(algebra, dim, {(i, i, 0): algebra.ring.one for i in range(dim)})

    @classmethod
    def zero(cls, algebra, dim: int) -> "AlgMatrix":
        return cls._of(algebra, dim, {})

    @staticmethod
    def from_scalar_matrix(m: ScalarMatrix) -> ScalarMatrix:
        """`m` itself, after checking it is square: scalar entries live in
        `ScalarMatrix`.  `lift_scalar_matrix` and the benchmark's workloads
        (bench/workloads.py) call it."""
        if m.rows != m.cols:
            raise ShapeError("matrix must be square")
        return m

    def entry(self, i: int, j: int) -> CliffordElement:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"entry {(i, j)} is outside a {self.dim}x{self.dim} matrix")
        space, terms = self.algebra.space, self.terms
        cell = {m: terms[i, j, m] for m in range(1 << space.rank) if (i, j, m) in terms}
        return CliffordElement(space, cell)

    def row(self, i: int) -> tuple:
        return tuple(self.entry(i, j) for j in range(self.dim))

    @property
    def entries(self) -> tuple:
        return tuple(self.row(i) for i in range(self.dim))

    def _check(self, other):
        if self._owner is not other._owner and self._owner != other._owner:
            raise RingError("coefficient algebra mismatch")
        if self.dim != other.dim:
            raise ShapeError("dimension mismatch")

    def __mul__(self, other):  # its own entry, which bench/tracer.py wraps
        return _TermMap.__mul__(self, other)

    def _product(self, x: dict, y: dict) -> dict:
        """Entry (i, j) sums a_ik b_kj over the non-zero a_ik and b_kj."""
        space, a, b, acc = self.algebra.space, _cells(x), _cells(y), {}
        for i, row in a.items():
            for k, aik in row.items():
                for j, bkj in b.get(k, {}).items():
                    for m, v in _horner(space, aik, bkj).items():
                        acc[i, j, m] = acc.get((i, j, m), 0) + v
        return acc

    def _keys(self):
        """Every (i, j, mask), row major and in mask order within an entry."""
        return product(range(self.dim), range(self.dim), range(1 << self.algebra.space.rank))

    def flatten(self) -> list[Scalar]:
        """Row-major concatenation of the entries' coefficient vectors."""
        zero = self.ring.zero
        return [self.terms.get(k, zero) for k in self._keys()]

    def raw_values(self) -> list:
        """The values of `flatten()`, read from the terms; absent ones are 0."""
        return [self.terms[k].value if k in self.terms else 0 for k in self._keys()]

    def blocks2(self):
        """Split an even-dimensional matrix into its four half-size blocks."""
        h, odd = divmod(self.dim, 2)
        if odd:
            raise ShapeError("need an even dimension")
        blocks = ({}, {}, {}, {})
        for (i, j, m), c in self.terms.items():
            blocks[2 * (i >= h) + (j >= h)][i % h, j % h, m] = c
        return tuple(self._of(self.algebra, h, t) for t in blocks)

    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self):
        return [
            [{"terms": [{"mask": m, "coeff": str(c)} for m, c in sorted(a.terms.items())]}
             for a in row]
            for row in self.entries
        ]

    def __repr__(self):
        return f"AlgMatrix(dim={self.dim}, algebra=clifford)"


AlgMatrix._owner = AlgMatrix.algebra  # the same slot, read by _TermMap


def _cells(raw: dict) -> dict:
    """Raw (i, j, mask) terms as {i: {j: {mask: value}}}."""
    out: dict = {}
    for (i, j, m), v in raw.items():
        out.setdefault(i, {}).setdefault(j, {})[m] = v
    return out


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
    terms = {}
    for m, (di, dj) in zip((a, b, c, d), ((0, 0), (0, dim), (dim, 0), (dim, dim))):
        terms.update(((i + di, j + dj, k), v) for (i, j, k), v in m.terms.items())
    return AlgMatrix._of(a.algebra, 2 * dim, terms)


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
    entry_basis = pbw_basis(algebra.space)
    return [AlgMatrix._of(algebra, dim, {(i, j, m): c for m, c in e.terms.items()})
            for i in range(dim) for j in range(dim) for e in entry_basis]


def lift_scalar_matrix(m: ScalarMatrix, algebra):
    """Re-interpret a scalar matrix inside a coefficient algebra; over its
    own ring it comes back unchanged."""
    if isinstance(algebra, Ring):
        if algebra is not m.ring:
            raise RingError("ring mismatch")
        return m
    if m.ring is not algebra.ring:
        raise RingError("ring mismatch")
    dim = AlgMatrix.from_scalar_matrix(m).rows
    terms = {(i, j, 0): c for i in range(dim) for j, c in enumerate(m.row(i)) if not c.is_zero}
    return AlgMatrix._of(algebra, dim, terms)
