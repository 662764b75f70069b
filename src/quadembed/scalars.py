"""Exact scalar arithmetic over Z, Q and Z/m, and the linear solvers built on it.

Every value is immutable and every operation is pure; there is no floating
point anywhere in the package.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from itertools import compress
from operator import add, attrgetter, mul, sub


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


class RingError(ValueError):
    """Operation not supported over the given ring."""


class ShapeError(ValueError):
    """Matrix or vector shapes do not line up."""


class _Value:
    """Base of the package's small value types, treated as immutable: two
    are equal, and hash alike, when their types match and their slots agree."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, a) for a in self.__slots__)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._fields()))})"


class Ring:
    """Base class for the supported coefficient rings.  The arithmetic
    here is that of Z and Q, whose values are plain ints and Fractions.

    Instances are interned, so rings compare (and hash) by identity.
    """

    name = "?"

    def normalize(self, value):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit_value(self, a) -> bool:
        raise NotImplementedError

    def is_nzd_value(self, a) -> bool:
        return a != 0

    def inverse_value(self, a):
        raise NotImplementedError

    def format_value(self, a) -> str:
        return str(a)

    def __call__(self, value) -> "Scalar":
        return Scalar(self.normalize(value), self)

    @property
    def zero(self) -> "Scalar":
        return Scalar(self.normalize(0), self)

    @property
    def one(self) -> "Scalar":
        return Scalar(self.normalize(1), self)

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"

    def normalize(self, value):
        if isinstance(value, bool):
            raise RingError("booleans are not ring elements")
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise RingError(f"{value} is not an integer")
            return int(value)
        raise RingError(f"cannot interpret {value!r} as an integer")

    def is_unit_value(self, a):
        return a in (1, -1)

    def inverse_value(self, a):
        if a in (1, -1):
            return a
        raise RingError(f"{a} is not a unit in Z")


class RationalRing(Ring):
    name = "Q"

    def normalize(self, value):
        if isinstance(value, bool):
            raise RingError("booleans are not ring elements")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise RingError(f"cannot interpret {value!r} as a rational")

    def is_unit_value(self, a):
        return a != 0

    def inverse_value(self, a):
        if a == 0:
            raise RingError("0 is not a unit in Q")
        return 1 / Fraction(a)


class ModularRing(Ring):
    """Integers mod m, canonical representatives in [0, m).  There is one
    instance per modulus, an int at least 2, so rings compare by identity."""

    _interned: dict = {}

    def __new__(cls, modulus: int):
        if isinstance(modulus, bool) or not isinstance(modulus, int) or modulus < 2:
            raise RingError(f"modulus {modulus!r} is not an integer at least 2")
        ring = cls._interned.get(modulus)
        if ring is None:
            ring = cls._interned[modulus] = super().__new__(cls)
            ring.modulus, ring.name = modulus, f"Z/{modulus}"
        return ring

    def normalize(self, value):
        if isinstance(value, bool):
            raise RingError("booleans are not ring elements")
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise RingError(f"{value} is not an integer")
            value = int(value)
        if not isinstance(value, int):
            raise RingError(f"cannot interpret {value!r} mod {self.modulus}")
        return value % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def is_unit_value(self, a):
        return math.gcd(a, self.modulus) == 1

    def is_nzd_value(self, a):
        # In Z/m the non-zero divisors are exactly the units.
        return math.gcd(a, self.modulus) == 1

    def inverse_value(self, a):
        if math.gcd(a, self.modulus) != 1:
            raise RingError(f"{a} is not a unit mod {self.modulus}")
        return pow(a, -1, self.modulus)

    def format_value(self, a):
        return f"{a} mod {self.modulus}"


ZZ = IntegerRing()
QQ = RationalRing()
Zmod = ModularRing


def ring_from_name(name: str) -> Ring:
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name.startswith("Z/"):
        return Zmod(_int(name[2:], name, "Z, Q or Z/m"))
    raise RingError(f"unknown ring {name!r}")


def _int(text: str, whole: str, form: str) -> int:
    """int(text), or a RingError naming the text `whole` and its form."""
    try:
        return int(text)
    except ValueError as err:
        raise RingError(f"cannot parse {whole!r}; use {form}") from err


def json_field(data, key: str, kind, owner: str):
    """data[key] of a parsed JSON object, or a ShapeError naming the field
    when `data` is not an object or the field is missing or not a `kind`."""
    value = data.get(key) if isinstance(data, dict) else None
    if value is None:
        raise ShapeError(f"{owner} has no field {key!r}")
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ShapeError(f"{owner} field {key!r} has the wrong type")
    return value


class Scalar:
    """An exact element of one of the supported rings."""

    __slots__ = ("value", "ring")

    def __init__(self, value, ring: Ring):
        self.value = value
        self.ring = ring

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ring is not self.ring:
                raise RingError(f"mixed rings: {self.ring} and {other.ring}")
            return other.value
        return self.ring.normalize(other)

    def __add__(self, other):
        return Scalar(self.ring.add(self.value, self._coerce(other)), self.ring)

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(
            self.ring.add(self.value, self.ring.neg(self._coerce(other))), self.ring
        )

    def __rsub__(self, other):
        return Scalar(
            self.ring.add(self._coerce(other), self.ring.neg(self.value)), self.ring
        )

    def __mul__(self, other):
        return Scalar(self.ring.mul(self.value, self._coerce(other)), self.ring)

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.ring.neg(self.value), self.ring)

    def __eq__(self, other):
        # a plain number is equal only to its own value, so a residue mod m
        # equals only its canonical representative and the hash can agree
        if isinstance(other, Scalar):
            return self.ring is other.ring and self.value == other.value
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    @property
    def is_zero(self) -> bool:
        return not self.value

    def is_unit(self) -> bool:
        return self.ring.is_unit_value(self.value)

    def is_nonzerodivisor(self) -> bool:
        return self.ring.is_nzd_value(self.value)

    def inverse(self) -> "Scalar":
        return Scalar(self.ring.inverse_value(self.value), self.ring)

    def __str__(self):
        return self.ring.format_value(self.value)

    def __repr__(self):
        return f"{self} : {self.ring.name}"


def parse_scalar(text: str, ring: Ring) -> Scalar:
    """Inverse of str(): accepts "-7", "3/4" and "5 mod 6" style strings;
    anything else is refused with RingError, naming the text."""
    if not isinstance(text, str):
        raise RingError(f"scalar {text!r} is not a string")
    text = text.strip().replace("−", "-")
    if isinstance(ring, ModularRing):
        head, mod, modulus = text.partition("mod")
        if mod and _int(modulus, text, "n or n mod m") != ring.modulus:
            raise RingError(f"{text!r} is not an element of {ring.name}")
        return ring(_int(head, text, "n or n mod m"))
    if "/" in text:
        if ring is not QQ:
            raise RingError(f"{text!r} is not an element of {ring.name}")
        num, den = (_int(x, text, "n or n/d") for x in text.split("/", 1))
        if not den:
            raise RingError(f"{text!r} has a zero denominator")
        return ring(Fraction(num, den))
    return ring(_int(text, text, "n or n/d" if ring is QQ else "n"))


def raw_row(x, ring: Ring) -> tuple[list[int] | tuple[int, ...], int]:
    """Values as integers over one denominator, which is 1 off Q: a
    ScalarMatrix's own values, unboxed, or the values of a sequence of
    Scalars (or the flat coefficient values `raw_values()` gives an
    AlgMatrix or a tensor element) over the least denominator that clears
    every entry."""
    if isinstance(x, ScalarMatrix):
        return x.values, x.den
    values = x.raw_values() if hasattr(x, "raw_values") else [s.value for s in x]
    if ring is not QQ:
        return values, 1
    den = math.lcm(*map(_denominator, values))
    if den == 1:
        return list(map(_numerator, values)), 1
    return [v.numerator * (den // v.denominator) for v in values], den


class ScalarMatrix:
    """Dense matrix over a single ring, row major and immutable.

    Stored raw: `values` is a tuple of ints, the entries times one
    denominator `den`, in a normal form that makes equal matrices equal
    field by field.  Over Q, den > 0 and gcd(den, *values) == 1; over Z/m
    the values are residues in [0, m) and den = 1; over Z, den = 1.  The
    constructor takes any ints over any den that is invertible in the ring
    and brings them to that form.  Every kernel works on the raw ints;
    Scalars are built only where entries leave the matrix: `entries`,
    `entry`, `row`, `col`, `flatten` and `to_json`."""

    __slots__ = ("rows", "cols", "ring", "values", "den")

    def __init__(self, rows: int, cols: int, values, ring: Ring, den: int = 1):
        values = tuple(values)
        if len(values) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries, got {len(values)}")
        if den != 1:
            if not den:
                raise RingError("the denominator is zero")
            if isinstance(ring, ModularRing):
                inv = ring.inverse_value(den % ring.modulus)
                values, den = [v * inv for v in values], 1
            else:
                g = math.gcd(den, *values) if den > 0 else -math.gcd(den, *values)
                values, den = [v // g for v in values], den // g
                if ring is ZZ and den != 1:
                    raise RingError("entries are not integers")
        if isinstance(ring, ModularRing):
            values = [v % ring.modulus for v in values]
        self.rows = rows
        self.cols = cols
        self.ring = ring
        self.values = tuple(values)
        self.den = den

    @classmethod
    def from_rows(cls, rows) -> "ScalarMatrix":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ShapeError("matrix needs at least one entry")
        ring = getattr(rows[0][0], "ring", None)
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        entries = [e for r in rows for e in r]
        if any(not isinstance(e, Scalar) or e.ring is not ring for e in entries):
            raise RingError("entries must be Scalars of one ring")
        values, den = raw_row(entries, ring)
        return cls(len(rows), width, values, ring, den)

    @classmethod
    def of_ints(cls, ring: Ring, rows) -> "ScalarMatrix":
        return cls.from_rows([[ring(v) for v in row] for row in rows])

    @classmethod
    def identity(cls, n: int, ring: Ring) -> "ScalarMatrix":
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)], ring)

    @classmethod
    def zero(cls, rows: int, cols: int, ring: Ring) -> "ScalarMatrix":
        return cls(rows, cols, [0] * (rows * cols), ring)

    @property
    def algebra(self) -> Ring:
        """The entry algebra, as for AlgMatrix: here the ring itself."""
        return self.ring

    def _boxed(self, values) -> list[Scalar]:
        ring, den = self.ring, self.den
        if ring is QQ:
            return [Scalar(Fraction(v, den), ring) for v in values]
        return [Scalar(v, ring) for v in values]

    @property
    def entries(self) -> tuple[Scalar, ...]:
        return tuple(self._boxed(self.values))

    def entry(self, i: int, j: int) -> Scalar:
        return self._boxed((self.values[i * self.cols + j],))[0]

    def row(self, i: int) -> list[Scalar]:
        return self._boxed(self.values[i * self.cols : (i + 1) * self.cols])

    def col(self, j: int) -> list[Scalar]:
        return self._boxed(self.values[j :: self.cols])

    @property
    def dim(self) -> int:
        """The size of a square matrix."""
        if self.rows != self.cols:
            raise ShapeError("matrix is not square")
        return self.rows

    def flatten(self) -> list[Scalar]:
        """The entries in row-major order."""
        return self._boxed(self.values)

    def is_zero(self) -> bool:
        return not any(self.values)

    def is_scalar(self) -> bool:
        """Whether the square matrix is c I for some c in its ring."""
        n, v = self.dim, self.values
        return all(x == v[0] if i % (n + 1) == 0 else not x for i, x in enumerate(v))

    def blocks2(self):
        """Split an even-dimensional square matrix into its four half-size blocks."""
        h, odd = divmod(self.dim, 2)
        if odd:
            raise ShapeError("need an even dimension")
        n, v = self.rows, self.values
        return tuple(
            ScalarMatrix(
                h, h, [x for s in range(at, at + h * n, n) for x in v[s : s + h]], self.ring, self.den
            )
            for at in (0, h, h * n, h * n + h)
        )

    def __add__(self, other, op=add):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch")
        if self.ring is not other.ring:
            raise RingError("ring mismatch")
        da, db = self.den, other.den
        if da == db:
            values = map(op, self.values, other.values)
        else:
            den = math.lcm(da, db)
            fa, fb = den // da, den // db
            values = [op(a * fa, b * fb) for a, b in zip(self.values, other.values)]
            da = den
        return ScalarMatrix(self.rows, self.cols, values, self.ring, da)

    def __sub__(self, other):
        return self.__add__(other, sub)

    def __neg__(self):
        return ScalarMatrix(self.rows, self.cols, [-v for v in self.values], self.ring, self.den)

    def __mul__(self, other):
        """Integer dot products of the rows of A with the columns of B, over
        the product of the two denominators; a row of A that is at least
        half zero instead combines the rows of B its non-zero entries pick."""
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError("inner dimensions do not match")
        if self.ring is not other.ring:
            raise RingError("ring mismatch")
        n, k, a, b = self.cols, other.cols, self.values, other.values
        cols = [b[j::k] for j in range(k)]
        out = []
        for i in range(0, len(a), n):
            row = a[i : i + n]
            nz = list(compress(range(n), row))
            if 2 * len(nz) <= n:
                acc = [0] * k
                for t in nz:
                    x = row[t]
                    acc = [u + x * v for u, v in zip(acc, b[t * k : t * k + k])]
                out += acc
            else:
                out += [sum(map(mul, row, col)) for col in cols]
        return ScalarMatrix(self.rows, k, out, self.ring, self.den * other.den)

    def scale(self, s: Scalar) -> "ScalarMatrix":
        if not isinstance(s, Scalar) or s.ring is not self.ring:
            raise RingError("ring mismatch")
        c = s.value
        values = [c.numerator * v for v in self.values]
        return ScalarMatrix(self.rows, self.cols, values, self.ring, self.den * c.denominator)

    def apply(self, vec) -> list:
        """Matrix times column vector."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        return (self * ScalarMatrix.from_rows([[x] for x in vec])).flatten()

    def transpose(self) -> "ScalarMatrix":
        c = self.cols
        values = [x for j in range(c) for x in self.values[j::c]]
        return ScalarMatrix(c, self.rows, values, self.ring, self.den)

    def _elimination_rows(self) -> tuple[list[list[int]], list[int]]:
        """Each row as integers over its own least denominator den / g,
        g = gcd(den, *row): the rows that elimination runs on."""
        c, den = self.cols, self.den
        rows = [list(self.values[i : i + c]) for i in range(0, len(self.values), c)]
        if den == 1:
            return rows, [1] * self.rows
        gs = [math.gcd(den, *row) for row in rows]
        return [[v // g for v in row] for row, g in zip(rows, gs)], [den // g for g in gs]

    def determinant(self) -> Scalar:
        """Fraction-free; over Z/m the integer determinant of the residues, mod m."""
        n = self.dim
        rows, dens = self._elimination_rows()
        pivots = []
        d, sign = _bareiss(rows, range(n), pivots, jordan=False)
        if len(pivots) < n:
            return self.ring.zero
        return self.ring(Fraction(sign * d, math.prod(dens)))

    def inverse(self) -> "ScalarMatrix":
        """Gauss-Jordan on [D A | D], D the row denominators, which leaves
        [d I | d A^-1] with d = +-det A; over Z/m the right block is the
        adjugate up to sign, so d must be a unit mod m."""
        n = self.dim
        rows, dens = self._elimination_rows()
        for i, (row, den) in enumerate(zip(rows, dens)):
            row += [den if j == i else 0 for j in range(n)]
        pivots = []
        d, _ = _bareiss(rows, range(n), pivots)
        if len(pivots) < n:
            raise RingError("matrix is not invertible")
        try:
            return ScalarMatrix(n, n, [x for row in rows for x in row[n:]], self.ring, d)
        except RingError:
            raise RingError("determinant is not a unit, no inverse in the ring") from None

    def __eq__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.ring is other.ring
            and self.den == other.den
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.ring, self.values, self.den))

    def to_json(self):
        return [[str(e) for e in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, data, ring: Ring) -> "ScalarMatrix":
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ShapeError("a matrix is a JSON list of rows")
        return cls.from_rows([[parse_scalar(v, ring) for v in row] for row in data])

    def __repr__(self):
        return "\n".join(" ".join(str(e).rjust(4) for e in self.row(i)) for i in range(self.rows))


def _bareiss(rows, cols, pivots, jordan=True):
    """Fraction-free elimination (Bareiss 1968) of integer rows, in place.

    Pivots on `cols` in order, appending each pivot column to `pivots`;
    pivot t moves to row t.  Every entry stays a minor of the input, so each
    division is exact.  With `jordan` the pivot columns are cleared above
    the pivot too, and every pivot row holds the last pivot d.  Returns d
    and the sign of the row permutation.

    A pivot equal to minus the previous one would negate every row clear of
    its column, so the unused pivot row is negated instead: the rows then
    hold s times the true ones for one carried sign s, which Jordan mode
    takes out at the end.  Without `jordan` each pivot row keeps the sign of
    its own step, so callers (`determinant`, `_rank`) read only d, the sign
    and `pivots`."""
    n = len(rows)
    sign = s = prev = 1
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
        if pc == -prev:
            prow = rows[r] = [-x for x in prow]
            pc, s = prev, -s
        for i in range(0 if jordan else r + 1, n):
            f = rows[i][c]
            if i != r and (f or pc != prev):
                rows[i] = [(x * pc - f * y) // prev for x, y in zip(rows[i], prow)]
        pivots.append(c)
        prev = pc
    if s < 0 and jordan:
        rows[:] = [[-x for x in row] for row in rows]
    return s * prev, sign


def _echelon(rows, ncols: int, modulus: int) -> list[int]:
    """Howell form of integer rows mod m by extended-gcd row steps, in place.

    Each step replaces two rows by a unimodular combination with their gcd
    above a zero; each pivot row times m/gcd(pivot, m) is appended and
    reduced too.  That gives the Howell property (the weak Howell form of
    Storjohann and Mulders): the rows from pivot t on span every vector of
    the row module that vanishes before column pivots[t].  Only the first
    `ncols` columns are pivoted, later ones ride along; rows past the last
    pivot are dropped.  Returns the pivot columns, pivot t in row t."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        for i in range(r + 1, len(rows)):
            a, b = rows[r][c], rows[i][c]
            if not b:
                continue
            # s a + t b = g with a, b >= 0; a = 0 gives s = 0, t = 1, a swap
            g = math.gcd(a, b)
            s = pow(a // g, -1, b // g)
            t = (g - s * a) // b
            a, b = a // g, b // g
            top = [(s * x + t * y) % modulus for x, y in zip(rows[r], rows[i])]
            rows[i] = [(a * y - b * x) % modulus for x, y in zip(rows[r], rows[i])]
            rows[r] = top
        p = rows[r][c]
        if not p:
            continue
        pivots.append(c)
        ann = [modulus // math.gcd(p, modulus) * x % modulus for x in rows[r]]
        if any(ann):
            rows.append(ann)
    del rows[len(pivots):]
    return pivots


def _howell_solve(rows, pivots, modulus: int, b: list[int], k: int) -> list[int] | None:
    """Forward substitution along rows [H | U] from `_echelon`: y with
    y H = b mod m, returned as y U, or None when b is outside the span.
    The Howell property makes the greedy choice at each pivot safe."""
    x = [0] * k
    n = len(b)
    for row, c in zip(rows, pivots):
        v = b[c] % modulus
        if not v:
            continue
        # y with row[c] y = v: v/g times (row[c]/g)^-1 mod m/g
        g = math.gcd(row[c], modulus)
        if v % g:
            return None
        y = v // g * pow(row[c] // g, -1, modulus // g)
        b = [bi - y * h for bi, h in zip(b, row)]
        x = [xi + y * h for xi, h in zip(x, row[n:])]
    if any(bi % modulus for bi in b):
        return None
    return x


def solve_in_ring(a: ScalarMatrix, b) -> list[Scalar] | None:
    """Solve A x = b with x inside the ring of A, or return None.

    One solve against the span of the columns of A, eliminated as the rows
    [a_j | e_j] (see SpanSolver): over Q the solution with the free
    coordinates at zero, over Z and Z/m one in the ring whenever one exists."""
    return SpanSolver(a.transpose(), a.ring).solve(list(b))


def rank_over_fractions(a) -> int:
    """Rank over the fraction field of vectors over Z or Q: `rank_in_ring`
    over whichever of the two rings they are over.  Vectors over Z/m, or
    over both Z and Q, are refused."""
    for ring in (ZZ, QQ):
        try:
            return rank_in_ring(a, ring)
        except RingError:
            pass
    raise RingError("rank over fractions needs vectors over one of Z and Q")


def rank_in_ring(vectors, ring: Ring) -> int:
    """McCoy's rank (Rings and Ideals, 1948) over `ring` of the vectors
    `_rows` reads; they are certified independent when it equals their
    number.  Over Z and Q it is the rank over Q; over Z/m the least rank
    mod a prime p | m, without factoring m.  Either is the number of unit
    pivots taken first plus the rank of the rows they leave (`_rank`)."""
    return _rank(_rows(vectors, ring)[0], getattr(ring, "modulus", 0))


def _rows(vectors, ring: Ring, algebra=None) -> tuple[list, list[int], object]:
    """The vectors a solve, a rank or a unimodularity certificate takes, as
    integer rows over their own least denominators, with the coefficient
    algebra they share.  A ScalarMatrix gives its rows; a sequence gives
    each vector as `raw_row` reads it.  The algebra is a vector's
    `algebra`, a Clifford element's `space`, or `ring` for Scalars, and the
    first vector fixes it unless `algebra` is given.  A vector or an entry
    not over `ring` (a plain int is an entry of no ring) or not over that
    algebra is refused with RingError; a Scalar in place of a vector, and
    unequal lengths, with ShapeError."""
    if isinstance(vectors, ScalarMatrix):
        if vectors.ring is not ring:
            raise RingError(f"vector is not over {ring.name}")
        return (*vectors._elimination_rows(), ring)
    rows, dens = [], []
    for v in vectors:
        if isinstance(v, Scalar):
            raise ShapeError("a vector is a sequence of Scalars, not a Scalar")
        if hasattr(v, "ring"):
            if v.ring is not ring:
                raise RingError(f"vector is not over {ring.name}")
        elif any(getattr(s, "ring", None) is not ring for s in v):
            raise RingError(f"vector is not over {ring.name}")
        own = getattr(v, "algebra", None)
        own = getattr(v, "space", ring) if own is None else own
        if algebra is None:
            algebra = own
        elif own is not algebra and own != algebra:
            raise RingError("vectors have different coefficient algebras")
        row, den = raw_row(v, ring)
        if rows and len(row) != len(rows[0]):
            raise ShapeError("vectors must have equal length")
        rows.append(row)
        dens.append(den)
    return rows, dens, algebra


def is_unimodular(vectors) -> bool:
    """Whether vectors over Z, read by `_rows`, are the rows of a square
    matrix of determinant +-1.  Unit pivots first (`_unit_pivots`): each
    +-1 pivot leaves |det| alone, so the rows they leave must be square
    over the columns they use, with a +-1 Bareiss determinant; a row they
    zero, or a column they leave unused, means det 0."""
    rows = _rows(vectors, ZZ)[0]
    if rows and len(rows[0]) != len(rows):
        return False
    rank, left = _unit_pivots(rows, 0)
    if len(left) != len(rows) - rank or any(len(row) != len(left) for row in left):
        return False
    pivots = []
    d, _ = _bareiss(left, range(len(left)), pivots, jordan=False)
    return len(pivots) == len(left) and abs(d) == 1


def _rank(rows, m: int = 0):
    """McCoy's rank of integer rows: over Q for m = 0, else the least rank
    mod a prime p | m (infinity for m = 1).  Unit pivots first: while a row
    holds a unit (+-1, or a unit mod m), the sparsest such row pivots on it,
    a row operation that adds exactly 1 to the rank over Q and mod every
    prime dividing m.  The rows left go to Bareiss over Q; over Z/m their
    first non-zero entry a splits m into m2, m with the primes of gcd(a, m)
    divided out (a is a unit), and m1 = m / m2 (a vanishes mod every prime
    and is zeroed); each split shrinks m or the non-zeros.  Over Q, where
    Bareiss needs no unit, input with no row at least half zero holding a
    +-1 goes to Bareiss as is; the split needs every unit gone first."""
    if m == 1:
        return math.inf
    rank = 0
    if m or any(2 * row.count(0) >= len(row) and (1 in row or -1 in row) for row in rows):
        rank, rows = _unit_pivots(rows, m)
    if not rows:
        return rank
    if not m:
        pivots = []
        _bareiss(rows, range(len(rows[0])), pivots, jordan=False)
        return rank + len(pivots)
    row = rows[0]
    c = next(j for j, x in enumerate(row) if x)
    m2 = m
    while (g := math.gcd(row[c], m2)) > 1:
        m2 //= g
    rest = [row[:c] + [0] + row[c + 1 :]] + rows[1:]
    return rank + min(_rank(rows, m2), _rank(rest, m // m2))


def _unit_pivots(rows, m: int) -> tuple[int, list[list[int]]]:
    """The unit pivots of `_rank`, sparsest row first (the row count of
    Markowitz 1957; Dumas and Villard 2002): each clears its column from
    the other rows.  Returns their count and the non-zero rows left, dense
    over the columns they use."""
    sparse = []
    for row in rows:
        row = [x % m for x in row] if m else row
        js = list(compress(range(len(row)), row))
        sparse.append(dict(zip(js, map(row.__getitem__, js))))
    queue, rank = sorted((len(row), i) for i, row in enumerate(sparse)), 0
    while queue:
        n, i = queue.pop(0)
        row = sparse[i]
        c = next((j for j, x in row.items() if math.gcd(x, m) == 1), None)  # gcd(x, 0) = |x|
        if len(row) != n or c is None:
            continue
        rank, sparse[i] = rank + 1, {}
        inv = pow(row.pop(c), -1, m) if m else row.pop(c)
        for k, other in enumerate(sparse):
            if c in other:
                f = other.pop(c) * inv
                for j, x in row.items():
                    other[j] = (other.get(j, 0) - f * x) % m if m else other.get(j, 0) - f * x
                    if not other[j]:
                        del other[j]
                insort(queue, (len(other), k))
    used = sorted(set().union(*sparse))
    return rank, [[row.get(j, 0) for j in used] for row in sparse if row]


class SpanSolver:
    """The span of vectors v_1..v_k over Z, Q or Z/m, for repeated solves.

    Every ring eliminates the rows [v_t | e_t], each vector scaled to
    integers: Z/m by `_echelon`, a solve then substituting forward along
    the Howell form, and Z and Q by Bareiss in Jordan mode on the first n
    columns.  That leaves pivot rows [E_t | U_t], E_t holding d at its pivot
    column c_t and 0 at the other pivot columns, and kernel rows [0 | K_s].
    With z_t = b[c_t], b is in the span over Q exactly when d b[j] =
    sum_t z_t E_t[j] at every non-pivot column j, and y = sum_t z_t U_t is
    then d times a solution.  Over Z, U_t is supported on the vectors that
    pivoted and K_s holds d at its own free vector and 0 at the other free
    vectors, so every solution is (y + sum_s x_s K_s) / d, x_s its free
    coordinates: an integral one exists exactly when sum_s x_s K_s = -y
    (mod |d|) has a solution, which `_howell_solve` decides on the Howell
    form of the rows [K_s mod |d| | e_s], built once when |d| > 1.  `rank`
    counts pivots: over Z and Q, the rank over the fraction field.  Vectors
    and targets are read, and refused, by `_rows`."""

    def __init__(self, vectors, ring: Ring):
        vecs, scales, self._algebra = _rows(vectors, ring)
        if not vecs:
            raise ShapeError("need at least one spanning vector")
        self.ring = ring
        self.n = n = len(vecs[0])
        self.k = k = len(vecs)
        self.pivots = []
        rows = [list(v) + [int(i == j) for j in range(k)] for i, v in enumerate(vecs)]
        self._howell = None
        if isinstance(ring, ModularRing):
            self.pivots = _echelon(rows, n, ring.modulus)
            self._howell = rows, self.pivots, ring.modulus
            return
        self._scales = scales
        self._d, _ = _bareiss(rows, range(n), self.pivots)
        r, m = self.rank, abs(self._d)
        # the pivot rows by column: E_t off the pivot columns, and U_t
        self._checks = [(j, [row[j] for row in rows[:r]]) for j in range(n) if j not in self.pivots]
        self._coords = [[row[j] for row in rows[:r]] for j in range(n, n + k)]
        if ring is ZZ and m > 1:
            self._kernel = [row[n:] for row in rows[r:]]
            mod_rows = [
                [x % m for x in kern] + [int(s == t) for t in range(k - r)]
                for s, kern in enumerate(self._kernel)
            ]
            self._howell = mod_rows, _echelon(mod_rows, k, m), m

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, target) -> list[Scalar] | None:
        (b,), (den,), _ = _rows([target], self.ring, self._algebra)
        if len(b) != self.n:
            raise ShapeError("vector length does not match span vectors")
        if isinstance(self.ring, ModularRing):
            x = _howell_solve(*self._howell, b, self.k)
            return None if x is None else ScalarMatrix(1, self.k, x, self.ring).flatten()
        d, z = self._d, [b[c] for c in self.pivots]
        if any(d * b[j] != sum(map(mul, z, col)) for j, col in self._checks):
            return None
        y = [sum(map(mul, z, col)) for col in self._coords]
        if self._howell:
            xs = _howell_solve(*self._howell, [-v for v in y], len(self._kernel))
            if xs is None:
                return None
            for v, kern in zip(xs, self._kernel):
                if v:
                    y = [a + v * c for a, c in zip(y, kern)]
        return ScalarMatrix(1, self.k, map(mul, y, self._scales), self.ring, den * d).flatten()
