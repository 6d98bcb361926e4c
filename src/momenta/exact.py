"""Exact scalars a + b*sqrt(r) and linear algebra over the field Q(sqrt(r)).

An `ExactScalar` holds its two rational components as integer pairs in
lowest terms, (an, ad) and (bn, bd) with positive denominators.  It is a
value to parse from a config, compare, negate, print and read as a float;
it has no field arithmetic, and none of those steps builds a
`fractions.Fraction` (the components `a` and `b` are read as Fractions only
on request).  The descriptor r must not be a rational square: irrationality
of sqrt(r) is what makes equality decidable from the components alone.

Exact computation runs on integer rows: `integer_rows` scales rows of exact
entries once to integers [A..., B...] over a common denominator, standing
for A + B*sqrt(R), and `echelon` eliminates fraction-free on them in
Z[sqrt(R)], removing each row's gcd as it goes (see Bareiss 1968 and Cohen,
A Course in Computational Algebraic Number Theory, 2.2).  Fractions appear
only in the rows of rational entries that `from_integer_row` returns, and
so in the rows that `rref` returns (and through it `nullspace` and
`solve_linear`).  Those equal the rows of Gauss-Jordan over Q(sqrt(r)),
because the reduced row echelon form of a matrix is unique."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "QuadraticField",
    "ExactScalar",
    "IntegerRows",
    "integer_rows",
    "from_integer_row",
    "float_row",
    "primitive",
    "pivot_row",
    "clear",
    "echelon",
    "rref",
    "rank",
    "nullspace",
    "solve_linear",
]


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


def _is_rational_square(r: Fraction) -> bool:
    if r < 0:
        return False
    p, q = r.numerator, r.denominator
    return math.isqrt(p) ** 2 == p and math.isqrt(q) ** 2 == q


# Config text format: "a/b" or "a/b+c/d*al" (no spaces); integer numerators and
# pure "c/d*al" terms are accepted as degenerate cases.  In the two-term form
# the alpha coefficient must carry an explicit sign, which keeps the split of
# e.g. "1/10*al" unambiguous: the rational term is present only where it is
# not followed by a digit, a slash or the "*" of an alpha term.  The leading
# lookahead rejects the empty string.
_SCALAR_RE = re.compile(
    r"(?=.)(?:(?P<a>[+-]?\d+)(?:/(?P<ad>\d+))?(?![\d/*]))?(?:(?P<b>[+-]?\d+)(?:/(?P<bd>\d+))?\*al)?"
)


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0."""
    g = math.gcd(num, den)
    return (num // g, den // g) if g != 1 else (num, den)


def _ratio(num, den) -> tuple[int, int]:
    """num/den from digit strings, in lowest terms; an absent num is 0, an
    absent den 1."""
    if den is None:
        return int(num or 0), 1
    d = int(den)
    if d == 0:
        raise ValueError(f"zero denominator in {num}/{den}")
    return _reduced(int(num), d)


def _rational_str(num: int, den: int) -> str:
    """num/den printed as str(Fraction(num, den)) prints it."""
    return str(num) if den == 1 else f"{num}/{den}"


class QuadraticField:
    """The real quadratic field Q(sqrt(r)) for a fixed non-square rational r > 0."""

    __slots__ = ("r", "sqrt_r")

    def __init__(self, r):
        r = _fraction(r)
        if r <= 0:
            raise ValueError(f"field descriptor must be positive, got {r}")
        if _is_rational_square(r):
            raise ValueError(f"field descriptor r={r} is a rational square, sqrt(r) would be rational")
        self.r = r
        self.sqrt_r = math.sqrt(r)

    def scalar(self, a, b=0) -> ExactScalar:
        a, b = _fraction(a), _fraction(b)
        return ExactScalar(a.numerator, a.denominator, b.numerator, b.denominator, self)

    @property
    def zero(self) -> ExactScalar:
        return ExactScalar(0, 1, 0, 1, self)

    @property
    def one(self) -> ExactScalar:
        return ExactScalar(1, 1, 0, 1, self)

    def parse(self, text: str) -> ExactScalar:
        m = _SCALAR_RE.fullmatch(text) if isinstance(text, str) else None
        if m is None:
            hint = " (expected 'a/b' or 'a/b+c/d*al')" if isinstance(text, str) and " " not in text else ""
            raise ValueError(f"malformed exact scalar: {text!r}{hint}")
        a, ad, b, bd = m.groups()
        return ExactScalar(*_ratio(a, ad), *_ratio(b, bd), self)

    def coerce(self, x) -> ExactScalar:
        if isinstance(x, ExactScalar):
            if x.field is not self and x.field != self:
                raise ValueError("scalar from a different field")
            return x
        if isinstance(x, str):
            return self.parse(x)
        return self.scalar(x)

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and self.r == other.r

    def __hash__(self):
        return hash(("QuadraticField", self.r))

    def __repr__(self):
        return f"QuadraticField({self.r})"


class ExactScalar:
    """a + b*sqrt(r) with rational a = an/ad and b = bn/bd, each in lowest
    terms with a positive denominator: a value that is parsed, compared,
    negated, printed and read as a float.  Arithmetic on exact data runs on
    the integer rows of `integer_rows`."""

    __slots__ = ("an", "ad", "bn", "bd", "field")

    def __init__(self, an: int, ad: int, bn: int, bd: int, field: QuadraticField):
        self.an, self.ad, self.bn, self.bd = an, ad, bn, bd
        self.field = field

    @property
    def a(self) -> Fraction:
        return Fraction(self.an, self.ad)

    @property
    def b(self) -> Fraction:
        return Fraction(self.bn, self.bd)

    def __neg__(self):
        return ExactScalar(-self.an, self.ad, -self.bn, self.bd, self.field)

    def __bool__(self):
        return self.an != 0 or self.bn != 0

    def __eq__(self, other):
        if isinstance(other, ExactScalar):
            # a rational scalar is the same number in every field, so the
            # fields are compared only where a sqrt part is nonzero
            return (self.an, self.ad, self.bn, self.bd) == (other.an, other.ad, other.bn, other.bd) and (
                self.bn == 0 or self.field == other.field
            )
        if isinstance(other, (int, Fraction)):
            return self.bn == 0 and (self.an, self.ad) == (other.numerator, other.denominator)
        return NotImplemented

    def __hash__(self):
        # a scalar with no sqrt part equals, and so hashes as, its rational
        if self.bn == 0:
            return hash(self.an) if self.ad == 1 else hash(Fraction(self.an, self.ad))
        return hash((self.an, self.ad, self.bn, self.bd, self.field.r))

    def __float__(self):
        # int / int is correctly rounded, as in Fraction.__float__
        return self.an / self.ad + (self.bn / self.bd) * self.field.sqrt_r

    def format(self) -> str:
        a = _rational_str(self.an, self.ad)
        if self.bn == 0:
            return a
        b = _rational_str(self.bn, self.bd)
        if self.an == 0:
            return f"{b}*al"
        return f"{a}{b}*al" if self.bn < 0 else f"{a}+{b}*al"

    def __repr__(self):
        return f"ExactScalar({self.format()!r}, r={self.field.r})"


# ---------------------------------------------------------------------------
# Exact Gauss-Jordan elimination on integers.  Entries are int, Fraction or
# ExactScalar; rows are lists.  Over Q(sqrt(r)) with r = p/q, put R = p*q, so
# that b*sqrt(r) = (b/q)*sqrt(R); the rows are scaled once by a common
# denominator to the integers [A_0..A_{n-1}, B_0..B_{n-1}] of their entries
# A_j + B_j*sqrt(R) (just [A_0..A_{n-1}] when no entry has a sqrt part).


def _field_of(rows):
    """The field of the ExactScalar entries, or None when all are rational."""
    # one hash per distinct field object, not one per entry
    fields = set({id(x.field): x.field for row in rows for x in row if isinstance(x, ExactScalar)}.values())
    if len(fields) > 1:
        raise ValueError("scalars from different fields")
    return fields.pop() if fields else None


class IntegerRows(NamedTuple):
    """Rows of exact entries as integers: entry j of row i is
    (A_j + B_j*sqrt(R)) / den for ints[i] = [A_0..A_{n-1}, B_0..B_{n-1}],
    with q the denominator of the field's r; when no entry has a sqrt part,
    R = 0, q = 1 and ints[i] = [A_0..A_{n-1}]."""

    ints: list
    den: int
    q: int
    R: int


def _pairs(x) -> tuple[int, int, int, int]:
    """(an, ad, bn, bd) of an int, Fraction or ExactScalar entry."""
    if isinstance(x, ExactScalar):
        return x.an, x.ad, x.bn, x.bd
    return x.numerator, x.denominator, 0, 1


def integer_rows(rows) -> IntegerRows:
    """The `IntegerRows` of rows of int, Fraction or ExactScalar entries,
    over the least common denominator."""
    parts = [[_pairs(x) for x in row] for row in rows]
    split = any(p[2] for row in parts for p in row)
    field = _field_of(rows) if split else None
    q = field.r.denominator if split else 1
    fracs = [
        [(an, ad) for an, ad, _, _ in row] + [(bn, bd * q) for _, _, bn, bd in row if split]
        for row in parts
    ]
    den = math.lcm(*(d for row in fracs for _, d in row))
    ints = [[num * (den // d) for num, d in row] for row in fracs]
    return IntegerRows(ints, den, q, field.r.numerator * q if split else 0)


def from_integer_row(row, den: int, q: int, R: int, field):
    """The entries (A_j + B_j*sqrt(R)) / den of an integer row [A..., B...]
    ([A...] when R is 0) as Fractions, or as ExactScalars of ``field``."""
    n = len(row) // 2 if R else len(row)
    if field is None:
        return [Fraction(x, den) for x in row[:n]]
    b = [_reduced(q * x, den) for x in row[n:]] if R else [(0, 1)] * n
    return [ExactScalar(*_reduced(x, den), *y, field) for x, y in zip(row[:n], b)]


def float_row(row, den: int, q: int, R: int, sqrt_r: float):
    """The entries (A_j + B_j*sqrt(R)) / den of an integer row, den > 0, as
    the floats a/den + (q*b/den)*sqrt(r), rounded as ExactScalar.__float__
    rounds them."""
    n = len(row) // 2 if R else len(row)
    return [a / den + (q * b / den) * sqrt_r for a, b in zip(row, row[n:] if R else [0] * n)]


def primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _times_sqrt(row, R):
    """sqrt(R) times an integer row [A..., B...] of Z[sqrt(R)] entries."""
    n = len(row) // 2
    return [R * b for b in row[n:]] + row[:n]


def pivot_row(row, c: int, R: int):
    """The primitive multiple of an integer row whose entry at column c is a
    positive rational integer: the row times that entry's conjugate, divided
    by the gcd.  Rows are [A..., B...] for entries A + B*sqrt(R), or [A...]
    when R is 0."""
    b = row[len(row) // 2 + c] if R else 0
    if b:
        row = [row[c] * x - b * y for x, y in zip(row, _times_sqrt(row, R))]
    row = primitive(row)
    return row if row[c] > 0 else [-x for x in row]


def clear(row, prow, c: int, R: int):
    """P*row - f*prow over Z[sqrt(R)], with f the entry of row at column c
    and P the rational integer there in the pivot row prow: zero at c."""
    fa, fb = row[c], row[len(row) // 2 + c] if R else 0
    if fb:
        return [prow[c] * x - fa * y - fb * z for x, y, z in zip(row, prow, _times_sqrt(prow, R))]
    return [prow[c] * x - fa * y for x, y in zip(row, prow)]


def echelon(ints, ncols: int, R: int = 0):
    """Reduced echelon form of integer rows over Z[sqrt(R)]; returns
    (pivot_rows, pivot_columns), one `pivot_row` per pivot.

    Rows are [A_0..A_{ncols-1}, B_0..B_{ncols-1}] for the entries
    A_j + B_j*sqrt(R), or [A_0..A_{ncols-1}] when R is 0.  Each pivot row
    gets a positive rational integer P at its pivot; every other row is
    cleared by row <- P*row - f*pivot_row (`clear`) and divided by the gcd
    of its integers.  Dividing pivot row i by P gives row i of the reduced
    row echelon form over the field.
    """
    ints = [list(row) for row in ints]
    m = len(ints)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, m) if any(ints[i][c::ncols])), None)
        if piv is None:
            continue
        prow, ints[piv] = ints[piv], ints[r]
        ints[r] = prow = pivot_row(prow, c, R)
        for i, row in enumerate(ints):
            if i != r and any(row[c::ncols]):
                ints[i] = primitive(clear(row, prow, c, R))
        pivots.append(c)
        if r + 1 == m:
            break
    return ints[: len(pivots)], pivots


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns).

    Fraction rows give Fraction rows, ExactScalar rows give ExactScalar rows,
    and rows beyond the rank come back zero.  The elimination is `echelon`
    on the integer rows above; Fractions are built only for the returned
    entries x/P.  Rows are only scaled by nonzero scalars or changed by
    multiples of each other, and the reduced row echelon form of a matrix is
    unique, so the result is exactly that of Gauss-Jordan over Q(sqrt(r)).
    """
    rows = [list(row) for row in rows]
    if not rows:
        return rows, []
    ncols, m = len(rows[0]), len(rows)
    field = _field_of(rows)
    ints, _, q, R = integer_rows(rows)
    red, pivots = echelon(ints, ncols, R)
    out = [from_integer_row(row, row[c], q, R, field) for row, c in zip(red, pivots)]
    zero = Fraction(0) if field is None else field.zero
    out.extend([zero] * ncols for _ in range(m - len(pivots)))
    return out, pivots


def rank(rows) -> int:
    ints, _, _, R = integer_rows(rows)
    return len(echelon(ints, len(rows[0]) if rows else 0, R)[1])


def nullspace(rows):
    """Basis of {x : A x = 0} for A given by rows, in the rows' scalar type."""
    if not rows:
        return []
    ncols = len(rows[0])
    field = _field_of(rows)
    one, zero = (Fraction(1), Fraction(0)) if field is None else (field.one, field.zero)
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def solve_linear(rows, rhs):
    """One solution of A x = rhs, or None if inconsistent; A given by rows."""
    if not rows:
        return []
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    field = _field_of(aug)
    x = [Fraction(0) if field is None else field.zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x
