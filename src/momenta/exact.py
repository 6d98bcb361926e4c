"""Exact scalars a + b*sqrt(r) and linear algebra over the field Q(sqrt(r)).

Both components are `fractions.Fraction`, so all field operations are exact.
The descriptor r must not be a rational square: irrationality of sqrt(r) is
what makes equality and sign decidable from the components alone.

Row reduction does not use that arithmetic: `echelon` eliminates
fraction-free on integer pairs (A, B) standing for A + B*sqrt(R), removing
each row's gcd as it goes (see Bareiss 1968 and Cohen, A Course in
Computational Algebraic Number Theory, 2.2), and returns integer rows.
`rank` reads only its pivots; `rref` (and through it `nullspace` and
`solve_linear`) builds Fractions only for the rows it returns.  Those equal
the rows of Gauss-Jordan over Q(sqrt(r)), because the reduced row echelon
form of a matrix is unique.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering

__all__ = [
    "QuadraticField",
    "ExactScalar",
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
    if isinstance(x, int):
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
# e.g. "1/10*al" unambiguous.
_A = r"(?P<a>[+-]?\d+)(?:/(?P<ad>\d+))?"
_TWO_TERM_RE = re.compile(_A + r"(?P<b>[+-]\d+)(?:/(?P<bd>\d+))?\*al")
_ALPHA_RE = re.compile(r"(?P<b>[+-]?\d+)(?:/(?P<bd>\d+))?\*al")
_RAT_RE = re.compile(_A)


def _ratio(num, den) -> Fraction:
    """num/den from digit strings; an absent num is 0, an absent den 1."""
    if den is not None and int(den) == 0:
        raise ValueError(f"zero denominator in {num}/{den}")
    return Fraction(int(num or 0), int(den or 1))


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
        return ExactScalar(_fraction(a), _fraction(b), self)

    @property
    def zero(self) -> ExactScalar:
        return self.scalar(0)

    @property
    def one(self) -> ExactScalar:
        return self.scalar(1)

    def parse(self, text: str) -> ExactScalar:
        if not isinstance(text, str) or " " in text:
            raise ValueError(f"malformed exact scalar: {text!r}")
        m = _TWO_TERM_RE.fullmatch(text) or _ALPHA_RE.fullmatch(text) or _RAT_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"malformed exact scalar: {text!r} (expected 'a/b' or 'a/b+c/d*al')")
        g = m.groupdict()
        return ExactScalar(_ratio(g.get("a"), g.get("ad")), _ratio(g.get("b"), g.get("bd")), self)

    def coerce(self, x) -> ExactScalar:
        if isinstance(x, ExactScalar):
            if x.field is not self and x.field != self:
                raise ValueError("scalar from a different field")
            return x
        if isinstance(x, str):
            return self.parse(x)
        return self.scalar(_fraction(x))

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and self.r == other.r

    def __hash__(self):
        return hash(("QuadraticField", self.r))

    def __repr__(self):
        return f"QuadraticField({self.r})"


@total_ordering
class ExactScalar:
    """a + b*sqrt(r) with rational a, b, exact under +, -, *, /."""

    __slots__ = ("a", "b", "field")

    def __init__(self, a: Fraction, b: Fraction, field: QuadraticField):
        self.a = a
        self.b = b
        self.field = field

    def _make(self, a, b):
        return ExactScalar(a, b, self.field)

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            if other.field != self.field:
                return None
            return other
        if isinstance(other, (int, Fraction)):
            return self._make(_fraction(other), Fraction(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self.field.r
        return self._make(self.a * o.a + r * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> ExactScalar:
        # 1/(a + b*sqrt(r)) = (a - b*sqrt(r))/(a^2 - r b^2); the denominator is
        # nonzero for nonzero input because r is not a rational square.
        den = self.a * self.a - self.field.r * self.b * self.b
        if den == 0:
            raise ZeroDivisionError("division by zero exact scalar")
        return self._make(self.a / den, -self.b / den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = self._make(Fraction(1), Fraction(0))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self):
        return self._make(-self.a, -self.b)

    def __pos__(self):
        return self

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.field.r))

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: sign decided by comparing a^2 against r b^2
        big_a = a * a > self.field.r * b * b
        if a > 0:
            return 1 if big_a else -1
        return -1 if big_a else 1

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        return float(self.a) + float(self.b) * self.field.sqrt_r

    def is_rational(self) -> bool:
        return self.b == 0

    def format(self) -> str:
        if self.b == 0:
            return str(self.a)
        tail = f"{self.b}*al" if self.b < 0 else f"+{self.b}*al"
        if self.a == 0:
            return f"{self.b}*al"
        return f"{self.a}{tail}"

    def __repr__(self):
        return f"ExactScalar({self.format()!r}, r={self.field.r})"


# ---------------------------------------------------------------------------
# Exact Gauss-Jordan elimination on integers.  Entries are int, Fraction or
# ExactScalar; rows are lists.  Over Q(sqrt(r)) with r = p/q, put R = p*q, so
# that b*sqrt(r) = (b/q)*sqrt(R); each row is scaled once by a common
# denominator to the integers [A_0..A_{n-1}, B_0..B_{n-1}] of its entries
# A_j + B_j*sqrt(R) (just [A_0..A_{n-1}] when no entry has a sqrt part).


def _field_of(rows):
    """The field of the ExactScalar entries, or None when all are rational."""
    # one hash per distinct field object, not one per entry
    fields = set({id(x.field): x.field for row in rows for x in row if isinstance(x, ExactScalar)}.values())
    if len(fields) > 1:
        raise ValueError("scalars from different fields")
    return fields.pop() if fields else None


def integer_rows(rows):
    """(ints, dens, q, R) for rows of int, Fraction or ExactScalar entries:
    entry j of row i is (A_j + B_j*sqrt(R)) / dens[i] for ints[i] =
    [A_0..A_{n-1}, B_0..B_{n-1}], and q is the denominator of the field's r.
    When no entry has a sqrt part, R = 0, q = 1 and ints[i] = [A_0..A_{n-1}]."""
    parts = [[(x.a, x.b) if isinstance(x, ExactScalar) else (x, 0) for x in row] for row in rows]
    split = any(b for row in parts for _, b in row)
    field = _field_of(rows) if split else None
    q = field.r.denominator if split else 1
    ints, dens = [], []
    for row in parts:
        fracs = [(a.numerator, a.denominator) for a, _ in row]
        if split:
            fracs += [(b.numerator, b.denominator * q) for _, b in row]
        den = math.lcm(*(d for _, d in fracs))
        ints.append([num * (den // d) for num, d in fracs])
        dens.append(den)
    return ints, dens, q, field.r.numerator * q if split else 0


def from_integer_row(row, den: int, q: int, R: int, field):
    """The entries (A_j + B_j*sqrt(R)) / den of an integer row [A..., B...]
    ([A...] when R is 0) as Fractions, or as ExactScalars of ``field``."""
    n = len(row) // 2 if R else len(row)
    a = [Fraction(x, den) for x in row[:n]]
    if field is None:
        return a
    b = [Fraction(q * x, den) for x in row[n:]] if R else [Fraction(0)] * n
    return [ExactScalar(x, y, field) for x, y in zip(a, b)]


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
    one = Fraction(1) if field is None else field.one
    red, pivots = rref(rows)
    zero = one - one
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
    zero = rhs[0] - rhs[0]
    x = [zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x
