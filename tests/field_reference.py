"""Fraction arithmetic in Q(sqrt(r)): the reference that the integer-row
code is tested against.

The library keeps `ExactScalar` as a value (parse, print, float, equality,
negation) and computes on integer rows.  The oracles in the tests compute
the same things the textbook way, with `Elt`: a + b*sqrt(r) for Fractions
a, b, with +, -, * and /.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from momenta.exact import ExactScalar, QuadraticField

# (label, r, rational only): Q is written in the field Q(sqrt2) with rational
# entries, as a config with no "*al" term is
FIELDS = (("Q", 2, True), ("Q(sqrt2)", 2, False), ("Q(sqrt3)", 3, False))


class Elt:
    """a + b*sqrt(r) with Fraction components, exact under +, -, *, /."""

    __slots__ = ("a", "b", "r")

    def __init__(self, a, b=0, r=2):
        self.a, self.b, self.r = Fraction(a), Fraction(b), Fraction(r)

    def _coerce(self, other):
        if isinstance(other, (Elt, ExactScalar, int, Fraction)):
            return lift(other, self.r)
        return None

    def _r(self, o) -> Fraction:
        """The r of a result with o: the r of whichever has a sqrt part."""
        if self.b and o.b and self.r != o.r:
            raise ValueError("elements of different fields")
        return self.r if self.b else o.r

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Elt(self.a + o.a, self.b + o.b, self._r(o))

    __radd__ = __add__

    def __neg__(self):
        return Elt(-self.a, -self.b, self.r)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self._r(o)
        return Elt(self.a * o.a + r * self.b * o.b, self.a * o.b + self.b * o.a, r)

    __rmul__ = __mul__

    def inverse(self) -> Elt:
        # 1/(a + b*sqrt(r)) = (a - b*sqrt(r))/(a^2 - r b^2), nonzero for
        # nonzero input because r is not a rational square
        den = self.a * self.a - self.r * self.b * self.b
        if den == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(r))")
        return Elt(self.a / den, -self.b / den, self.r)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b) == (o.a, o.b) and (not self.b or self.r == o.r)

    def __hash__(self):
        return hash((self.a, self.b))

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.r) ** 0.5

    def exact(self, field: QuadraticField) -> ExactScalar:
        return field.scalar(self.a, self.b)

    def __repr__(self):
        return f"Elt({self.a}, {self.b}, r={self.r})"


def lift(values, r=2):
    """Elts of exact scalars, ints or Fractions, nested in lists or tuples;
    r is the field's descriptor where no ExactScalar carries one."""
    if isinstance(values, (list, tuple)):
        return [lift(v, r) for v in values]
    if isinstance(values, Elt):
        return values
    if isinstance(values, ExactScalar):
        return Elt(values.a, values.b, values.field.r)
    return Elt(values, 0, r)


def exact(values, field: QuadraticField):
    """ExactScalars of ``field`` for Elts, ints or Fractions, nested in lists
    or tuples."""
    if isinstance(values, (list, tuple)):
        return [exact(v, field) for v in values]
    return lift(values, field.r).exact(field)


def elements(r, rational: bool = False):
    """Elts of Q(sqrt(r)) whose components are 0 or small Fractions with
    denominators up to 6; rational ones when ``rational``."""
    part = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-6, max_value=6, max_denominator=6))
    return st.builds(lambda a, b: Elt(a, b, r), part, st.just(0) if rational else part)


def gauss_jordan(rows):
    """Reduced row echelon form of Fraction or Elt rows; returns (rows,
    pivot_columns)."""
    out = [list(row) for row in rows]
    if not out:
        return out, []
    pivots = []
    r = 0
    for c in range(len(out[0])):
        piv = next((i for i in range(r, len(out)) if out[i][c]), None)
        if piv is None:
            continue
        out[r], out[piv] = out[piv], out[r]
        inv = out[r][c]
        out[r] = [x / inv for x in out[r]]
        for i in range(len(out)):
            if i != r and out[i][c]:
                f = out[i][c]
                out[i] = [x - f * y for x, y in zip(out[i], out[r])]
        pivots.append(c)
        r += 1
        if r == len(out):
            break
    return out, pivots
