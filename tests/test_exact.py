from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_reference import Elt, exact, gauss_jordan, lift
from momenta.exact import (
    ExactScalar,
    QuadraticField,
    echelon,
    float_row,
    integer_rows,
    nullspace,
    rank,
    rref,
    solve_linear,
)

F2 = QuadraticField(2)


def s(a, b=0):
    return F2.scalar(a, b)


class TestFieldConstruction:
    def test_rejects_square_descriptor(self):
        for r in ["4", "9/4", "1", "0", "-2"]:
            with pytest.raises(ValueError):
                QuadraticField(r)

    def test_accepts_non_square_rational(self):
        QuadraticField(2)
        QuadraticField("5")
        QuadraticField(Fraction(1, 2))
        QuadraticField("8/3")

    def test_fields_compare_by_descriptor(self):
        assert QuadraticField(2) == QuadraticField("2")
        assert QuadraticField(2) != QuadraticField(3)


class TestParsing:
    def test_rational_only(self):
        x = F2.parse("1/2")
        assert (x.a, x.b) == (Fraction(1, 2), Fraction(0))

    def test_full_form(self):
        # the config wire format: "a/b+c/d*al", no spaces
        x = F2.parse("1/2+1/3*al")
        assert (x.a, x.b) == (Fraction(1, 2), Fraction(1, 3))

    def test_negative_coefficients(self):
        x = F2.parse("-1/2-2/7*al")
        assert (x.a, x.b) == (Fraction(-1, 2), Fraction(-2, 7))

    def test_integer_and_pure_alpha(self):
        assert F2.parse("3") == s(3)
        assert F2.parse("2*al") == s(0, 2)
        assert F2.parse("-1*al") == s(0, -1)

    def test_rejects_malformed(self):
        for text in ["", "1/2+", "al", "1//2", "1/2 + 1/3*al", "2+-3*al", "1.5"]:
            with pytest.raises(ValueError):
                F2.parse(text)

    def test_format_round_trip(self):
        for x in [s(0), s(3), s(-2, 5), s(Fraction(1, 2), Fraction(-1, 3)), s(0, 7)]:
            assert F2.parse(x.format()) == x


class TestArithmetic:
    """The Fraction reference that the integer-row oracles compute with."""

    def test_known_product(self):
        # (1 + al)(1 - al) = 1 - r = -1 for r = 2
        assert Elt(1, 1) * Elt(1, -1) == Elt(-1)

    def test_inverse_formula(self):
        # 1/(3 + al) = (3 - al)/(9 - 2) = 3/7 - 1/7 al
        assert 1 / Elt(3, 1) == Elt(Fraction(3, 7), Fraction(-1, 7))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Elt(1) / Elt(0)

    def test_mixed_coercion(self):
        # ExactScalar equality reads ints and Fractions as rationals, and
        # negation is its one operation
        assert s(2) == 2 and s(2, 1) != 2 and s(Fraction(1, 2)) == Fraction(1, 2)
        assert -s(1, -2) == s(-1, 2) and s(0, 1) != QuadraticField(3).scalar(0, 1)
        assert lift(s(1, 1)) + 1 == s(2, 1)
        assert Fraction(1, 2) - lift(s(0, 1)) == s(Fraction(1, 2), -1)


class TestOrderingAndFloat:
    def test_float_value(self):
        assert float(s(1, 1)) == pytest.approx(2.414213562373095, abs=1e-15)


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
scalars = st.builds(lambda a, b: s(a, b), rationals, rationals)
elements = st.builds(Elt, rationals, rationals)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(elements, elements, elements)
    def test_ring_axioms(self, x, y, z):
        # of the reference arithmetic
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x

    @settings(max_examples=60, deadline=None)
    @given(elements)
    def test_inverse_round_trip(self, x):
        if x:
            assert x * (1 / x) == 1

    @settings(max_examples=60, deadline=None)
    @given(scalars)
    def test_parse_format_round_trip(self, x):
        assert F2.parse(x.format()) == x


def fraction_format(a: Fraction, b: Fraction) -> str:
    """The printed form of a + b*al, written with Fraction's own str."""
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*al"
    return f"{a}{b}*al" if b < 0 else f"{a}+{b}*al"


def scalar_text(an, ad, bn, bd) -> str:
    """Config text with the components as given, unreduced; a zero part is
    dropped where the grammar allows it."""
    a = f"{an}/{ad}"
    b = f"{bn}/{bd}*al"
    if bn == 0:
        return a
    if an == 0:
        return b
    return a + b if bn < 0 else f"{a}+{b}"


components = st.tuples(
    st.integers(-10**30, 10**30), st.integers(1, 10**20), st.integers(-10**30, 10**30), st.integers(1, 10**20)
)


class TestScalarValue:
    """Parse, print, float, negation and equality of the integer-pair
    scalar, against Fraction and the `Elt` reference."""

    @settings(max_examples=200, deadline=None)
    @given(components, st.sampled_from([QuadraticField(2), QuadraticField(3), QuadraticField("8/3")]))
    def test_matches_fractions(self, parts, field):
        an, ad, bn, bd = parts
        a, b = Fraction(an, ad), Fraction(bn, bd)
        x = field.parse(scalar_text(an, ad, bn, bd))
        assert (x.a, x.b) == (a, b)
        assert (x.an, x.ad, x.bn, x.bd) == (a.numerator, a.denominator, b.numerator, b.denominator)
        assert x.format() == fraction_format(a, b)
        assert field.parse(x.format()) == x
        # bit for bit the float that Fraction components give
        want = float(a) + float(b) * field.sqrt_r
        assert np.float64(float(x)).tobytes() == np.float64(want).tobytes()
        assert float(x) == pytest.approx(float(lift(x)), rel=1e-12, abs=1e-300)
        assert -x == field.scalar(-a, -b) and lift(-x) == -lift(x)
        assert -(-x) == x and bool(x) == bool(a or b)
        assert x == field.scalar(a, b) and x != field.scalar(a, b + 1)
        assert (x == a) == (b == 0) and (hash(x) == hash(a) if b == 0 else x != a)
        if b == 0 and a.denominator == 1:
            assert x == a.numerator and hash(x) == hash(a.numerator)

    def test_unreduced_input_prints_reduced(self):
        assert F2.parse("4/6+2/4*al").format() == "2/3+1/2*al"
        assert F2.parse("-6/4").format() == "-3/2"
        assert F2.parse("0/7-3/9*al").format() == "-1/3*al"

    def test_negative_zero(self):
        for text in ["-0", "+0", "-0/5", "-0*al", "0-0*al"]:
            x = F2.parse(text)
            assert x.format() == "0" and x == 0 and not x
            assert np.float64(float(x)).tobytes() == np.float64(0.0).tobytes()

    def test_messages(self):
        with pytest.raises(ValueError, match=r"^zero denominator in 1/0$"):
            F2.parse("1/0")
        with pytest.raises(ValueError, match=r"^zero denominator in \+2/0$"):
            F2.parse("1/2+2/0*al")
        with pytest.raises(ValueError, match=r"^malformed exact scalar: '1\?\?' \(expected 'a/b' or 'a/b\+c/d\*al'\)$"):
            F2.parse("1??")
        with pytest.raises(ValueError, match=r"^malformed exact scalar: '1 \+ 1\*al'$"):
            F2.parse("1 + 1*al")
        with pytest.raises(ValueError, match=r"^malformed exact scalar: 1.5$"):
            F2.parse(1.5)

    def test_hash_agrees_with_equality(self):
        # a scalar with no sqrt part equals its rational, so it hashes as it
        three, half = F2.parse("3"), F2.parse("2/4")
        assert three == 3 and hash(three) == hash(3)
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        assert len({three, 3, Fraction(3)}) == 1
        assert {3: "int"}[three] == "int" and {half: "half"}[Fraction(1, 2)] == "half"
        assert QuadraticField(3).parse("3") == 3 and hash(QuadraticField(3).parse("3")) == hash(three)
        x = F2.parse("1/2+1/3*al")
        assert hash(x) == hash(F2.scalar(Fraction(1, 2), Fraction(1, 3))) and len({x, F2.parse("2/4+2/6*al")}) == 1

    def test_rational_equality_is_transitive(self):
        # a rational scalar is the same number in every field; a sqrt part
        # names its field
        three2, three3 = F2.parse("3"), QuadraticField(3).parse("3")
        assert three2 == three3 and three2 == 3 and three3 == 3
        assert len({three2, three3, 3}) == len({3, three2, three3}) == len({three3, 3, three2}) == 1
        assert F2.parse("3+1*al") != QuadraticField(3).parse("3+1*al")
        assert F2.parse("3+1*al") != three2 and F2.parse("1*al") != F2.zero


class TestLinearAlgebra:
    def test_rank_rational(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert rank(rows) == 1

    def test_rank_field(self):
        # (1, al) and (al, 2) are dependent over Q(al): al*(1, al) = (al, 2)
        rows = [[s(1), s(0, 1)], [s(0, 1), s(2)]]
        assert rank(rows) == 1
        # ... but their split rational forms are independent over Q
        split = [[Fraction(1), Fraction(0), Fraction(0), Fraction(1)],
                 [Fraction(0), Fraction(1), Fraction(2), Fraction(0)]]
        assert rank(split) == 2

    def test_rref_identity(self):
        rows = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(3)]]
        red, pivots = rref(rows)
        assert red == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert pivots == [0, 1]

    def test_nullspace_field(self):
        # matrix with columns c1 = (1, al), c2 = (al, 2): kernel spanned by (al, -1)
        rows = [[s(1), s(0, 1)], [s(0, 1), s(2)]]
        basis = nullspace(rows)
        assert len(basis) == 1
        c = basis[0]
        assert all(isinstance(x, ExactScalar) for x in c)  # the rows' scalar type
        assert all(type(x) is Fraction for x in nullspace([[Fraction(1), Fraction(2)]])[0])
        for row in lift(rows):
            assert row[0] * c[0] + row[1] * c[1] == 0

    def test_solve_linear(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(2)]]
        x = solve_linear(rows, [Fraction(3), Fraction(4)])
        assert x == [Fraction(1), Fraction(2)]
        assert solve_linear([[Fraction(1)], [Fraction(1)]], [Fraction(1), Fraction(2)]) is None


def reference_rref(rows):
    """Gauss-Jordan with Fraction arithmetic (`Elt` over Q(sqrt(r))): the
    oracle that the integer elimination of `rref` must reproduce entry for
    entry."""
    field = next((x.field for row in rows for x in row if isinstance(x, ExactScalar)), None)
    out, pivots = gauss_jordan(rows if field is None else lift(rows))
    return (out if field is None else exact(out, field)), pivots


ORACLE_FIELDS = (None, F2, QuadraticField("8/3"), QuadraticField("1/2"))
small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
sparse = st.one_of(st.just(Fraction(0)), small)


@st.composite
def matrices(draw):
    """Rows over Q (Fractions) or over Q(sqrt r) (ExactScalars), with zero
    rows, zero columns and rows dependent over the field but not over Q."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = sparse if field is None else st.builds(field.scalar, sparse, sparse)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    zero = Fraction(0) if field is None else field.zero
    if n and draw(st.booleans()):
        c = draw(st.integers(0, n - 1))
        rows = [row[:c] + [zero] + row[c + 1 :] for row in rows]
    if rows and field is not None and draw(st.booleans()):
        # (a + sqrt(r)) * row: dependent over the field, but its split
        # rational form is independent of the row's
        f = Elt(draw(small), 1, field.r)
        rows.insert(draw(st.integers(0, len(rows))), exact([f * x for x in rows[0]], field))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [zero] * n)
    return rows


class TestRrefOracle:
    @settings(max_examples=100, deadline=None)
    @given(matrices())
    def test_matches_fraction_elimination(self, rows):
        red, pivots = rref(rows)
        want, want_pivots = reference_rref(rows)
        assert pivots == want_pivots
        assert rank(rows) == len(pivots)
        assert red == want
        assert [[type(x) for x in row] for row in red] == [[type(x) for x in row] for row in want]
        for row in red:
            for x in row:
                if isinstance(x, ExactScalar):
                    assert x.field == rows[0][0].field
                    assert type(x.a) is Fraction and type(x.b) is Fraction

    @settings(max_examples=100, deadline=None)
    @given(matrices())
    def test_float_rows_match_the_exact_rows(self, rows):
        # the torus orbit basis reads floats off the integer rows; they must
        # be the floats of rref's exact entries, bit for bit
        red, pivots = rref(rows)
        ints, _, q, R = integer_rows(rows)
        fields = [x.field for row in rows for x in row if isinstance(x, ExactScalar)]
        sqrt_r = fields[0].sqrt_r if fields else 0.0
        pivot_rows, _ = echelon(ints, len(rows[0]) if rows else 0, R)
        for row, c, want in zip(pivot_rows, pivots, red):
            got = float_row(row, row[c], q, R, sqrt_r)
            assert np.array(got).tobytes() == np.array([float(x) for x in want]).tobytes()

    def test_field_dependence_is_not_rational_dependence(self):
        F = QuadraticField("8/3")
        rows = [[F.scalar(1), F.scalar(0, 1)], [F.scalar(0, 1), F.scalar("8/3")]]
        red, pivots = rref(rows)
        assert pivots == [0] and red == reference_rref(rows)[0]
        assert rank([[x.a for x in row] + [x.b for x in row] for row in rows]) == 2
