"""Integer lattices and finitely generated subgroups of R^n with exact coordinates.

Column Hermite and Smith normal forms over Z with unimodular transforms,
membership/quotient computations, and the discreteness decision with closure
decomposition for Z-spans of Q(sqrt(r))-vectors.  One Bezout elimination,
the row Hermite step, serves both forms: the Smith form is rounds of it on
a matrix and its transpose.  Everything in this module is exact
big-integer/rational arithmetic; no floating point.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from .exact import (
    ExactScalar,
    IntegerRows,
    QuadraticField,
    clear,
    echelon,
    from_integer_row,
    integer_rows,
    pivot_row,
    primitive,
)

__all__ = [
    "xgcd",
    "hermite_normal_form",
    "smith_normal_form",
    "LatticeSubgroup",
    "AbelianInvariants",
    "quotient_invariants",
    "GeneratedSubgroup",
    "ClosedSubgroupDecomp",
    "is_closed",
    "kernel_lattice",
    "subgroup_is_hamiltonian",
    "CoverDescriptor",
    "classify_cover",
]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _eye(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def _row_hermite(A, T=None):
    """Row HNF: (H, U T) with H = U A; upper echelon, positive pivots,
    entries above each pivot reduced into [0, pivot).  T defaults to the
    identity, so the second is U.  Each row of A is carried with its row of
    T as one augmented row, so every row step is one list operation.

    Below a pivot, an entry the pivot divides is cleared by a shear, which
    leaves the pivot row as it is; any other takes a Bezout step, which
    lowers the pivot to the gcd.  So `smith_normal_form`'s alternating
    rounds on D and its transpose terminate by descent: from the second
    round on, the leading entry is positive and never grows, and a round
    that does not lower it clears its line with shears and leaves the line
    the round before cleared alone.  Both stay clear, and the argument
    repeats on the trailing block, on which the rounds act as on a matrix
    of its own.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    M = [[int(x) for x in a] + t for a, t in zip(A, _eye(m) if T is None else T)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, m):
            a, b = M[r][c], M[i][c]
            if b % a:
                g, x, y = xgcd(a, b)
                ar, ai = a // g, b // g
                M[r], M[i] = (
                    [x * p + y * q for p, q in zip(M[r], M[i])],
                    [-ai * p + ar * q for p, q in zip(M[r], M[i])],
                )
            elif b:
                q = b // a
                M[i] = [p - q * s for p, s in zip(M[i], M[r])]
        if M[r][c] < 0:
            M[r] = [-x for x in M[r]]
        for i in range(r):
            q = M[i][c] // M[r][c]
            if q:
                M[i] = [p - q * s for p, s in zip(M[i], M[r])]
        r += 1
        if r == m:
            break
    return [row[:n] for row in M], [row[n:] for row in M]


def hermite_normal_form(A):
    """Column HNF: (H, U) with H = A·U, U unimodular.

    Nonzero columns lead with positive pivots on strictly increasing rows;
    this is the canonical representation used for subgroup equality.
    """
    Hr, Ur = _row_hermite(_transpose(A))
    return _transpose(Hr), _transpose(Ur)


def smith_normal_form(A):
    """Smith normal form: (D, S, T) with D = S A T diagonal, d_i | d_{i+1}.

    Row Hermite rounds on D, carrying S, and on its transpose, carrying the
    transpose of T, alternate until D is diagonal (see `_row_hermite` for
    why they stop); its diagonal is then positive, zeros last.  Each pair
    of entries a = d_i, b = d_j (i < j) then becomes (g, a b / g), with
    g = x a + y b = gcd(a, b), by one unimodular step: rows i, j times
    [[x, y], [-b/g, a/g]] and columns i, j times [[1, -y b/g], [1, x a/g]].
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D, S = _row_hermite(A)
    Tt = _eye(n)
    while any(x for i, row in enumerate(D) for j, x in enumerate(row) if i != j):
        Dt, Tt = _row_hermite(_transpose(D), Tt)
        D, S = _row_hermite(_transpose(Dt), S)
    for i, j in combinations(range(min(m, n)), 2):
        a, b = D[i][i], D[j][j]
        if not b or b % a == 0:
            continue  # zeros trail, so a is nonzero here
        g, x, y = xgcd(a, b)
        ar, bg = a // g, b // g
        S[i], S[j] = (
            [x * p + y * q for p, q in zip(S[i], S[j])],
            [-bg * p + ar * q for p, q in zip(S[i], S[j])],
        )
        Tt[i], Tt[j] = (
            [p + q for p, q in zip(Tt[i], Tt[j])],
            [-y * bg * p + x * ar * q for p, q in zip(Tt[i], Tt[j])],
        )
        D[i][i], D[j][j] = g, ar * b
    return D, S, _transpose(Tt)


def _as_int(x) -> int:
    if isinstance(x, bool):
        raise TypeError("boolean is not a lattice coordinate")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise TypeError(f"not an integer coordinate: {x!r}")


def _hnf_coordinates(columns, v):
    """Integer coordinates of the integer vector v in column-HNF columns
    (pivots on strictly increasing rows), or None."""
    coords = []
    for col in columns:
        p = next(i for i, x in enumerate(col) if x)
        c, rest = divmod(v[p], col[p])
        if rest:
            return None
        coords.append(c)
        if c:
            v = [x - c * y for x, y in zip(v, col)]
    return coords if not any(v) else None


def _rational(x):
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"not an exact rational coordinate: {x!r}")


class LatticeSubgroup:
    """Subgroup of Z^n stored as its canonical column-HNF basis."""

    __slots__ = ("ambient_dim", "columns")

    def __init__(self, ambient_dim: int, columns=()):
        cols = [tuple(_as_int(x) for x in col) for col in columns]
        for col in cols:
            if len(col) != ambient_dim:
                raise ValueError("column length does not match ambient dimension")
        cols = [c for c in cols if any(c)]
        if cols:
            cols = _span_and_kernel([[c[i] for c in cols] for i in range(ambient_dim)])[0]
        self.ambient_dim = ambient_dim
        self.columns = tuple(cols)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def standard(cls, ambient_dim):
        # the identity columns are already in HNF
        out = cls(ambient_dim)
        out.columns = tuple(map(tuple, _eye(ambient_dim)))
        return out

    @property
    def rank(self) -> int:
        return len(self.columns)

    def coordinates_of(self, vector):
        """Integer coordinates of `vector` in the basis columns, or None."""
        v = [_rational(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        if any(x.denominator != 1 for x in v):
            return None  # the lattice lies in Z^n
        return _hnf_coordinates(self.columns, [x.numerator for x in v])

    def contains(self, vector) -> bool:
        return self.coordinates_of(vector) is not None

    def contains_lattice(self, other: "LatticeSubgroup") -> bool:
        return all(self.contains(col) for col in other.columns)

    def sum(self, other: "LatticeSubgroup") -> "LatticeSubgroup":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if not (self.columns and other.columns):
            return self if self.columns else other
        return LatticeSubgroup(self.ambient_dim, self.columns + other.columns)

    def __eq__(self, other):
        return (
            isinstance(other, LatticeSubgroup)
            and self.ambient_dim == other.ambient_dim
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.columns))

    def __repr__(self):
        return f"LatticeSubgroup(dim={self.ambient_dim}, columns={list(self.columns)})"


@dataclass(frozen=True)
class AbelianInvariants:
    """Finitely generated abelian group as free rank plus invariant factors."""

    free_rank: int
    torsion: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "trivial"


def quotient_invariants(big: LatticeSubgroup, small: LatticeSubgroup) -> AbelianInvariants:
    """Invariants of big/small via the SNF of small written in big's basis.
    Equal lattices have equal canonical HNF bases (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4), so their quotient is
    trivial with no Smith form."""
    if big.ambient_dim != small.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if big.columns == small.columns:
        return AbelianInvariants(0, ())
    coord_cols = []
    for col in small.columns:
        y = big.coordinates_of(col)
        if y is None:
            raise ValueError("second lattice is not a subgroup of the first")
        coord_cols.append(y)
    r = big.rank
    if r == 0 or not coord_cols:
        return AbelianInvariants(r, ())
    Y = [[coord_cols[j][i] for j in range(len(coord_cols))] for i in range(r)]
    D, _, _ = smith_normal_form(Y)
    nonzero = [D[t][t] for t in range(min(r, len(coord_cols))) if D[t][t]]
    return AbelianInvariants(r - len(nonzero), tuple(d for d in nonzero if d > 1))


def _span_and_kernel(A):
    """One column HNF H = A U of an integer matrix A, read two ways: the
    nonzero columns of H, the canonical basis of the lattice spanned by A's
    columns, and the columns of U over H's zero columns, a basis of the
    saturated lattice {x : A x = 0} (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4)."""
    H, U = hermite_normal_form(A)
    cols = list(zip(*H))
    return [c for c in cols if any(c)], [u for c, u in zip(cols, zip(*U)) if not any(c)]


class GeneratedSubgroup:
    """Z-span of exact generator vectors in Q(sqrt(r))^n, kept as their
    `exact.IntegerRows`."""

    __slots__ = ("field", "ambient_dim", "rows")

    def __init__(self, field: QuadraticField, ambient_dim: int, generators):
        gens = [[field.coerce(x) for x in v] for v in generators]
        if any(len(v) != ambient_dim for v in gens):
            raise ValueError("generator length does not match ambient dimension")
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = integer_rows(gens)

    @classmethod
    def from_rows(cls, field: QuadraticField, ambient_dim: int, rows: IntegerRows) -> "GeneratedSubgroup":
        """The span of generators already in integer rows of ``field``."""
        out = cls(field, ambient_dim, ())
        out.rows = rows
        return out


@dataclass(frozen=True)
class ClosedSubgroupDecomp:
    """A closed subgroup of R^n as V + Z-span(lattice_basis).

    When `closed` is False the input span itself was not closed and the fields
    describe its closure: V is the dense part actually attained.  In both
    cases the lattice vectors are R-independent and meet V only at 0.  The
    bases are printed from `pivots`, V's `exact.pivot_row`s with their pivot
    columns, and `lattice`, the lattice vectors as column-HNF integer rows
    reduced mod V.  Two by-products of the decision come with it:
    `relations`, the lattice of integer relations sum k_a v_a = 0 among the
    generators (their `kernel_lattice`), and `generator_echelon`, the
    `exact.echelon` (pivot rows, pivot columns) of the n x k matrix whose
    columns are the generators, or None when no generator has a sqrt part.
    """

    field: QuadraticField
    ambient_dim: int
    closed: bool
    subspace_basis: tuple[tuple[ExactScalar, ...], ...]
    lattice_basis: tuple[tuple[ExactScalar, ...], ...]
    pivots: tuple[tuple[list[int], int], ...] = dataclasses.field(compare=False, repr=False)
    lattice: IntegerRows = dataclasses.field(compare=False, repr=False)
    relations: LatticeSubgroup = dataclasses.field(compare=False, repr=False)
    generator_echelon: tuple[list[list[int]], list[int]] | None = dataclasses.field(compare=False, repr=False)

    def contains_exact(self, vector) -> bool:
        (vec,), den, _, R = integer_rows([[self.field.coerce(x) for x in vector]])
        lattice = self.lattice
        if R != lattice.R:
            if R:
                return False  # a sqrt(r) part, and the closure is rational
            vec += [0] * len(vec)
        for row, p in self.pivots:
            vec = clear(vec, row, p, lattice.R)
        # vec is now den times the pivots' product times v mod V, and the
        # lattice rows are over lattice.den
        scale = den * prod(row[p] for row, p in self.pivots)
        target = [x * lattice.den for x in vec]
        if any(x % scale for x in target):
            return False
        return _hnf_coordinates(lattice.ints, [x // scale for x in target]) is not None


def is_closed(group: GeneratedSubgroup) -> ClosedSubgroupDecomp:
    """Decide closedness of the Z-span and return its closure decomposition.

    Vectors are integer rows [A..., B...] over Z[sqrt(R)] with one common
    denominator (see `exact.integer_rows`).  Discreteness criterion: the
    Z-span of vectors v_i in Q(sqrt r)^n is discrete iff the Q-rank of their
    {1, sqrt r}-split images in Q^{2n} equals the dimension of their R-span,
    i.e. iff their Q(sqrt r)-dependencies are spanned by rational ones.  The
    span is then the lattice of the split images, read off their HNF.  The
    dependencies are read off the reduced echelon form of the matrix with
    columns v_i: one per free column.  When one of them, sum c_i v_i = 0 with
    c_i = p_i + sqrt(r) q_i, has u = sum q_i v_i != 0 (and one has, unless
    all are rational), integer liftings of (p, q) show u and sqrt(r)·u both
    lie in the span, so the closure contains the whole line R·u.  The line is
    split off and the procedure repeats on the quotient, which is exact
    coordinate elimination.

    Each elimination of the raw generators runs once.  The first round
    eliminates them all, zero ones included (a zero column is a free column
    whose u is 0, so it changes no decision), and its echelon is returned as
    `generator_echelon`: for a skew matrix whose rows are minus the
    generators, as on the torus, it is the echelon of that matrix's rows.  One column HNF H = G U of the split generator
    matrix G gives the relations among the generators, U's columns over H's
    zero columns, and, when the span is discrete, its lattice, H's nonzero
    columns.  Otherwise the lattice is read off a second HNF, of the
    generators reduced mod V.
    """
    field = group.field
    n = group.ambient_dim
    gens, den, q, R = group.rows
    # the closure's subspace as `pivot_row`s, zero at each other's pivots
    vrows: list[tuple[list[int], int]] = []
    first = None  # the first round's echelon, of the raw generators

    def reduce_mod_v(vec):
        # scaled by every pivot, so the images share the denominator den
        # times the product of the pivots
        for row, p in vrows:
            vec = clear(vec, row, p, R)
        return vec

    images = gens
    while R and images:
        k = len(images)
        red, pivots = echelon([[v[i] for v in images] + [v[n + i] for v in images] for i in range(n)], k, R)
        if first is None:
            first = red, pivots
        # free column f gives the dependency c with c_f = 1 and, at pivot
        # row i, c = -(A_i[f] + B_i[f]*sqrt(R)) / P_i; its u (the sqrt(r)
        # parts of c times the images) is -q/L times this sum, L the lcm of
        # the pivots
        L = lcm(*(row[c] for row, c in zip(red, pivots)))
        dense = (
            [sum(row[k + f] * (L // row[c]) * images[c][j] for row, c in zip(red, pivots)) for j in range(2 * n)]
            for f in range(k)
            if any(row[k + f] for row in red)
        )
        u = next((u for u in dense if any(u)), None)
        if u is None:
            break  # every dependency is rational: the span is discrete
        p = next(i for i in range(n) if u[i] or u[n + i])
        u = pivot_row(u, p, R)
        vrows = [(primitive(clear(row, u, p, R)), rp) for row, rp in vrows]
        vrows.append((u, p))
        vrows.sort(key=lambda item: item[1])
        images = [v for v in map(reduce_mod_v, gens) if any(v)]

    for row, p in vrows:
        den *= row[p]
    lattice, relations = _span_and_kernel(list(zip(*gens)))
    if vrows:
        lattice = _span_and_kernel(list(zip(*images)))[0]
    return ClosedSubgroupDecomp(
        field=field,
        ambient_dim=n,
        closed=not vrows,
        subspace_basis=tuple(tuple(from_integer_row(row, row[p], q, R, field)) for row, p in vrows),
        lattice_basis=tuple(tuple(from_integer_row(col, den, q, R, field)) for col in lattice),
        pivots=tuple(vrows),
        lattice=IntegerRows(lattice, den, q, R),
        relations=LatticeSubgroup(len(gens), relations),
        generator_echelon=first,
    )


def kernel_lattice(columns) -> LatticeSubgroup:
    """{k in Z^d : sum_a k_a v_a = 0} for d exact vectors v_a given as
    integer rows over one denominator (`exact.IntegerRows.ints`): each
    rational and sqrt(r) component of the sum is one integer equation.  The
    lattice is saturated, and all of Z^d when every v_a is zero."""
    columns = list(columns)
    rows = [row for row in zip(*columns) if any(row)]
    if not rows:
        return LatticeSubgroup.standard(len(columns))
    return LatticeSubgroup(len(columns), _span_and_kernel(rows)[1])


def subgroup_is_hamiltonian(gamma_n: LatticeSubgroup, gamma_0: LatticeSubgroup) -> bool:
    """Whether the cover labelled by gamma_n admits a genuine momentum map,
    i.e. gamma_n is contained in gamma_0."""
    return gamma_0.contains_lattice(gamma_n)


@dataclass(frozen=True)
class CoverDescriptor:
    rank: int
    dim: int
    text: str
    basis: tuple[tuple[int, ...], ...]


def classify_cover(gamma_0: LatticeSubgroup, d: int) -> CoverDescriptor:
    """Describe R^d / gamma_0 as a cylinder T^r x R^(d-r); zero factors are
    dropped from the text ("R^2", "T^1 x R^2", "T^3")."""
    r = gamma_0.rank
    if r == 0:
        text = f"R^{d}"
    elif r == d:
        text = f"T^{d}"
    else:
        text = f"T^{r} x R^{d - r}"
    return CoverDescriptor(rank=r, dim=d, text=text, basis=gamma_0.columns)
