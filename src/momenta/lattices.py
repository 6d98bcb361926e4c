"""Integer lattices and finitely generated subgroups of R^n with exact coordinates.

Column Hermite and Smith normal forms over Z with unimodular transforms,
membership/quotient computations, and the discreteness decision with closure
decomposition for Z-spans of Q(sqrt(r))-vectors.  Everything in this module is
exact big-integer/rational arithmetic; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exact import (
    ExactScalar,
    QuadraticField,
    clear,
    echelon,
    from_integer_row,
    integer_rows,
    pivot_row,
    primitive,
    solve_linear,
)

__all__ = [
    "xgcd",
    "hermite_normal_form",
    "smith_normal_form",
    "integer_kernel",
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


def _row_hermite(A):
    """Row HNF: (H, U) with H = U A; upper echelon, positive pivots, entries
    above each pivot reduced into [0, pivot)."""
    m = len(A)
    n = len(A[0]) if m else 0
    H = [[int(x) for x in row] for row in A]
    U = _eye(m)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if H[i][c]), None)
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            if H[i][c]:
                g, x, y = xgcd(H[r][c], H[i][c])
                ar, ai = H[r][c] // g, H[i][c] // g
                H[r], H[i] = (
                    [x * p + y * q for p, q in zip(H[r], H[i])],
                    [-ai * p + ar * q for p, q in zip(H[r], H[i])],
                )
                U[r], U[i] = (
                    [x * p + y * q for p, q in zip(U[r], U[i])],
                    [-ai * p + ar * q for p, q in zip(U[r], U[i])],
                )
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        for i in range(r):
            q = H[i][c] // H[r][c]
            if q:
                H[i] = [p - q * s for p, s in zip(H[i], H[r])]
                U[i] = [p - q * s for p, s in zip(U[i], U[r])]
        r += 1
        if r == m:
            break
    return H, U


def hermite_normal_form(A):
    """Column HNF: (H, U) with H = A·U, U unimodular.

    Nonzero columns lead with positive pivots on strictly increasing rows;
    this is the canonical representation used for subgroup equality.
    """
    Hr, Ur = _row_hermite(_transpose(A))
    return _transpose(Hr), _transpose(Ur)


def smith_normal_form(A):
    """Smith normal form: (D, S, T) with D = S A T diagonal, d_i | d_{i+1}."""
    m = len(A)
    n = len(A[0]) if m else 0
    D = [[int(x) for x in row] for row in A]
    S, T = _eye(m), _eye(n)

    def row_comb(i1, i2, x, y, u, v):
        D[i1], D[i2] = (
            [x * p + y * q for p, q in zip(D[i1], D[i2])],
            [u * p + v * q for p, q in zip(D[i1], D[i2])],
        )
        S[i1], S[i2] = (
            [x * p + y * q for p, q in zip(S[i1], S[i2])],
            [u * p + v * q for p, q in zip(S[i1], S[i2])],
        )

    def col_comb(j1, j2, x, y, u, v):
        for M in (D, T):
            for row in M:
                row[j1], row[j2] = x * row[j1] + y * row[j2], u * row[j1] + v * row[j2]

    t = 0
    while t < min(m, n):
        entries = [(abs(D[i][j]), i, j) for i in range(t, m) for j in range(t, n) if D[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            D[t], D[pi] = D[pi], D[t]
            S[t], S[pi] = S[pi], S[t]
        if pj != t:
            for M in (D, T):
                for row in M:
                    row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, m):
                b = D[i][t]
                if not b:
                    continue
                a = D[t][t]
                if b % a == 0:
                    # shear: leaves the pivot row alone, cannot refill
                    q = b // a
                    D[i] = [p - q * s for p, s in zip(D[i], D[t])]
                    S[i] = [p - q * s for p, s in zip(S[i], S[t])]
                else:
                    g, x, y = xgcd(a, b)
                    row_comb(t, i, x, y, -(b // g), a // g)
            if any(D[t][j] for j in range(t + 1, n)):
                for j in range(t + 1, n):
                    b = D[t][j]
                    if not b:
                        continue
                    a = D[t][t]
                    if b % a == 0:
                        q = b // a
                        for M in (D, T):
                            for row in M:
                                row[j] -= q * row[t]
                    else:
                        g, x, y = xgcd(a, b)
                        col_comb(t, j, x, y, -(b // g), a // g)
                if any(D[i][t] for i in range(t + 1, m)):
                    # a Bezout step refilled the column, but it also strictly
                    # shrank the pivot, so this loop terminates
                    continue
            break
        d = D[t][t]
        bad = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n) if D[i][j] % d),
            None,
        )
        if bad is not None:
            # fold a non-multiple into row t; the next elimination round
            # strictly shrinks the pivot, so this terminates
            i = bad[0]
            D[t] = [p + q for p, q in zip(D[t], D[i])]
            S[t] = [p + q for p, q in zip(S[t], S[i])]
            continue
        if d < 0:
            D[t] = [-x for x in D[t]]
            S[t] = [-x for x in S[t]]
        t += 1
    return D, S, T


def _as_int(x) -> int:
    if isinstance(x, bool):
        raise TypeError("boolean is not a lattice coordinate")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise TypeError(f"not an integer coordinate: {x!r}")


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
            A = [[c[i] for c in cols] for i in range(ambient_dim)]
            H, _ = hermite_normal_form(A)
            cols = [
                tuple(H[i][j] for i in range(ambient_dim))
                for j in range(len(cols))
                if any(H[i][j] for i in range(ambient_dim))
            ]
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
        v = [x.numerator for x in v]
        coords = []
        for col in self.columns:
            p = next(i for i, x in enumerate(col) if x)
            c, rest = divmod(v[p], col[p])
            if rest:
                return None
            coords.append(c)
            if c:
                v = [x - c * y for x, y in zip(v, col)]
        return coords if not any(v) else None

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

    def order(self):
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "trivial"


def quotient_invariants(big: LatticeSubgroup, small: LatticeSubgroup) -> AbelianInvariants:
    """Invariants of big/small via the SNF of small written in big's basis."""
    if big.ambient_dim != small.ambient_dim:
        raise ValueError("ambient dimension mismatch")
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
    diag = [D[t][t] for t in range(min(r, len(coord_cols)))]
    nonzero = [d for d in diag if d]
    return AbelianInvariants(r - len(nonzero), tuple(d for d in nonzero if d > 1))


def integer_kernel(rational_rows, ncols: int) -> LatticeSubgroup:
    """{x in Z^ncols : A x = 0} for A with int or Fraction entries (saturated
    lattice)."""
    ints, _, _, _ = integer_rows([[_rational(x) for x in row] for row in rational_rows])
    int_rows = [row for row in ints if any(row)]
    if not int_rows:
        return LatticeSubgroup.standard(ncols)
    H, U = hermite_normal_form(int_rows)
    m = len(int_rows)
    cols = [
        [U[i][j] for i in range(ncols)]
        for j in range(ncols)
        if all(H[i][j] == 0 for i in range(m))
    ]
    return LatticeSubgroup(ncols, cols)


class GeneratedSubgroup:
    """Z-span of exact generator vectors in Q(sqrt(r))^n."""

    __slots__ = ("field", "ambient_dim", "generators")

    def __init__(self, field: QuadraticField, ambient_dim: int, generators):
        gens = []
        for v in generators:
            w = tuple(field.coerce(x) for x in v)
            if len(w) != ambient_dim:
                raise ValueError("generator length does not match ambient dimension")
            if any(w):
                gens.append(w)
        self.field = field
        self.ambient_dim = ambient_dim
        self.generators = tuple(gens)


@dataclass(frozen=True)
class ClosedSubgroupDecomp:
    """A closed subgroup of R^n as V + Z-span(lattice_basis).

    When `closed` is False the input span itself was not closed and the fields
    describe its closure: V is the dense part actually attained.  In both
    cases the lattice vectors are R-independent and meet V only at 0.
    """

    field: QuadraticField
    ambient_dim: int
    closed: bool
    subspace_basis: tuple[tuple[ExactScalar, ...], ...]
    lattice_basis: tuple[tuple[ExactScalar, ...], ...]

    def contains_exact(self, vector) -> bool:
        vec = [self.field.coerce(x) for x in vector]
        for row in self.subspace_basis:
            p = next(i for i, x in enumerate(row) if x)
            if vec[p]:
                f = vec[p] / row[p]
                vec = [x - f * y for x, y in zip(vec, row)]
        if not any(vec):
            return True
        if not self.lattice_basis:
            return False
        rows = [[lam[i] for lam in self.lattice_basis] for i in range(self.ambient_dim)]
        # the lattice columns are independent, so a solution is the unique one
        sol = solve_linear(rows, vec)
        return sol is not None and all(c.is_rational() and c.a.denominator == 1 for c in sol)


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
    """
    field = group.field
    n = group.ambient_dim
    gens, dens, q, R = integer_rows(group.generators)
    den = lcm(*dens)
    gens = [[x * (den // d) for x in g] for g, d in zip(gens, dens)]
    # the closure's subspace as `pivot_row`s, zero at each other's pivots
    vrows: list[tuple[list[int], int]] = []

    def reduce_mod_v(vec):
        # scaled by every pivot, so the images share the denominator den
        # times the product of the pivots
        for row, p in vrows:
            vec = clear(vec, row, p, R)
        return vec

    while True:
        images = [v for v in map(reduce_mod_v, gens) if any(v)]
        if not (R and images):
            break
        k = len(images)
        red, pivots = echelon([[v[i] for v in images] + [v[n + i] for v in images] for i in range(n)], k, R)
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

    for row, p in vrows:
        den *= row[p]
    lattice = []
    if images:
        H, _ = hermite_normal_form([list(x) for x in zip(*images)])
        lattice = [col for col in zip(*H) if any(col)]
    return ClosedSubgroupDecomp(
        field=field,
        ambient_dim=n,
        closed=not vrows,
        subspace_basis=tuple(tuple(from_integer_row(row, row[p], q, R, field)) for row, p in vrows),
        lattice_basis=tuple(tuple(from_integer_row(col, den, q, R, field)) for col in lattice),
    )


def kernel_lattice(theta_rows, d: int) -> LatticeSubgroup:
    """{k in Z^d : theta k = 0} for an exact theta, by splitting each equation
    into its rational and sqrt(r) components."""
    ints, _, _, R = integer_rows(theta_rows)
    halves = [half for row in ints for half in ((row[:d], row[d:]) if R else (row,))]
    return integer_kernel(halves, d)


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
