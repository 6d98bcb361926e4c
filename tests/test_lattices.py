from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_reference import Elt, exact, lift
from momenta import lattices
from momenta.exact import QuadraticField, integer_rows, nullspace, rank
from momenta.lattices import (
    AbelianInvariants,
    GeneratedSubgroup,
    LatticeSubgroup,
    _row_hermite,
    classify_cover,
    hermite_normal_form,
    is_closed,
    kernel_lattice,
    quotient_invariants,
    smith_normal_form,
    subgroup_is_hamiltonian,
)

F2 = QuadraticField(2)
AL = Elt(0, 1)  # sqrt(2)


def theta_kernel(theta):
    """{k : theta k = 0} through `kernel_lattice` of theta's columns."""
    return kernel_lattice(integer_rows(list(zip(*theta))).ints)


def integer_determinant(A) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(A)
    if n == 0:
        return 1
    M = [[int(x) for x in row] for row in A]
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if M[i][k]), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


small_ints = st.integers(min_value=-9, max_value=9)


def matrices(max_dim=4, entries=small_ints):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda m: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda k: st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m)
        )
    )


class TestHermite:
    def test_identity_fixed(self):
        I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        H, U = hermite_normal_form(I3)
        assert H == I3

    def test_zero_matrix(self):
        Z = [[0, 0], [0, 0]]
        H, _ = hermite_normal_form(Z)
        assert H == Z

    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_round_trip_and_unimodular(self, A):
        H, U = hermite_normal_form(A)
        assert mat_mul(A, U) == H
        assert abs(integer_determinant(U)) == 1
        # column echelon with positive pivots: pivot rows strictly increase,
        # zero columns trail
        k = len(A[0])
        pivots = []
        for j in range(k):
            col = [H[i][j] for i in range(len(A))]
            nz = [i for i, x in enumerate(col) if x]
            if not nz:
                pivots.append(None)
                continue
            assert all(p is not None for p in pivots)  # no nonzero after a zero column
            assert col[nz[0]] > 0
            if pivots and pivots[-1] is not None:
                assert nz[0] > pivots[-1]
            pivots.append(nz[0])

    @pytest.mark.parametrize(
        "A,H,U",
        [
            ([[2], [2]], [[2], [0]], [[1, 0], [-1, 1]]),
            ([[-2], [4]], [[2], [0]], [[-1, 0], [2, 1]]),
            ([[3], [6], [-9], [3]], [[3], [0], [0], [0]], [[1, 0, 0, 0], [-2, 1, 0, 0], [3, 0, 1, 0], [-1, 0, 0, 1]]),
        ],
    )
    def test_divided_column_cleared_by_shears(self, A, H, U):
        # an entry the pivot divides, an equal one included, is cleared by a
        # shear: the pivot row stays (its sign aside), as the Smith form's
        # termination argument needs
        assert _row_hermite(A) == (H, U)
        assert mat_mul(U, A) == H

    def test_membership_reduction(self):
        # columns (2,0),(1,1) generate {(a,b): a+b even}... actually Z^2: det -2?
        # det [[2,1],[0,1]] = 2, index-2 sublattice {(a,b): a odd => ...}
        L = LatticeSubgroup(2, [(2, 0), (1, 1)])
        assert L.contains((3, 1))       # (1,1) + (2,0)
        assert not L.contains((1, 0))   # odd first coordinate with even second
        assert L.contains((0, 2))       # 2*(1,1) - (2,0)

    def test_coordinates_of_fraction_vectors(self):
        L = LatticeSubgroup(2, [(2, 0), (1, 1)])
        coords = L.coordinates_of((Fraction(3), Fraction(1)))
        assert coords == L.coordinates_of((3, 1)) and all(type(c) is int for c in coords)
        assert [sum(c * col[i] for c, col in zip(coords, L.columns)) for i in range(2)] == [3, 1]
        assert L.coordinates_of((Fraction(-4), Fraction(-2))) is not None
        assert L.coordinates_of((Fraction(3, 2), Fraction(1, 2))) is None  # not integral
        assert L.coordinates_of((Fraction(1), Fraction(0))) is None  # integral, outside the lattice
        assert LatticeSubgroup(3, [(1, 0, 0)]).coordinates_of((Fraction(2), 0, Fraction(1))) is None
        with pytest.raises(TypeError):
            L.coordinates_of((0.5, 0))


class TestCanonicalLattices:
    @pytest.mark.parametrize("d", range(6))
    def test_standard_is_the_identity_lattice(self, d):
        eye = [[int(i == j) for j in range(d)] for i in range(d)]
        assert LatticeSubgroup.standard(d) == LatticeSubgroup(d, eye)
        assert LatticeSubgroup.standard(d).columns == LatticeSubgroup(d, eye).columns

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_sum_with_zero_is_the_hnf_sum(self, A):
        d = len(A)
        L = LatticeSubgroup(d, zip(*A))
        zero = LatticeSubgroup.zero(d)
        via_hnf = LatticeSubgroup(d, L.columns + zero.columns)
        assert L.sum(zero) == via_hnf == zero.sum(L) == L
        assert zero.sum(zero) == LatticeSubgroup(d, ())


class TestSmith:
    def test_textbook_2_3(self):
        # 2Z + 3Z = Z and Z/2 x Z/3 = Z/6, so invariant factors are 1, 6
        D, S, T = smith_normal_form([[2, 0], [0, 3]])
        assert [D[0][0], D[1][1]] == [1, 6]

    def test_zero(self):
        D, S, T = smith_normal_form([[0, 0], [0, 0]])
        assert D == [[0, 0], [0, 0]]

    @pytest.mark.parametrize(
        "A,diag",
        [
            ([[2, 2], [2, 2]], [2, 0]),
            ([[3, 3, 3], [3, 3, 3]], [3, 0]),
            ([[0, 2], [2, 0]], [2, 2]),
            ([[4, 6], [6, 9]], [1, 0]),
            ([[u * v for v in (3, 0, 6, -9, 3)] for u in (2, 4, -6, 0)], [6, 0, 0, 0]),  # rank 1
        ],
    )
    def test_repeated_entries(self, A, diag):
        D, S, T = smith_normal_form(A)
        assert [D[t][t] for t in range(len(diag))] == diag
        assert mat_mul(mat_mul(S, A), T) == D
        assert abs(integer_determinant(S)) == abs(integer_determinant(T)) == 1

    @settings(max_examples=80, deadline=None)
    @given(matrices(6, st.integers(min_value=-50, max_value=50)))
    def test_transforms_and_divisibility(self, A):
        D, S, T = smith_normal_form(A)
        assert mat_mul(mat_mul(S, A), T) == D
        assert abs(integer_determinant(S)) == 1
        assert abs(integer_determinant(T)) == 1
        diag = [D[t][t] for t in range(min(len(D), len(D[0])))]
        for i in range(len(D)):
            for j in range(len(D[0])):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


class TestQuotients:
    def test_equal_lattices_trivial(self):
        L = LatticeSubgroup(2, [(1, 0), (0, 1)])
        inv = quotient_invariants(L, L)
        assert inv.is_trivial
        assert inv.describe() == "trivial"

    def test_equal_lattices_need_no_smith_form(self, monkeypatch):
        # one basis and a unimodular change of it (det U = 1): the same
        # lattice, so the same canonical HNF basis and the early exit
        B = [(2, 1, 0), (0, 3, 1), (1, 0, 5)]
        U = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
        changed = [tuple(sum(U[j][k] * B[j][i] for j in range(3)) for i in range(3)) for k in range(3)]
        first, second = LatticeSubgroup(3, B), LatticeSubgroup(3, changed + [B[0]])
        assert set(changed) != set(B) and first == second

        calls = []
        monkeypatch.setattr(lattices, "smith_normal_form", lambda A: calls.append(A) or smith_normal_form(A))
        assert quotient_invariants(first, second) == AbelianInvariants(0, ())
        assert calls == []
        # the synthetic Z/2 still reads its torsion off a Smith form
        inv = quotient_invariants(LatticeSubgroup.standard(2), LatticeSubgroup(2, [(2, 0), (0, 1)]))
        assert inv.torsion == (2,) and len(calls) == 1

    def test_index_six(self):
        big = LatticeSubgroup.standard(2)
        small = LatticeSubgroup(2, [(2, 0), (0, 3)])
        inv = quotient_invariants(big, small)
        assert inv.free_rank == 0
        assert inv.torsion == (6,)
        # order equals index |det| of small written in big's basis
        assert math.prod(inv.torsion) == abs(integer_determinant([[2, 0], [0, 3]]))

    def test_free_quotient(self):
        big = LatticeSubgroup.standard(2)
        inv = quotient_invariants(big, LatticeSubgroup.zero(2))
        assert inv.free_rank == 2 and inv.torsion == ()
        assert inv.describe() == "Z^2"

    def test_synthetic_z2(self):
        # Gamma_mu = Z^2, Gamma' = 2Z x Z, Gamma_N = 0: quotient Z/2 via SNF
        big = LatticeSubgroup.standard(2)
        small = LatticeSubgroup(2, [(2, 0), (0, 1)])
        inv = quotient_invariants(big, small.sum(LatticeSubgroup.zero(2)))
        assert inv.free_rank == 0 and inv.torsion == (2,)
        assert inv.describe() == "Z/2"

    def test_not_a_subgroup_rejected(self):
        big = LatticeSubgroup(2, [(2, 0), (0, 2)])
        small = LatticeSubgroup(2, [(1, 0)])
        with pytest.raises(ValueError):
            quotient_invariants(big, small)

    @settings(max_examples=50, deadline=None)
    @given(matrices(3))
    def test_order_matches_determinant(self, A):
        n = len(A)
        if len(A[0]) != n:  # index formula needs a square generator matrix
            return
        small = LatticeSubgroup(n, list(zip(*A)))
        if small.rank < n:
            return
        big = LatticeSubgroup.standard(n)
        inv = quotient_invariants(big, small)
        assert inv.free_rank == 0
        assert math.prod(inv.torsion) == abs(integer_determinant(A))


class TestKernelLattice:
    def test_theta_zero(self):
        field = F2
        theta = [[field.zero] * 3 for _ in range(3)]
        assert theta_kernel(theta) == LatticeSubgroup.standard(3)

    def test_theta_invertible(self):
        field = F2
        theta = [tuple(field.coerce(e) for e in r) for r in [["0", "1"], ["-1", "0"]]]
        assert theta_kernel(theta) == LatticeSubgroup.zero(2)

    def test_irrational_kernel_has_no_rational_points(self):
        # skew theta with 1-dimensional real kernel spanned by (0,-al,1); the
        # split rational system forces x2 = x3 = 0, then x1 = 0
        field = F2
        theta = [tuple(field.coerce(e) for e in r) for r in [["0", "1", "1*al"], ["-1", "0", "0"], ["-1*al", "0", "0"]]]
        assert theta_kernel(theta) == LatticeSubgroup.zero(3)

    def test_rank_two_rational(self):
        field = F2
        theta = [tuple(field.coerce(e) for e in r) for r in [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]]
        L = theta_kernel(theta)
        assert L == LatticeSubgroup(3, [(0, 0, 1)])

    def test_exhaustive_small_box(self):
        # every integer vector of the [-5,5]^3 box in ker theta lies in the
        # Z-span of the output, and each output column is in the kernel
        field = F2
        theta = [tuple(field.coerce(e) for e in r) for r in [["0", "2", "0"], ["-2", "0", "0"], ["0", "0", "0"]]]
        L = theta_kernel(theta)
        theta = lift(theta)
        for col in L.columns:
            for row in theta:
                assert sum(e * int(c) for e, c in zip(row, col)) == 0
        for k in itertools.product(range(-5, 6), repeat=3):
            in_kernel = all(sum(e * c for e, c in zip(row, k)) == 0 for row in theta)
            if in_kernel:
                assert L.contains(k)


class TestSubgroupAndCover:
    def test_trivial_gamma_n_always_hamiltonian(self):
        assert subgroup_is_hamiltonian(LatticeSubgroup.zero(3), LatticeSubgroup.zero(3))
        assert subgroup_is_hamiltonian(LatticeSubgroup.zero(3), LatticeSubgroup.standard(3))

    def test_gamma_n_equal_gamma0(self):
        g0 = LatticeSubgroup(2, [(1, 2)])
        assert subgroup_is_hamiltonian(g0, g0)

    def test_nonzero_not_in_zero(self):
        gn = LatticeSubgroup(2, [(1, 0)])
        assert not subgroup_is_hamiltonian(gn, LatticeSubgroup.zero(2))

    def test_cover_strings(self):
        assert classify_cover(LatticeSubgroup.standard(3), 3).text == "T^3"
        assert classify_cover(LatticeSubgroup.zero(2), 2).text == "R^2"
        assert classify_cover(LatticeSubgroup(2, [(1, 0)]), 2).text == "T^1 x R^1"
        assert classify_cover(LatticeSubgroup(3, [(0, 0, 1)]), 3).text == "T^1 x R^2"


def brute_force_min_norm(vectors, bound):
    """Smallest norm over Z-combinations with |coeff| <= bound that are not
    the zero lattice point (checked exactly, so relations like 2/2 - 3/3 = 0
    are excluded rather than counted as tiny norms)."""
    best = math.inf
    ncomp = len(vectors[0])
    ranges = [range(-bound, bound + 1)] * len(vectors)
    for coeffs in itertools.product(*ranges):
        comb = [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(ncomp)]
        if all(x == 0 for x in comb):
            continue
        best = min(best, math.sqrt(sum(float(x) ** 2 for x in comb)))
    return best


def reference_is_closed(field, n, gens):
    """The closure decomposition of the span of ``gens`` in R^n computed in
    Fraction arithmetic (`Elt`), with a separate split-rank test: the oracle
    for the integer-row `is_closed`."""
    gens = lift(gens, field.r)
    vrows = []

    def reduce_mod_v(vec):
        vec = list(vec)
        for row, p in vrows:
            if vec[p]:
                f = vec[p]
                vec = [x - f * y for x, y in zip(vec, row)]
        return vec

    while True:
        images = [v for v in map(reduce_mod_v, gens) if any(v)]
        if not images:
            lattice = ()
            break
        cols_matrix = exact([[v[i] for v in images] for i in range(n)], field)
        split_rows = [[x.a for x in v] + [x.b for x in v] for v in images]
        if rank(split_rows) == rank(cols_matrix):
            den = 1
            for v in images:
                for x in v:
                    den = math.lcm(den, x.a.denominator, x.b.denominator)
            M = [[int(v[i].a * den) for v in images] for i in range(n)]
            M += [[int(v[i].b * den) for v in images] for i in range(n)]
            H, _ = hermite_normal_form(M)
            lattice = tuple(
                tuple(field.scalar(Fraction(c[i], den), Fraction(c[n + i], den)) for i in range(n))
                for c in zip(*H)
                if any(c)
            )
            break
        u = None
        for c in nullspace(cols_matrix):
            cand = [Elt(0, 0, field.r)] * n
            for ci, v in zip(c, images):
                if ci.b:
                    cand = [x + ci.b * y for x, y in zip(cand, v)]
            if any(cand):
                u = cand
                break
        p = next(i for i, x in enumerate(u) if x)
        urow = [x / u[p] for x in u]
        vrows = [([x - row[p] * y for x, y in zip(row, urow)] if row[p] else row, rp) for row, rp in vrows]
        vrows.append((urow, p))
        vrows.sort(key=lambda item: item[1])
    subspace = tuple(tuple(exact(row, field)) for row, _ in vrows)
    return not subspace, subspace, lattice


CLOSURE_FIELDS = (F2, QuadraticField("8/3"))
closure_entries = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-6, max_value=6, max_denominator=4))


@st.composite
def generator_sets(draw):
    """(field, n, generators in R^n) over Q, Q(sqrt2) or Q(sqrt(8/3)), with
    rational and field dependencies (the latter make the span dense) and
    zero vectors."""
    field = draw(st.sampled_from(CLOSURE_FIELDS))
    rational = draw(st.booleans())
    n, k = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    entry = st.builds(lambda a, b: Elt(a, b, field.r), closure_entries, st.just(0) if rational else closure_entries)
    gens = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    if gens and draw(st.booleans()):
        # a rational combination: dependent over Q, the span stays discrete
        cs = draw(st.lists(closure_entries, min_size=len(gens), max_size=len(gens)))
        gens.append([sum((c * g[i] for c, g in zip(cs, gens)), Elt(0, 0, field.r)) for i in range(n)])
    if gens and draw(st.booleans()):
        # (a + sqrt(r)) times a generator: dependent over the field only
        f = Elt(draw(closure_entries), 1, field.r)
        gens.insert(draw(st.integers(0, len(gens))), [f * x for x in gens[0]])
    if len(gens) > 1 and draw(st.booleans()):
        # a field combination of two generators: its dependency has sqrt
        # parts on two pivot rows
        f0, f1 = (Elt(draw(closure_entries), draw(closure_entries), field.r) for _ in range(2))
        gens.append([f0 * x + f1 * y for x, y in zip(gens[0], gens[1])])
    if draw(st.booleans()):
        gens.append([0] * n)
    return field, n, exact(gens, field)


class TestClosureOracle:
    @settings(max_examples=150, deadline=None)
    @given(generator_sets())
    def test_matches_exact_scalar_closure(self, drawn):
        field, n, gens = drawn
        d = is_closed(GeneratedSubgroup(field, n, gens))
        closed, subspace, lattice = reference_is_closed(field, n, gens)
        assert (d.closed, d.subspace_basis, d.lattice_basis) == (closed, subspace, lattice)
        for v in d.subspace_basis + d.lattice_basis:
            for x in v:
                assert x.field == field and type(x.a) is Fraction and type(x.b) is Fraction

    def test_dense_line_from_two_pivot_rows(self):
        # (1+al)(1,1,0) is a field combination of (2,0,0) and (0,3,0) whose
        # dependency weighs the two by 1/2 and 1/3: the closure is the line
        # R(1,1,0) plus Z(0,1,0) (the images (0,-2,0) and (0,3,0)), not the
        # whole plane
        gens = exact([[2, 0, 0], [0, 3, 0], [1 + AL, 1 + AL, 0]], F2)
        d = is_closed(GeneratedSubgroup(F2, 3, gens))
        assert (d.closed, d.subspace_basis, d.lattice_basis) == reference_is_closed(F2, 3, gens)
        assert [[x.format() for x in v] for v in d.subspace_basis] == [["1", "1", "0"]]
        assert [[x.format() for x in v] for v in d.lattice_basis] == [["0", "1", "0"]]

    def test_dense_after_rational_dependency(self):
        # (1, 0), (2, 0) and (sqrt2, 1): a rational and an irrational relation
        gens = exact([[1, 0], [2, 0], [AL, 1], [0, 1]], F2)
        d = is_closed(GeneratedSubgroup(F2, 2, gens))
        assert (d.closed, d.subspace_basis, d.lattice_basis) == reference_is_closed(F2, 2, gens)
        assert not d.closed


class TestClosure:
    def test_standard_lattice_closed(self):
        g = GeneratedSubgroup(F2, 2, [[1, 0], [0, 1]])
        d = is_closed(g)
        assert d.closed
        assert d.subspace_basis == ()
        assert [[x.format() for x in v] for v in d.lattice_basis] == [["1", "0"], ["0", "1"]]

    def test_rationals_merge_to_gcd(self):
        # Z/2 + Z/3 = Z/6 inside R^1
        g = GeneratedSubgroup(F2, 1, [[Fraction(1, 2)], [Fraction(1, 3)]])
        d = is_closed(g)
        assert d.closed
        assert [[x.format() for x in v] for v in d.lattice_basis] == [["1/6"]]

    def test_one_and_alpha_dense(self):
        # Q-rank 2 > R-span dimension 1
        g = GeneratedSubgroup(F2, 1, [[1], [F2.scalar(0, 1)]])
        d = is_closed(g)
        assert not d.closed
        assert len(d.subspace_basis) == 1
        assert d.lattice_basis == ()

    def test_mixed_closure_line_plus_lattice(self):
        # {(1,0),(0,1),(al,1)}: closure is R e1 + Z e2 -- no generator's real
        # span is contained in the closure, the dense direction is e1
        al = F2.scalar(0, 1)
        g = GeneratedSubgroup(F2, 2, [[1, 0], [0, 1], [al, 1]])
        d = is_closed(g)
        assert not d.closed
        assert [[x.format() for x in v] for v in d.subspace_basis] == [["1", "0"]]
        assert [[x.format() for x in v] for v in d.lattice_basis] == [["0", "1"]]

    def test_dense_plane_plus_lattice_line(self):
        # columns of the acceptance dense-theta instance:
        # c1=(0,-1,-al), c2=(1,0,-1), c3=(al,1,0); closure R(1,0,-1) + Z(0,1,al)
        al = F2.scalar(0, 1)
        g = GeneratedSubgroup(F2, 3, [[0, -1, -al], [1, 0, -1], [al, 1, 0]])
        d = is_closed(g)
        assert not d.closed
        assert [[x.format() for x in v] for v in d.subspace_basis] == [["1", "0", "-1"]]
        assert [[x.format() for x in v] for v in d.lattice_basis] == [["0", "1", "1*al"]]

    def test_brute_force_oracle_discrete(self):
        # discrete instances: no nonzero combination with |coeff| <= 50 gets
        # norm below 1/50 (oracle run as a test, not shipped logic)
        vs = [[Fraction(1, 2)], [Fraction(1, 3)]]
        assert is_closed(GeneratedSubgroup(F2, 1, vs)).closed
        assert brute_force_min_norm(vs, 50) > Fraction(1, 50)

    def test_brute_force_oracle_dense(self):
        vs = [[F2.one], [F2.scalar(0, 1)]]
        assert not is_closed(GeneratedSubgroup(F2, 1, vs)).closed
        assert brute_force_min_norm(lift(vs), 50) < Fraction(1, 50)

    def test_exact_membership(self):
        al = F2.scalar(0, 1)
        g = GeneratedSubgroup(F2, 2, [[1, 0], [0, 1], [al, 1]])
        d = is_closed(g)
        assert d.contains_exact([al, 3])          # (al, 0) in R e1, (0,3) in Z e2
        assert d.contains_exact([Fraction(1, 7), 0])
        assert not d.contains_exact([0, Fraction(1, 2)])
        assert not d.contains_exact([0, al])


class TestIntegerKernel:
    def test_kernel_of_rational_rows(self):
        # x1 + x2/2 = 0 over Z: (1, -2)
        L = kernel_lattice(zip(*integer_rows([[Fraction(1), Fraction(1, 2)]]).ints))
        assert L == LatticeSubgroup(2, [(1, -2)])

    def test_kernel_saturated(self):
        L = kernel_lattice([[2], [-2]])
        assert L.contains((1, 1))
