"""Tests for the exact integer/rational linear algebra kernel."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import determinant, invariant_factors, smith_index
from quasilines import lattice
from quasilines.fans import Fan
from quasilines.lattice import (
    FourierMotzkinBudgetError,
    InfiniteIndexError,
    NoSolutionError,
    ZeroVectorError,
    fm_feasible,
    fm_projections,
    mat_vec,
    primitive,
    rational_inverse,
    smith_normal_form,
    solve_rational_linear,
)


def identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def exact_inverse(a):
    adj, d = rational_inverse(a)
    return tuple(tuple(Fraction(x, d) for x in row) for row in adj)


def frac_mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def multiplicity(rows):
    """The multiplicity d of the cone kernel of ``rows``, and the Smith
    index of the reference, which must agree."""
    cone = tuple(range(len(rows)))
    d = Fan(len(rows[0]), tuple(rows), (cone,)).kernel(cone)[1]
    assert d == smith_index(rows)
    return d


def random_matrix(rng, rows, cols, bound=9):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows))


class TestMatVec:
    def test_product(self):
        assert mat_vec(((1, 2, 3), (-4, 0, 5)), (1, -1, 2)) == (5, 6)
        assert mat_vec(((1, 2),), (Fraction(1, 2), 3)) == (Fraction(13, 2),)

    @pytest.mark.parametrize("a,v,message", [
        (((1, 2), (3,)), (1, 1), "ragged matrix"),
        (((1,), (2, 3)), (1,), "ragged matrix"),
        (((1, 2), (3, 4)), (1, 2, 3), "cannot apply 2x2 matrix to vector of length 3"),
        (((1, 2, 3),), (1,), "cannot apply 1x3 matrix to vector of length 1"),
        ((), (), "matrix must have at least one row and one column"),
        (((),), (), "matrix must have at least one row and one column"),
    ])
    def test_shape_errors(self, a, v, message):
        # The row product would silently truncate to the shorter of a row
        # and the vector; the checks in front of it must not.
        with pytest.raises(ValueError) as raised:
            mat_vec(a, v)
        assert str(raised.value) == message


class TestSmithNormalForm:
    def test_identity(self):
        eye = identity_matrix(3)
        u, s, v = smith_normal_form(eye)
        assert u == eye and s == eye and v == eye

    def test_diag_2_3(self):
        a = ((2, 0), (0, 3))
        u, s, v = smith_normal_form(a)
        assert s == ((1, 0), (0, 6))
        assert mat_mul(mat_mul(u, a), v) == s

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_quotient_sublattice_basis(self, n):
        basis = tuple(
            tuple((n + 1) if i == j == 0 else int(i == j) for j in range(n))
            for i in range(n)
        )
        factors = invariant_factors(basis)
        assert factors == (1,) * (n - 1) + (n + 1,)
        product = 1
        for f in factors:
            product *= f
        assert product == n + 1

    def test_random_reconstruction(self):
        rng = random.Random(20240)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            a = random_matrix(rng, rows, cols)
            u, s, v = smith_normal_form(a)
            assert mat_mul(mat_mul(u, a), v) == s
            diag = [s[i][i] for i in range(min(rows, cols))]
            assert all(s[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
            assert all(d >= 0 for d in diag)
            for x, y in zip(diag, diag[1:]):
                if y != 0:
                    assert x != 0 and y % x == 0
            assert abs(determinant(u)) == 1
            assert abs(determinant(v)) == 1
            u_inv = exact_inverse(u)
            v_inv = exact_inverse(v)
            reconstructed = frac_mat_mul(frac_mat_mul(u_inv, s), v_inv)
            assert reconstructed == tuple(tuple(Fraction(x) for x in row) for row in a)


def seeded_smith_inputs():
    """1000 seeded integer matrices of shapes 1..6 x 1..6, a quarter to all
    of their entries nonzero."""
    rng = random.Random(2027)
    for _ in range(1000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.25, 0.5, 0.75, 1.0))
        yield tuple(tuple(rng.randint(-9, 9) if rng.random() < density else 0
                          for _ in range(cols)) for _ in range(rows))


def test_smith_transforms_are_pinned():
    # Not only S but the transforms U and V: the same row and column
    # operations must be made in the same order on every matrix.
    digest = hashlib.sha256()
    for a in seeded_smith_inputs():
        digest.update(repr(smith_normal_form(a)).encode())
    assert digest.hexdigest() == (
        "4dfeacd40a895ac8f7af9c2ee8c5be5788d6b209cb284c1f5154ffe460903b97"
    )


class TestSublatticeIndex:
    # The index of the lattice spanned by the rows is the multiplicity of
    # the cone they generate.
    def test_identity(self):
        assert multiplicity(identity_matrix(4)) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_quotient_lattice(self, n):
        basis = tuple(
            tuple((n + 1) if i == j == 0 else int(i == j) for j in range(n))
            for i in range(n)
        )
        assert multiplicity(basis) == n + 1

    def test_degenerate(self):
        for rows in (((2, 0), (0, 0)), ((1, 2, 0), (2, 4, 0)), ((1, 0), (0, 1), (1, 1))):
            with pytest.raises(InfiniteIndexError):
                smith_index(rows)
            cone = tuple(range(len(rows)))
            with pytest.raises(InfiniteIndexError):
                Fan(len(rows[0]), rows, (cone,)).kernel(cone)

    def test_matches_invariant_factor_product(self):
        rng = random.Random(7)
        found = 0
        while found < 50:
            a = random_matrix(rng, 3, 3, bound=5)
            if determinant(a) == 0:
                continue
            found += 1
            product = 1
            for f in invariant_factors(a):
                product *= f
            assert multiplicity(a) == product == abs(determinant(a))


class TestPrimitive:
    def test_scales_down(self):
        assert primitive((2, 4, 6)) == (1, 2, 3)

    def test_already_primitive(self):
        assert primitive((3, -2)) == (3, -2)

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            primitive((0, 0))


class TestSolveRationalLinear:
    def test_identity(self):
        sol = solve_rational_linear(identity_matrix(2), (1, 2))
        assert sol.x == (Fraction(1), Fraction(2))
        assert sol.unique

    def test_cartier_witness_system(self):
        sol = solve_rational_linear(((3, -2), (0, 1)), (0, -1))
        assert sol.x == (Fraction(-2, 3), Fraction(-1))
        assert sol.unique

    def test_inconsistent(self):
        with pytest.raises(NoSolutionError):
            solve_rational_linear(((1, 0), (1, 0)), (0, 1))

    def test_substitution_property(self):
        rng = random.Random(99)
        for _ in range(100):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = random_matrix(rng, rows, cols, bound=6)
            x = tuple(rng.randint(-5, 5) for _ in range(cols))
            b = mat_vec(a, x)
            sol = solve_rational_linear(a, b)
            residual = tuple(
                sum(Fraction(a[i][j]) * sol.x[j] for j in range(cols)) for i in range(rows)
            )
            assert residual == tuple(Fraction(v) for v in b)

    def test_underdetermined_flag(self):
        sol = solve_rational_linear(((1, 1),), (2,))
        assert not sol.unique
        assert sol.x[0] + sol.x[1] == 2


COEFF = st.integers(-4, 4)


@st.composite
def planted_point_systems(draw):
    """Rows c . u >= rhs that all hold at a drawn rational point p / q."""
    dim = draw(st.integers(1, 4))
    q = draw(st.integers(1, 5))
    p = draw(st.lists(st.integers(-6, 6), min_size=dim, max_size=dim))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        c = draw(st.lists(COEFF, min_size=dim, max_size=dim))
        slack = draw(st.integers(0, 3))
        rows.append(tuple(c) + (sum(a * x for a, x in zip(c, p)) // q - slack,))
    return dim, rows, (p, q)


@st.composite
def planted_farkas_systems(draw):
    """Rows whose combination with drawn non-negative weights reads
    0 >= positive, so no real point satisfies them all."""
    dim = draw(st.integers(1, 4))
    rows = [
        tuple(draw(st.lists(COEFF, min_size=dim + 1, max_size=dim + 1)))
        for _ in range(draw(st.integers(1, 5)))
    ]
    weights = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    # The closing row has weight 1 and cancels the weighted coefficients.
    coeffs = [-sum(w * row[j] for w, row in zip(weights, rows)) for j in range(dim)]
    rhs = -sum(w * row[-1] for w, row in zip(weights, rows)) + draw(st.integers(1, 5))
    rows.append(tuple(coeffs) + (rhs,))
    extra = [
        tuple(draw(st.lists(COEFF, min_size=dim + 1, max_size=dim + 1)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return dim, draw(st.permutations(rows + extra))


class TestFourierMotzkinFeasibility:
    @settings(max_examples=300, deadline=None)
    @given(planted_point_systems())
    def test_planted_point_is_feasible(self, case):
        dim, rows, (p, q) = case
        for row in rows:
            assert sum(Fraction(a * x, q) for a, x in zip(row, p)) >= row[-1]
        assert fm_feasible(rows, dim)

    @settings(max_examples=300, deadline=None)
    @given(planted_farkas_systems())
    def test_planted_farkas_combination_is_infeasible(self, case):
        dim, rows = case
        assert not fm_feasible(rows, dim)


class TestFourierMotzkinBudget:
    def test_stops_at_the_first_row_over_budget(self, monkeypatch):
        # Eliminating u1 combines each of three positive rows with each of
        # three negative ones: nine new rows, but the fifth is over budget.
        monkeypatch.setattr(lattice, "FM_ROW_BUDGET", 4)
        rows = [(a, 1, 0) for a in (1, 2, 3)] + [(b, -1, -b) for b in (1, 2, 3)]
        with pytest.raises(FourierMotzkinBudgetError, match="reached 5 rows"):
            fm_projections(rows, 2)

    def test_counts_the_rows_carried_over(self, monkeypatch):
        # No row has u1, so no row is new: the three kept rows are over.
        monkeypatch.setattr(lattice, "FM_ROW_BUDGET", 2)
        rows = [(1, 0, 0), (1, 0, -1), (1, 0, -2)]
        with pytest.raises(FourierMotzkinBudgetError, match="reached 3 rows"):
            fm_projections(rows, 2)
