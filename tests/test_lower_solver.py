import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bilevelpen as bp
from bilevelpen import simplex
from bilevelpen.lower_solver import (RANK_TOL, _feasible_points, _fw_run, _pivot_columns,
                                     independent_rows, vertex_lmo)
from bilevelpen.model import DimensionGuardError, FieldSection, Polytope, field_from_expression


def quadratic_section(Q, c, convex=True):
    """Section x -> 0.5 x'Qx + c'x with exact gradients."""
    Q = np.asarray(Q, float)
    c = np.asarray(c, float)
    return FieldSection(
        value=lambda x: float(0.5 * x @ Q @ x + c @ x),
        grad=lambda x: Q @ x + c,
        value_batch=lambda X: 0.5 * np.einsum("ij,jk,ik->i", X, Q, X) + X @ c,
        structure="quadratic_in_x",
        convex_in_x=convex,
    )


def random_convex_quadratic(rng, n):
    M = rng.standard_normal((n, n))
    return M.T @ M + 1e-3 * np.eye(n), rng.standard_normal(n)


def fs_grid(step=1e-3):
    t = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    return np.stack([t, 1.0 - t], axis=1)


def qb_grid(step=1e-3):
    t = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    Z1, Z2 = np.meshgrid(t, t)
    z1, z2 = Z1.ravel(), Z2.ravel()
    return np.stack([z1, z2, 1.0 - z1, 1.0 - z2], axis=1)


class TestLpMinimize:
    def test_fs_minimize_first_coordinate(self, fs):
        sol = bp.lp_minimize([1.0, 0.0], fs.follower_set)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [0.0, 1.0])
        assert sol.value == 0.0

    def test_fs_zero_objective(self, fs):
        sol = bp.lp_minimize([0.0, 0.0], fs.follower_set)
        assert sol.status == "optimal"
        assert sol.value == 0.0
        assert fs.follower_set.contains(sol.x)

    def test_qb_maximize_band(self, qb):
        sol = bp.lp_minimize([-1.0, -1.0, 0.0, 0.0], qb.follower_set)
        assert sol.value == -2.0
        np.testing.assert_allclose(sol.x, [1.0, 1.0, 0.0, 0.0])

    def test_vertex_invariants(self, qb):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = rng.standard_normal(4)
            sol = bp.lp_minimize(c, qb.follower_set)
            assert sol.status == "optimal"
            assert np.max(np.abs(qb.follower_set.A @ sol.x - qb.follower_set.b)) <= 1e-9
            assert sol.x.min() >= -1e-9
            assert len(sol.basis) == 2

    def test_row_permutation_invariance(self, qb):
        rng = np.random.default_rng(7)
        A, b = qb.follower_set.A, qb.follower_set.b
        flipped = Polytope(A=A[::-1].copy(), b=b[::-1].copy())
        for _ in range(20):
            c = rng.standard_normal(4)
            s1 = bp.lp_minimize(c, qb.follower_set)
            s2 = bp.lp_minimize(c, flipped)
            assert s1.value == s2.value
            np.testing.assert_array_equal(s1.x, s2.x)


def test_feasible_point_of_an_empty_set():
    assert simplex.feasible_point([[1.0, 1.0]], [-1.0]) == (None, "infeasible")


class TestEnumerateVertices:
    def test_fs_segment(self, fs):
        V = bp.enumerate_vertices(fs.follower_set)
        np.testing.assert_allclose(V, [[0.0, 1.0], [1.0, 0.0]])
        assert fs.follower_set.cached_vertices is not None

    def test_qb_box_corners(self, qb):
        V = bp.enumerate_vertices(qb.follower_set)
        assert len(V) == 4
        corners = sorted(map(tuple, V[:, :2]))
        assert corners == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_dimension_guard(self):
        C = Polytope(A=np.ones((1, 13)), b=[1.0])
        with pytest.raises(DimensionGuardError):
            bp.enumerate_vertices(C)

    def test_redundant_rows_handled(self):
        # duplicated constraint row; same segment as FS
        C = Polytope(A=[[1.0, 1.0], [2.0, 2.0]], b=[1.0, 2.0])
        V = bp.enumerate_vertices(C)
        np.testing.assert_allclose(V, [[0.0, 1.0], [1.0, 0.0]])


def block_rows(sizes):
    """The rows "sum of each block of x": block k holds sizes[k] coordinates."""
    edges = np.cumsum([0, *sizes])
    A = np.zeros((len(sizes), edges[-1]))
    for k in range(len(sizes)):
        A[k, edges[k]:edges[k + 1]] = 1.0
    return A


@st.composite
def block_simplices(draw):
    """{x >= 0: sum of each block of x = b_k}: products of scaled simplices."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    b = [draw(st.floats(0.5, 2.0)) for _ in sizes]
    return Polytope(A=block_rows(sizes), b=b)


class TestFeasiblePoints:
    @settings(max_examples=60, deadline=None)
    @given(C=block_simplices(), n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_vertices_then_seeded_mixtures(self, C, n, seed):
        V = bp.enumerate_vertices(C)
        P = _feasible_points(V, n, seed)
        assert P.shape == (n, C.dim)
        assert all(C.contains(x) for x in P)
        k = min(n, len(V))
        np.testing.assert_array_equal(P[:k], V[:k])
        np.testing.assert_array_equal(P, _feasible_points(V, n, seed))
        np.testing.assert_array_equal(P, _feasible_points(V, n, np.random.default_rng(seed)))


def scipy_pivot_columns(M, k):
    from scipy.linalg import qr
    return sorted(qr(M, pivoting=True)[2][:k])


@st.composite
def argmin_face_matrices(draw):
    """[A; Q; c'] of a convex quadratic follower on a block simplex of up to
    12 variables: half the A with a dense basis (no unit column), Q of rank
    1 to 3. The entries are seeded normals, so no two norms tie exactly."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)
                 .filter(lambda sizes: sum(sizes) <= 12))
    rank_q = draw(st.integers(1, 3))
    dense = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = block_rows(sizes)
    if dense:
        A[A == 0.0] = rng.uniform(0.1, 2.0, size=int((A == 0.0).sum()))
    G = rng.standard_normal((rank_q, A.shape[1]))
    return np.vstack([A, G.T @ G, rng.standard_normal(A.shape[1])])


def _pinned_faces():
    """(A, [A; Q; c']) of QB, FS, QB_band, the dense-basis problem and the
    benchmark's custom-select families (h = (g'x - t)^2 on block simplices,
    g drawn as the families draw it)."""
    qb_rows = bp.registry_get("QB").follower_set.A
    faces = [("QB", qb_rows, "(x[0] + x[1] - 1)^2"), ("FS", np.array([[1.0, 1.0]]), "0"),
             ("QB_band", qb_rows, "(x[0] + x[1] - 0.7)^2"),
             ("dense_basis", np.array([[2.0, 1.0, 1.0, 1.0], [1.0, 3.0, 1.0, 2.0]]),
              "(x[2] + x[3] - 0.5)^2")]
    for seed, sizes in ((1000, (2, 2, 2)), (1001, (2, 2, 2)), (1003, (3, 3)),
                        (1000, (3, 3)), (1001, (2, 2)), (1002, (2, 2)), (1006, (2, 2))):
        family = np.random.default_rng(seed)
        family.uniform(size=len(sizes))  # the family's b, drawn before g
        g = np.round(family.uniform(0.5, 2.0, size=sum(sizes)), 3)
        gx = " + ".join(f"{float(gj)!r}*x[{j}]" for j, gj in enumerate(g))
        faces.append((f"family{seed}-{'x'.join(map(str, sizes))}", block_rows(sizes),
                      f"({gx} - 1.0)^2"))
    pairs = []
    for name, A, h in faces:
        Q, c, _ = field_from_expression(h, 1, A.shape[1]).coefficients(np.zeros(1))
        pairs.append(pytest.param(A, np.vstack([A, Q, c]), id=name))
    return pairs


class TestIndependentRows:
    @settings(max_examples=200, deadline=None)
    @given(M=argmin_face_matrices())
    def test_pivoting_picks_scipys_rows_on_argmin_faces(self, M):
        k = np.linalg.matrix_rank(M, tol=RANK_TOL)
        assert _pivot_columns(M.T, k) == scipy_pivot_columns(M.T, k)

    @pytest.mark.parametrize("A, M", _pinned_faces())
    def test_pivoting_picks_scipys_rows_and_grid_columns_on_pinned_problems(self, A, M):
        # the rows of A and of its argmin face matrix M, and the basic
        # columns of the x grid, those of A's independent rows
        for rows in (A, M):
            k = np.linalg.matrix_rank(rows, tol=RANK_TOL)
            assert _pivot_columns(rows.T, k) == scipy_pivot_columns(rows.T, k)
        A = A[independent_rows(A)]
        assert _pivot_columns(A, len(A)) == scipy_pivot_columns(A, len(A))

    @settings(max_examples=200, deadline=None)
    @given(M=st.one_of(
        argmin_face_matrices(),
        st.integers(1, 5).flatmap(lambda cols: st.lists(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=cols, max_size=cols),
            min_size=1, max_size=6)).map(np.array)))
    def test_rows_are_independent_with_the_whole_rank(self, M):
        rows = independent_rows(M)
        assert rows == sorted(set(rows))
        rank = np.linalg.matrix_rank(M, tol=RANK_TOL)
        assert len(rows) == rank
        assert rank == 0 or np.linalg.matrix_rank(M[rows], tol=RANK_TOL) == rank


class TestFrankWolfe:
    def test_qb_penalized_closed_form(self, qb):
        field = bp.penalized_field(qb, 0.1)
        sol = bp.frank_wolfe_minimize(field.fix([0.5]), qb.follower_set, tol=1e-8)
        assert sol.fw_gap <= 1e-8
        assert sol.value == pytest.approx(8.0 / 7.0, abs=1e-9)

    def test_gap_is_recomputed_at_a_lower_oracle_vertex(self):
        # ||x - t||^2 on the 3-simplex from e3: the first oracle vertex e1 is
        # lower than e3, and one iteration ends the run there
        t = np.array([0.7, 0.3, 0.0])
        section = quadratic_section(2.0 * np.eye(3), -2.0 * t)
        V = bp.enumerate_vertices(Polytope(A=[[1.0, 1.0, 1.0]], b=[1.0]))
        lmo = vertex_lmo(V)
        x0 = np.array([0.0, 0.0, 1.0])
        first_gap = float(section.grad(x0) @ (x0 - lmo(section.grad(x0))))
        x, value, gap, iters = _fw_run(section, lmo, x0, 1e-8, 1)
        assert x.tolist() == [1.0, 0.0, 0.0] and iters == 1
        assert value == section.value(x) < section.value(x0)
        g = section.grad(x)
        assert gap == float(g @ (x - lmo(g))) == pytest.approx(1.2, abs=1e-12)
        assert gap != first_gap

    def test_linear_objective_matches_lp_exactly(self, qb):
        c = np.array([0.3, -1.2, 0.456, 2.0])
        lp = bp.lp_minimize(c, qb.follower_set)
        lin = FieldSection(value=lambda x: float(c @ x), grad=lambda x: c,
                           value_batch=lambda X: X @ c,
                           structure="linear_in_x", convex_in_x=True)
        start = bp.enumerate_vertices(qb.follower_set)[0]
        sol = bp.frank_wolfe_minimize(lin, qb.follower_set, start=start)
        assert sol.iterations <= 2
        assert sol.value == lp.value

    def test_distance_to_vertex(self, qb):
        v = bp.enumerate_vertices(qb.follower_set)[2]
        sec = quadratic_section(2.0 * np.eye(4), -2.0 * v)
        sol = bp.frank_wolfe_minimize(sec, qb.follower_set, tol=1e-10)
        # value of ||x - v||^2 shifted by -||v||^2; undo the shift
        assert sol.value + float(v @ v) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.x, v, atol=1e-9)

    def test_infeasible_start_projected(self, fs):
        sec = quadratic_section(np.eye(2), np.zeros(2))
        sol = bp.frank_wolfe_minimize(sec, fs.follower_set, start=[5.0, 5.0])
        assert fs.follower_set.contains(sol.x)
        # min of 0.5||x||^2 on the segment is at (1/2, 1/2): value 1/4
        assert sol.value == pytest.approx(0.25, abs=1e-9)

    def test_nonconvergence_reports_gap(self, qb):
        rng = np.random.default_rng(5)
        Q, c = random_convex_quadratic(rng, 4)
        sec = quadratic_section(Q, c)
        start = bp.enumerate_vertices(qb.follower_set)[0]
        sol = bp.frank_wolfe_minimize(sec, qb.follower_set, tol=1e-16,
                                      max_iter=2, start=start)
        assert np.isfinite(sol.fw_gap)  # reported, not raised

    @pytest.mark.parametrize("start", [[0.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3],
                                       [0.2, 0.1, 0.7]])
    def test_minimizer_on_a_face_certifies(self, start):
        # ||x - (1/2, 1/2, 0)||^2 - 1/2 over the unit simplex: the minimizer
        # lies on an edge, where vanilla Frank-Wolfe steps zigzag; a run that
        # certifies returns the point that certified, with its gap
        simplex3 = Polytope(np.ones((1, 3)), np.ones(1))
        sec = quadratic_section(2.0 * np.eye(3), [-1.0, -1.0, 0.0])
        sol = bp.frank_wolfe_minimize(sec, simplex3, tol=1e-10, start=start)
        assert sol.fw_gap <= 1e-10 and sol.iterations < 2000
        assert sol.value == pytest.approx(-0.5, abs=1e-10)
        np.testing.assert_allclose(sol.x, [0.5, 0.5, 0.0], atol=1e-5)

    def test_certifying_point_wins_a_rounding_tie(self):
        # next to the offset 1e8 every iterate rounds to the same value, so
        # the first point stays the lowest; the run must still return the
        # point whose gap certified, not the start with its larger gap
        simplex3 = Polytope(np.ones((1, 3)), np.ones(1))
        c = np.array([0.0, 1e-9, 2e-9])
        sec = FieldSection(value=lambda x: 1e8 + float(c @ x), grad=lambda x: c,
                           value_batch=lambda X: 1e8 + X @ c,
                           structure="linear_in_x", convex_in_x=True)
        sol = bp.frank_wolfe_minimize(sec, simplex3, tol=1e-12, start=[0.2, 0.3, 0.5])
        assert sol.fw_gap <= 1e-12 and sol.value == 1e8
        assert float(c @ sol.x) <= 1e-12

    def test_ill_conditioned_face_certifies_in_one_run(self):
        # h vanishes on a whole face and eps = 1e-3 weighs the leader lightly:
        # from the first vertex, pairwise steps alone zigzag on that face for
        # over 2000 iterations; the Newton step on the atoms ends it
        p = bp.problem_from_dict({
            "name": "blocks", "dim_y": 1, "dim_x": 6, "K_lower": [0.0], "K_upper": [1.0],
            "A": [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], "b": [1.0, 1.0],
            "f": "1 + y[0] + 0.625*x[0] + x[1] + 0.375*x[2] + x[3] + x[4] + 0.5*x[5]",
            "h": "(0.688*x[0] + x[1] + 0.25*x[2] + 1.25*x[3] + x[4] + 0.25*x[5] - 1)^2"})
        start = bp.enumerate_vertices(p.follower_set)[0]
        sol = bp.frank_wolfe_minimize(bp.penalized_field(p, 1e-3).fix([0.0]), p.follower_set,
                                      tol=1e-8, start=start)
        assert sol.fw_gap <= 1e-8 and sol.iterations <= 50
        np.testing.assert_allclose(sol.x[[0, 1, 2, 4]], [0.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_oracle_does_not_depend_on_the_vertex_cache(self):
        # x0 is minimal on a whole face of QB's box: which vertex the oracle
        # returns must not depend on whether enumerate_vertices ran before
        def solve():
            return bp.frank_wolfe_minimize(bp.field_from_expression("x[0]", 1, 4).fix([0.0]), C,
                                           start=[0.5] * 4)
        C = bp.registry_get("QB").follower_set
        fresh = solve()
        bp.enumerate_vertices(C)
        cached = solve()
        np.testing.assert_array_equal(fresh.x, cached.x)
        assert (fresh.value, fresh.fw_gap, fresh.iterations) == (
            cached.value, cached.fw_gap, cached.iterations)

    @pytest.mark.parametrize("start", [None, np.full(14, 1.0 / 14)])
    def test_simplex_oracle_above_the_vertex_guard(self, start):
        # 14 variables are past vertex enumeration, so the simplex is the
        # linear oracle; ||x - t||^2 on the unit simplex with sum t = 2/3 is
        # minimal at x = t + 1/42, with value 14 * (1/42)^2
        simplex14 = Polytope(np.ones((1, 14)), np.ones(1))
        t = (2.0 / 3.0) * np.arange(1, 15) / 105.0
        sec = quadratic_section(2.0 * np.eye(14), -2.0 * t)
        sol = bp.frank_wolfe_minimize(sec, simplex14, tol=1e-10, start=start)
        assert sol.fw_gap <= 1e-10 and sol.iterations < 2000
        assert sol.value + float(t @ t) == pytest.approx(14 * (1 / 42) ** 2, abs=1e-10)
        np.testing.assert_allclose(sol.x, t + 1 / 42, atol=1e-6)
        assert simplex14.cached_vertices is None

    @pytest.mark.parametrize("which,n", [("FS", 2), ("QB", 4)])
    def test_matches_dense_grid_on_random_quadratics(self, which, n):
        problem = bp.registry_get(which)
        grid = fs_grid() if which == "FS" else qb_grid()
        rng = np.random.default_rng(11)
        for _ in range(10):
            Q, c = random_convex_quadratic(rng, n)
            sec = quadratic_section(Q, c)
            sol = bp.frank_wolfe_minimize(sec, problem.follower_set, tol=1e-8)
            grid_min = float(sec.value_batch(grid).min())
            assert abs(sol.value - grid_min) <= 1e-5

    def test_gap_bounds_suboptimality(self, qb):
        # on instances whose true minimum is known from a very fine grid
        grid = qb_grid(step=5e-4)
        rng = np.random.default_rng(3)
        for _ in range(5):
            Q, c = random_convex_quadratic(rng, 4)
            sec = quadratic_section(Q, c)
            sol = bp.frank_wolfe_minimize(sec, qb.follower_set, tol=1e-8,
                                          max_iter=300)
            true_min = float(sec.value_batch(grid).min())
            assert sol.value - true_min <= sol.fw_gap + 1e-9
