"""Skorokhod solver: complementarity step, path folding, oracles."""

from __future__ import annotations

import numpy as np
import pytest

from rbmsens.errors import ConvergenceError, DomainError, GeometryError
from rbmsens.geometry import ConeModel
from rbmsens.skorokhod import (
    _LOOKAHEAD,
    DiscretePath,
    _least_push,
    complementarity_gap,
    lcp_solve,
    lyapunov_m,
    sp_1d_oracle,
    sp_solve_path,
    sp_step,
)

from conftest import (halfline_model, hr2d_model, orthant_model, random_cone_model,
                      triangular_model)


def brownian_driver(rng, model, steps, dt, start=None):
    incs = rng.normal(scale=np.sqrt(dt), size=(steps, model.dim)) + model.drift * dt
    values = np.concatenate([np.zeros((1, model.dim)), np.cumsum(incs, axis=0)])
    if start is not None:
        values += np.asarray(start, dtype=float)
    return DiscretePath(np.arange(steps + 1) * dt, values)


class TestDiscretePath:
    def test_scalar_values_promoted(self):
        path = DiscretePath([0.0, 1.0], [1.0, 2.0])
        assert path.values.shape == (2, 1)
        assert path.dim == 1

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            DiscretePath([0.0, 1.0, 1.0], np.zeros((3, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            DiscretePath([0.0, 1.0], np.zeros((3, 2)))


class TestLcpSolve:
    def test_interior_point(self):
        sol = lcp_solve(np.array([[1.0]]), np.array([2.0]))
        np.testing.assert_allclose(sol.w, [0.0])
        np.testing.assert_allclose(sol.z, [2.0])

    def test_boundary_push(self):
        sol = lcp_solve(np.array([[1.0]]), np.array([-1.0]))
        np.testing.assert_allclose(sol.w, [1.0])
        np.testing.assert_allclose(sol.z, [0.0])

    def test_coupled_push(self):
        m = np.array([[1.0, 0.0], [-0.5, 1.0]])
        sol = lcp_solve(m, np.array([-1.0, -1.0]))
        np.testing.assert_allclose(sol.w, [1.0, 1.5])
        np.testing.assert_allclose(sol.z, [0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("m", [
        [[1.0, 0.5], [0.5, 1.0]],    # Q has a negative entry
        [[1.0, -1.0], [-1.0, 1.0]],  # rho(Q) = 1, E - Q singular
        [[1.0, -2.0], [-2.0, 1.0]],  # rho(Q) = 2: a negative "solution"
    ])
    def test_rejects_m_outside_the_regime(self, m):
        with pytest.raises(GeometryError):
            lcp_solve(np.array(m), np.array([-1.0, -1.0]))

    def test_solution_invariants_random(self, rng):
        # 100 cones of dimension 1-4 with rho(Q) up to 0.8, then 100 of
        # dimension 2-8 with rho(Q) up to 0.99
        models = [random_cone_model(rng) for _ in range(100)]
        models += [random_cone_model(rng, dim=int(rng.integers(2, 9)),
                                     rho_cap=0.99) for _ in range(100)]
        for model in models:
            m = model.normals.T @ model.reflections
            q = rng.normal(size=model.dim) * 2.0
            sol = lcp_solve(m, q)
            np.testing.assert_allclose(sol.z, q + m @ sol.w, atol=1e-10)
            assert abs(float(sol.w @ sol.z)) <= 1e-10
            assert sol.w.min() >= -1e-12
            assert sol.z.min() >= -1e-12


class TestLeastPush:
    def test_nonnegative_block_returns_exact_zeros(self):
        q = np.array([[0.0, -0.0], [1.0, 2.5], [3.0, 0.0]])
        w, active = _least_push(q, hr2d_model().q_matrix())
        np.testing.assert_array_equal(w, np.zeros_like(q))
        assert not np.signbit(w).any()
        assert not active.any()

    def test_one_negative_entry_still_iterates(self):
        # hr2d: M = E - Q = [[1, -0.3], [-0.3, 1]].  Row 0 is free, row 1
        # pushes on face 1 only, and row 2's push on face 1 drives face 2
        # below zero, so a second pass adds it:
        # w = M^-1 (1, -0.2) = (0.94, 0.1) / 0.91.
        q = np.array([[1.0, 2.5], [-1.0, 0.5], [-1.0, 0.2]])
        w, active = _least_push(q, hr2d_model().q_matrix())
        np.testing.assert_array_equal(active, [[False, False], [True, False],
                                               [True, True]])
        np.testing.assert_array_equal(w[:2], [[0.0, 0.0], [1.0, 0.0]])
        assert not np.signbit(w).any()
        np.testing.assert_allclose(w[2], np.array([0.94, 0.1]) / 0.91,
                                   rtol=1e-14)

    def test_nan_is_not_taken_for_a_free_step(self):
        with pytest.raises(DomainError):
            _least_push(np.array([[np.nan, 1.0]]), hr2d_model().q_matrix())

    def test_stacked_couplings_match_one_model_at_a_time(self, rng):
        models = [random_cone_model(rng, dim=3) for _ in range(4)]
        Q = np.stack([m.q_matrix() for m in models])
        q = rng.normal(size=(4, 6, 3))
        w, active = _least_push(q, Q)
        for v, model in enumerate(models):
            alone_w, alone_active = _least_push(q[v], model.q_matrix())
            np.testing.assert_array_equal(w[v], alone_w)
            np.testing.assert_array_equal(active[v], alone_active)


class TestSpStep:
    @pytest.mark.parametrize("reflections", [
        [[1.0, 0.5], [0.5, 1.0]], [[1.0, -1.0], [-1.0, 1.0]],
        [[1.0, -2.0], [-2.0, 1.0]]])
    def test_every_model_entry_rejects_couplings_outside_the_regime(
            self, reflections):
        model = ConeModel(normals=np.identity(2), reflections=reflections,
                          drift=[-1.0, -1.0], dispersion=np.identity(2))
        driver = DiscretePath([0.0, 1.0], [[0.0, 0.0], [-1.0, -1.0]])
        for call in (lambda: sp_step(model, [0.0, 0.0], [-1.0, -1.0]),
                     lambda: sp_solve_path(model, driver),
                     lambda: lyapunov_m(model, [1.0, 1.0])):
            with pytest.raises(GeometryError, match="reflection solve"):
                call()

    def test_halfline_push(self):
        h, ell = sp_step(halfline_model(), [0.5], [-0.8])
        np.testing.assert_allclose(h, [0.0], atol=1e-12)
        np.testing.assert_allclose(ell, [0.3])

    def test_interior_step_no_push(self):
        h, ell = sp_step(halfline_model(), [0.5], [-0.2])
        np.testing.assert_allclose(h, [0.3])
        np.testing.assert_allclose(ell, [0.0])

    def test_orthant_componentwise(self):
        h, ell = sp_step(orthant_model(2), [0.1, 0.2], [-0.3, -0.5])
        np.testing.assert_allclose(h, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(ell, [0.2, 0.3])

    def test_oblique_push_drags_neighbor(self):
        # Pushing on face 1 of the triangular model moves the second
        # coordinate down by half the push.
        model = triangular_model()
        h, ell = sp_step(model, [0.2, 1.0], [-0.5, 0.0])
        np.testing.assert_allclose(ell, [0.3, 0.0])
        np.testing.assert_allclose(h, [0.0, 1.0 - 0.5 * 0.3], atol=1e-12)


class TestSp1dOracle:
    def test_dips_below_zero(self):
        path = DiscretePath([0.0, 1.0, 2.0], [1.0, -1.0, 0.0])
        np.testing.assert_allclose(sp_1d_oracle(path).values[:, 0], [1.0, 0.0, 1.0])

    def test_monotone_decreasing_driver(self):
        path = DiscretePath([0.0, 1.0, 2.0], [0.0, -2.0, -3.0])
        np.testing.assert_allclose(sp_1d_oracle(path).values[:, 0], [0.0, 0.0, 0.0])

    def test_rejects_multidim(self):
        with pytest.raises(ValueError):
            sp_1d_oracle(DiscretePath([0.0, 1.0], np.zeros((2, 2))))


class TestSpSolvePath:
    def test_matches_1d_oracle_random_paths(self, rng):
        model = halfline_model()
        for _ in range(100):
            steps = int(rng.integers(5, 60))
            breaks = np.sort(rng.uniform(0.0, 10.0, size=steps))
            times = np.concatenate([[0.0], breaks + 1e-6])
            values = np.concatenate([[rng.uniform(0.0, 2.0)],
                                     rng.normal(size=steps) * 2.0])
            driver = DiscretePath(times, np.cumsum(values))
            result = sp_solve_path(model, driver)
            oracle = sp_1d_oracle(driver)
            np.testing.assert_allclose(result.constrained.values,
                                       oracle.values, atol=1e-10)

    def test_result_invariants(self, rng):
        for _ in range(20):
            model = random_cone_model(rng)
            start = np.linalg.solve(model.normals.T,
                                    np.abs(rng.normal(size=model.dim)))
            driver = brownian_driver(rng, model, steps=200, dt=0.01, start=start)
            result = sp_solve_path(model, driver)
            f = driver.values
            h = result.constrained.values
            g = result.pushing.values
            ell = result.local_time.values
            np.testing.assert_allclose(h, f + g, atol=1e-10)
            np.testing.assert_allclose(g, ell @ model.reflections.T, atol=1e-12)
            assert np.diff(ell, axis=0).min() >= -1e-14
            assert (h @ model.normals).min() >= -1e-9
            assert complementarity_gap(model, result) <= 1e-8

    def test_interior_start_has_zero_initial_local_time(self):
        model = orthant_model(2)
        driver = DiscretePath([0.0, 1.0], [[1.0, 1.0], [2.0, 2.0]])
        result = sp_solve_path(model, driver)
        np.testing.assert_allclose(result.local_time.values[0], [0.0, 0.0])

    def test_start_outside_raises(self):
        model = orthant_model(2)
        driver = DiscretePath([0.0, 1.0], [[-0.5, 1.0], [1.0, 1.0]])
        with pytest.raises(DomainError):
            sp_solve_path(model, driver)

    def test_orthant_equals_stacked_1d_oracles(self, rng):
        model = orthant_model(3, drift=[-1.0, -1.0, -1.0])
        driver = brownian_driver(rng, model, steps=500, dt=0.01,
                                 start=[1.0, 0.5, 0.0])
        result = sp_solve_path(model, driver)
        for j in range(3):
            column = DiscretePath(driver.times, driver.values[:, j])
            np.testing.assert_allclose(result.constrained.values[:, j],
                                       sp_1d_oracle(column).values[:, 0],
                                       atol=1e-10)

    def test_coarse_grid_restriction_exact_for_piecewise_linear(self, rng):
        # Linear interpolation cannot undercut the endpoints, so the
        # 1-D solution at coarse points is unchanged by refinement.
        model = halfline_model()
        times = np.linspace(0.0, 5.0, 21)
        values = np.concatenate([[0.5], np.cumsum(rng.normal(size=20))])
        fine_times = np.linspace(0.0, 5.0, 41)
        fine_values = np.interp(fine_times, times, values)
        coarse = sp_solve_path(model, DiscretePath(times, values))
        fine = sp_solve_path(model, DiscretePath(fine_times, fine_values))
        np.testing.assert_allclose(fine.constrained.values[::2, 0],
                                   coarse.constrained.values[:, 0], atol=1e-12)

    def test_lipschitz_ratio_stable_under_refinement(self, rng):
        # The driver-to-solution Lipschitz constant of the reflection
        # map, measured empirically, should not blow up as the grid of
        # the same two drivers is refined.
        model = triangular_model()
        steps = 256
        incs = rng.normal(scale=0.1, size=(steps, 2))
        bump = rng.normal(scale=0.02, size=(steps, 2))
        ratios = []
        for stride in (4, 2, 1):
            sub_f = np.concatenate([np.zeros((1, 2)),
                                    np.cumsum(incs, axis=0)])[::stride]
            sub_g = np.concatenate([np.zeros((1, 2)),
                                    np.cumsum(incs + bump, axis=0)])[::stride]
            times = np.arange(sub_f.shape[0]) * 0.01 * stride
            sub_f[0] = sub_g[0] = np.array([0.5, 0.5])
            h1 = sp_solve_path(model, DiscretePath(times, sub_f)).constrained.values
            h2 = sp_solve_path(model, DiscretePath(times, sub_g)).constrained.values
            gap_h = np.abs(h1 - h2).max()
            gap_f = np.abs(sub_f - sub_g).max()
            ratios.append(gap_h / gap_f)
        assert max(ratios) <= 3.0 * min(ratios) + 1e-12


def sp_step_fold(model, driver):
    """Reference path solve: ``sp_step`` applied to one increment at a time."""
    f = driver.values
    state, push = sp_step(model, np.zeros(model.dim), f[0])
    h = [state]
    ell = [push]
    for k in range(len(driver) - 1):
        state, push = sp_step(model, state, f[k + 1] - f[k])
        h.append(state)
        ell.append(ell[-1] + push)
    return np.array(h), np.array(ell)


def scheduled_driver(model, pushes, steps):
    """Driver that moves away from every face except at ``pushes``.

    Face heights rise by 1e-3 per step; at step k in ``pushes`` face
    1 + (k mod J) drops by 2, far below zero, so exactly those steps
    push.
    """
    dim = model.dim
    heights = np.full((steps, dim), 1e-3)
    for k in pushes:
        heights[k, k % dim] = -2.0
    incs = np.linalg.solve(model.normals.T, heights.T).T
    start = np.linalg.solve(model.normals.T, np.full(dim, 0.5))
    values = start + np.concatenate([np.zeros((1, dim)), np.cumsum(incs, axis=0)])
    return DiscretePath(np.arange(steps + 1) * 0.01, values)


class TestSpSolvePathMatchesStepFold:
    """The look-ahead solver equals the per-step fold bit for bit."""

    @pytest.fixture(params=["halfline", "hr2d", "random3d"])
    def model(self, request, rng):
        if request.param == "halfline":
            return halfline_model()
        if request.param == "hr2d":
            return hr2d_model()
        return random_cone_model(rng, dim=3)

    def assert_matches_fold(self, model, driver):
        result = sp_solve_path(model, driver)
        h, ell = sp_step_fold(model, driver)
        assert np.array_equal(result.constrained.values, h)
        assert np.array_equal(result.local_time.values, ell)

    def test_pushes_at_window_edges(self, model):
        # A window opens at step 0 and after every push.  The pushes
        # fall on the last step of the first window (offset L - 1), the
        # first step of the next (offset 0), and after a free stretch
        # of a full window (offset L from the previous window's start).
        L = _LOOKAHEAD
        pushes = [L - 1, L, 2 * L + 1]
        driver = scheduled_driver(model, pushes, steps=5 * L)
        pushed = np.flatnonzero(
            (np.diff(sp_solve_path(model, driver).local_time.values, axis=0)
             > 0.0).any(axis=1))
        assert pushed.tolist() == pushes
        self.assert_matches_fold(model, driver)

    def test_brownian_drivers(self, model, rng):
        for _ in range(3):
            start = np.linalg.solve(model.normals.T,
                                    rng.uniform(0.0, 0.3, size=model.dim))
            driver = brownian_driver(rng, model, steps=2000, dt=0.01,
                                     start=start)
            self.assert_matches_fold(model, driver)


class TestLyapunovM:
    def test_halfline_return_time(self):
        model = halfline_model(drift=-1.0)
        value = lyapunov_m(model, [2.0], dt=1e-3)
        assert abs(value - 2.0) <= 1e-3 + 1e-12

    def test_orthant_slowest_component(self):
        model = orthant_model(2, drift=[-1.0, -2.0])
        value = lyapunov_m(model, [1.0, 1.0], dt=1e-3)
        assert abs(value - 1.0) <= 1e-3 + 1e-12

    def test_origin_returns_zero(self):
        assert lyapunov_m(halfline_model(), [0.0]) == 0.0

    def test_unstable_drift_raises(self):
        model = halfline_model(drift=0.5)
        with pytest.raises(ConvergenceError, match="unstable|horizon"):
            lyapunov_m(model, [1.0], dt=1e-2, horizon=3.0)

    def test_start_outside_raises(self):
        with pytest.raises(DomainError):
            lyapunov_m(halfline_model(), [-1.0])

    def test_scales_linearly_on_halfline(self):
        model = halfline_model(drift=-2.0)
        value = lyapunov_m(model, [3.0], dt=1e-3)
        assert abs(value - 1.5) <= 1e-3 + 1e-12

    def test_oblique_model_finite(self, rng):
        for _ in range(5):
            model = random_cone_model(rng, dim=2)
            start = np.linalg.solve(model.normals.T, [1.0, 0.5])
            value = lyapunov_m(model, start, dt=1e-2, horizon=200.0)
            assert 0.0 < value < 200.0
