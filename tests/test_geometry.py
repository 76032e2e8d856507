"""Geometry: validation, spectral radius, norm construction, stability."""

from __future__ import annotations

import numpy as np
import pytest

from rbmsens.errors import DomainError, GeometryError
from rbmsens.geometry import (
    BNorm,
    ConeModel,
    active_faces,
    build_b_norm,
    drift_stability_check,
    face_mask,
    face_set,
    perturbed_model,
    spectral_radius,
    validate_cone,
)

from conftest import (halfline_model, hr2d_model, orthant_model,
                      paired_five_face_model, random_cone_model,
                      triangular_model)


class TestConeModel:
    def test_normalizes_columns(self):
        model = ConeModel(normals=[[2.0, 0.0], [0.0, 3.0]],
                          reflections=[[4.0, 0.0], [0.0, 0.25]],
                          drift=[-1.0, -1.0], dispersion=np.identity(2))
        np.testing.assert_allclose(model.normals, np.identity(2))
        np.testing.assert_allclose(model.reflections, np.identity(2))

    def test_rejects_outward_reflection(self):
        with pytest.raises(GeometryError, match="point into"):
            ConeModel(normals=np.identity(2),
                      reflections=[[-1.0, 0.0], [0.0, 1.0]],
                      drift=[0.0, 0.0], dispersion=np.identity(2))

    def test_rejects_zero_normal(self):
        with pytest.raises(GeometryError, match="zero"):
            ConeModel(normals=[[0.0, 0.0], [0.0, 1.0]],
                      reflections=np.identity(2),
                      drift=[0.0, 0.0], dispersion=np.identity(2))

    def test_shape_mismatch_is_structural(self):
        with pytest.raises(GeometryError, match="shape"):
            ConeModel(normals=np.identity(2), reflections=np.identity(2),
                      drift=[0.0, 0.0, 0.0], dispersion=np.identity(2))

    @pytest.mark.parametrize("field", ["normals", "reflections", "drift",
                                       "dispersion", "reflection_deriv"])
    def test_rejects_entries_that_are_not_finite(self, field):
        data = dict(normals=np.identity(2), reflections=np.identity(2),
                    drift=[-1.0, -1.0], dispersion=np.identity(2),
                    reflection_deriv=np.zeros((2, 2)))
        bad = np.array(data[field], dtype=float)
        bad.flat[-1] = np.inf if field == "normals" else np.nan
        data[field] = bad
        with pytest.raises(GeometryError, match=f"{field} has entries"):
            ConeModel(**data)

    def test_arrays_frozen(self):
        model = orthant_model()
        with pytest.raises(ValueError):
            model.drift[0] = 5.0


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_nilpotent_exact_zero(self):
        assert spectral_radius([[0.0, 0.0], [0.5, 0.0]]) == 0.0

    def test_half_coupling(self):
        q = [[0.0, 0.5], [0.5, 0.0]]
        assert spectral_radius(q) == pytest.approx(0.5, rel=1e-8)

    def test_symmetric_03(self):
        q = [[0.0, 0.3], [0.3, 0.0]]
        assert spectral_radius(q) == pytest.approx(0.3, rel=1e-8)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.3, 0.2])) == pytest.approx(0.3, rel=1e-8)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            spectral_radius([[0.0, -0.5], [0.5, 0.0]])

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            q = rng.uniform(size=(n, n)) * rng.uniform(0.1, 5.0)
            expected = float(np.abs(np.linalg.eigvals(q)).max())
            assert spectral_radius(q) == pytest.approx(expected, rel=1e-7)

    def test_sparse_matrices_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            q = rng.uniform(size=(n, n))
            q[rng.uniform(size=(n, n)) < 0.6] = 0.0
            expected = float(np.abs(np.linalg.eigvals(q)).max())
            got = spectral_radius(q)
            if expected == 0.0:
                assert got == 0.0
            else:
                assert got == pytest.approx(expected, rel=1e-7)


class TestValidateCone:
    def test_orthant_accepted(self):
        report = validate_cone(orthant_model(3))
        assert report.accepted
        assert not report.failures()

    def test_triangular_accepted_with_nilpotent_q(self):
        model = triangular_model()
        np.testing.assert_allclose(model.q_matrix(), [[0.0, 0.0], [0.5, 0.0]])
        assert validate_cone(model).accepted

    def test_strong_pull_rejected(self):
        model = ConeModel(normals=np.identity(2),
                          reflections=[[1.0, -2.0], [-2.0, 1.0]],
                          drift=[-1.0, -1.0], dispersion=np.identity(2))
        report = validate_cone(model)
        assert not report.accepted
        by_name = {c.name: c for c in report.checks}
        assert by_name["q-spectral-radius"].value == pytest.approx(2.0, rel=1e-8)
        assert not by_name["q-spectral-radius"].passed

    def test_zero_row_five_face_cone_accepted(self):
        report = validate_cone(paired_five_face_model())
        assert report.accepted, report.summary()
        by_name = {c.name: c for c in report.checks}
        assert by_name["q-spectral-radius"].value == pytest.approx(0.5, rel=1e-12)

    def test_singular_normals_reported_not_raised(self):
        u = np.array([1.0, 0.0])
        model = ConeModel(normals=np.stack([u, u], axis=1),
                          reflections=np.stack([u, u], axis=1),
                          drift=[-1.0, -1.0], dispersion=np.identity(2))
        report = validate_cone(model)
        assert not report.accepted
        names = [c.name for c in report.failures()]
        assert "normals-independent" in names

    def test_degenerate_dispersion_rejected(self):
        model = ConeModel(normals=np.identity(2), reflections=np.identity(2),
                          drift=[-1.0, -1.0],
                          dispersion=[[1.0, 0.0], [1.0, 0.0]])
        report = validate_cone(model)
        assert not report.accepted
        assert any(c.name == "covariance-positive-definite" for c in report.failures())

    def test_random_accepted_models(self, rng):
        for _ in range(25):
            assert validate_cone(random_cone_model(rng)).accepted

    def test_inverse_nonnegative_in_regime(self, rng):
        # (N^T R)^{-1} = sum Q^k is entrywise nonnegative whenever
        # Q >= 0 and rho(Q) < 1.
        for _ in range(25):
            model = random_cone_model(rng)
            inv = np.linalg.inv(model.normals.T @ model.reflections)
            assert inv.min() >= -1e-10


class TestBNorm:
    def test_triangular_weights(self):
        norm = build_b_norm(triangular_model())
        np.testing.assert_allclose(norm.weights, [1.0, 1.5])

    def test_triangular_unit_vector(self):
        norm = build_b_norm(triangular_model())
        assert norm.value([1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthant_weights_are_ones(self):
        norm = build_b_norm(orthant_model(3))
        np.testing.assert_allclose(norm.weights, np.ones(3))
        assert norm.value([0.0, -2.0, 1.0]) == pytest.approx(2.0)

    def test_hr2d_weights(self):
        norm = build_b_norm(hr2d_model())
        np.testing.assert_allclose(norm.weights, [10.0 / 7.0, 10.0 / 7.0])

    def test_zero_vector(self):
        norm = build_b_norm(triangular_model())
        assert norm.value(np.zeros(2)) == 0.0

    def test_norm_axioms(self, rng):
        models = [random_cone_model(rng) for _ in range(5)]
        for model in models:
            norm = build_b_norm(model)
            dim = model.dim
            for _ in range(200):
                y1 = rng.normal(size=dim) * 10.0 ** rng.integers(-3, 4)
                y2 = rng.normal(size=dim)
                n1, n2 = norm.value(y1), norm.value(y2)
                assert n1 > 0.0
                assert norm.value(y1 + y2) <= n1 + n2 + 1e-10
                c = float(rng.normal())
                assert norm.value(c * y1) == pytest.approx(abs(c) * n1, rel=1e-12, abs=1e-300)

    def test_batch_evaluation_matches_loop(self, rng):
        norm = build_b_norm(hr2d_model())
        ys = rng.normal(size=(40, 2))
        batch = norm.value(ys)
        singles = np.array([norm.value(y) for y in ys])
        np.testing.assert_allclose(batch, singles, rtol=1e-14)

    def test_operator_norm_matches_vertex_max(self, rng):
        # The closed form must coincide with brute force over the
        # ball's vertices, where the polyhedral maximum is attained.
        for _ in range(10):
            model = random_cone_model(rng, dim=int(rng.integers(1, 5)))
            norm = build_b_norm(model)
            a = rng.normal(size=(model.dim, model.dim))
            vertex_max = max(norm.value(a @ u) for u in norm.ball_vertices())
            assert norm.operator_norm(a) == pytest.approx(vertex_max, rel=1e-12)

    def test_operator_norm_bounds_images(self, rng):
        norm = build_b_norm(hr2d_model())
        a = rng.normal(size=(2, 2))
        bound = norm.operator_norm(a)
        for _ in range(300):
            y = rng.normal(size=2)
            assert norm.value(a @ y) <= bound * norm.value(y) * (1.0 + 1e-12)

    def test_identity_has_operator_norm_one(self, rng):
        for _ in range(5):
            norm = build_b_norm(random_cone_model(rng))
            assert norm.operator_norm(np.identity(norm.weights.shape[0])) == pytest.approx(1.0)


class TestActiveFaces:
    def test_origin_has_all_faces(self):
        assert active_faces(orthant_model(3), np.zeros(3)) == {1, 2, 3}

    def test_interior_point(self):
        assert active_faces(orthant_model(2), [0.5, 0.5]) == frozenset()

    def test_single_face(self):
        assert active_faces(orthant_model(2), [0.0, 1.0]) == {1}

    def test_outside_raises(self):
        with pytest.raises(DomainError, match="outside"):
            active_faces(orthant_model(2), [-1e-3, 1.0])

    def test_just_below_tolerance_is_active(self):
        model = orthant_model(2)
        assert 1 in active_faces(model, [-1e-10, 1.0])

    def test_monotone_in_tolerance(self, rng):
        model = random_cone_model(rng, dim=3)
        for _ in range(100):
            # Sample in the cone: face heights s >= 0, some exactly zero.
            s = np.abs(rng.normal(size=3)) * (rng.uniform(size=3) < 0.7)
            x = np.linalg.solve(model.normals.T, s)
            tol_small, tol_big = sorted(rng.uniform(1e-9, 0.5, size=2))
            small = active_faces(model, x, tol_small)
            big = active_faces(model, x, tol_big)
            assert small <= big


class TestDriftStability:
    def test_orthant_negative_drift_stable(self):
        stable, w = drift_stability_check(orthant_model(2, drift=[-1.0, -2.0]))
        assert stable
        np.testing.assert_allclose(w, [1.0, 2.0])

    def test_positive_component_unstable(self):
        stable, w = drift_stability_check(orthant_model(2, drift=[-1.0, 0.5]))
        assert not stable
        np.testing.assert_allclose(w, [1.0, -0.5])

    def test_oblique_interior_drift_stable(self):
        # b = (-1, -0.25) decomposes as -1*d_1 - 0.75*d_2 for the
        # triangular directions d_1 = (1, -0.5), d_2 = (0, 1).
        model = ConeModel(normals=np.identity(2),
                          reflections=[[1.0, 0.0], [-0.5, 1.0]],
                          drift=[-1.0, -0.25], dispersion=np.identity(2))
        stable, w = drift_stability_check(model)
        assert stable
        np.testing.assert_allclose(w, [1.0, 0.75])

    def test_oblique_boundary_drift_unstable(self):
        model = ConeModel(normals=np.identity(2),
                          reflections=[[1.0, 0.0], [-0.5, 1.0]],
                          drift=[-1.0, 0.6], dispersion=np.identity(2))
        stable, w = drift_stability_check(model)
        assert not stable
        np.testing.assert_allclose(w, [1.0, -0.1])

    def test_agrees_with_least_squares_solve(self, rng):
        for _ in range(50):
            model = random_cone_model(rng)
            b = rng.normal(size=model.dim)
            candidate = ConeModel(normals=model.normals.copy(),
                                  reflections=model.reflections.copy(),
                                  drift=b, dispersion=np.identity(model.dim))
            stable, w = drift_stability_check(candidate)
            ref, *_ = np.linalg.lstsq(model.reflections, -b, rcond=None)
            np.testing.assert_allclose(w, ref, atol=1e-9)
            if abs(ref.min()) > 1e-9:
                assert stable == bool(ref.min() > 0.0)

    def test_random_models_are_stable_by_construction(self, rng):
        for _ in range(20):
            stable, w = drift_stability_check(random_cone_model(rng))
            assert stable
            assert w.min() > 0.0


class TestFaceMask:
    def test_roundtrip(self):
        for faces in [frozenset(), {1}, {2, 3}, {1, 2, 3, 4}]:
            assert face_set(face_mask(faces)) == frozenset(faces)

    def test_known_values(self):
        assert face_mask({1}) == 1
        assert face_mask({2}) == 2
        assert face_mask({1, 3}) == 5

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            face_mask({0})


class TestPerturbedModel:
    def test_drift_shift(self):
        model = halfline_model(drift=-1.0, drift_deriv=1.0)
        shifted = perturbed_model(model, 0.25)
        np.testing.assert_allclose(shifted.drift, [-0.75])
        np.testing.assert_allclose(shifted.dispersion, model.dispersion)

    def test_zero_shift_is_identity(self, rng):
        model = random_cone_model(rng, with_derivs=True)
        same = perturbed_model(model, 0.0)
        np.testing.assert_allclose(same.reflections, model.reflections)
        np.testing.assert_allclose(same.drift, model.drift)

    def test_tangent_reflection_shift_survives_normalization(self, rng):
        model = random_cone_model(rng, with_derivs=True)
        eps = 0.01
        shifted = perturbed_model(model, eps)
        np.testing.assert_allclose(
            shifted.reflections, model.reflections + eps * model.reflection_deriv,
            atol=1e-12)
