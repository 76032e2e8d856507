"""Derivative recursion: projections, jumps, contraction probes."""

from __future__ import annotations

import numpy as np
import pytest

from rbmsens.derivative import (
    DerivativeState,
    OperatorCache,
    contraction_probe,
    delta0_probes,
    derivative_projection,
    derivative_step,
    estimate_delta0,
    psi_increment,
    subspace_gap,
)
from rbmsens.geometry import build_b_norm, face_set

from conftest import halfline_model, hr2d_model, orthant_model, random_cone_model, triangular_model


def all_nonempty_face_sets(dim):
    return [face_set(mask) for mask in range(1, 2 ** dim)]


class TestDerivativeProjection:
    def test_orthant_single_face(self):
        op = derivative_projection(orthant_model(2), {1})
        np.testing.assert_allclose(op, [[0.0, 0.0], [0.0, 1.0]])

    def test_triangular_single_face(self):
        op = derivative_projection(triangular_model(), {1})
        np.testing.assert_allclose(op, [[0.0, 0.0], [0.5, 1.0]])
        np.testing.assert_allclose(op @ [1.0, 1.0], [0.0, 1.5])

    def test_removal_lies_along_reflection(self):
        model = triangular_model()
        op = derivative_projection(model, {1})
        y = np.array([1.0, 1.0])
        np.testing.assert_allclose(op @ y - y, -model.reflections[:, 0])

    def test_full_set_is_exact_zero(self):
        op = derivative_projection(triangular_model(), {1, 2})
        assert (op == 0.0).all()

    def test_empty_set_is_exact_identity(self):
        op = derivative_projection(triangular_model(), frozenset())
        assert (op == np.identity(2)).all()

    def test_matrix_is_read_only(self):
        for faces in (frozenset(), {1}, {1, 2}):
            op = derivative_projection(triangular_model(), faces)
            assert not op.flags.writeable

    def test_rejects_out_of_range_face(self):
        with pytest.raises(ValueError):
            derivative_projection(orthant_model(2), {3})

    def test_idempotent_all_face_sets(self, rng):
        for _ in range(10):
            model = random_cone_model(rng)
            for faces in all_nonempty_face_sets(model.dim):
                m = derivative_projection(model, faces)
                np.testing.assert_allclose(m @ m, m, atol=1e-10)

    def test_image_in_constraint_subspace(self, rng):
        for _ in range(10):
            model = random_cone_model(rng)
            for faces in all_nonempty_face_sets(model.dim):
                m = derivative_projection(model, faces)
                idx = sorted(i - 1 for i in faces)
                gap = np.abs(model.normals[:, idx].T @ m).max()
                assert gap <= 1e-10

    def test_removal_in_reflection_span(self, rng):
        for _ in range(10):
            model = random_cone_model(rng)
            dim = model.dim
            for faces in all_nonempty_face_sets(dim):
                m = derivative_projection(model, faces)
                idx = sorted(i - 1 for i in faces)
                span = model.reflections[:, idx]
                diff = m - np.identity(dim)
                # residual after least-squares fit onto span{d_i, i in I}
                coeff, *_ = np.linalg.lstsq(span, diff, rcond=None)
                assert np.abs(span @ coeff - diff).max() <= 1e-10

    def test_nonexpansive_in_contraction_norm(self, rng):
        for _ in range(10):
            model = random_cone_model(rng)
            bnorm = build_b_norm(model)
            for faces in all_nonempty_face_sets(model.dim):
                m = derivative_projection(model, faces)
                assert bnorm.operator_norm(m) <= 1.0 + 1e-10
                for _ in range(30):
                    y = rng.normal(size=model.dim)
                    assert bnorm.value(m @ y) <= bnorm.value(y) * (1.0 + 1e-10)


class TestOperatorCache:
    def test_lookup_by_mask_and_by_set(self):
        cache = OperatorCache(triangular_model())
        assert cache.get(1) is cache.get({1})
        np.testing.assert_allclose(cache.get({1}), [[0.0, 0.0], [0.5, 1.0]])


class TestDerivativeStep:
    def test_interior_step_bit_exact(self):
        cache = OperatorCache(hr2d_model())
        state = DerivativeState(np.array([0.1, 0.2]))
        delta = np.array([0.3337777, -0.12345])
        out = derivative_step(cache, state, delta, frozenset(), t=1.0)
        assert (out.value == state.value + delta).all()
        assert out.last_jump_time is None

    def test_halfline_pin_to_zero(self):
        cache = OperatorCache(halfline_model())
        state = DerivativeState(np.array([0.7]))
        out = derivative_step(cache, state, np.array([0.1]), {1}, t=2.5)
        np.testing.assert_allclose(out.value, [0.0])
        assert out.last_jump_time == 2.5

    def test_no_jump_recorded_when_already_in_subspace(self):
        cache = OperatorCache(orthant_model(2))
        state = DerivativeState(np.array([0.0, 1.0]))
        out = derivative_step(cache, state, np.zeros(2), {1}, t=3.0)
        np.testing.assert_allclose(out.value, [0.0, 1.0])
        assert out.last_jump_time is None

    def test_jump_time_kept_from_earlier_projection(self):
        cache = OperatorCache(halfline_model())
        state = DerivativeState(np.array([0.7]), last_jump_time=1.0)
        out = derivative_step(cache, state, np.array([0.1]), frozenset(), t=4.0)
        assert out.last_jump_time == 1.0

    def test_linearity_in_psi_stream(self, rng):
        # The recursion is linear in (initial value, psi stream) for a
        # fixed face-set sequence.
        for _ in range(50):
            model = random_cone_model(rng)
            cache = OperatorCache(model)
            dim = model.dim
            steps = 30
            masks = [int(rng.integers(0, 2 ** dim)) for _ in range(steps)]
            psi_a = rng.normal(size=(steps, dim))
            psi_b = rng.normal(size=(steps, dim))
            init_a = rng.normal(size=dim)
            init_b = rng.normal(size=dim)

            def run(init, psis):
                state = DerivativeState(init)
                for k, mask in enumerate(masks):
                    state = derivative_step(cache, state, psis[k], mask, t=float(k))
                return state.value

            combined = run(init_a + init_b, psi_a + psi_b)
            separate = run(init_a, psi_a) + run(init_b, psi_b)
            np.testing.assert_allclose(combined, separate, atol=1e-9)


class TestPsiIncrement:
    def test_reflection_sensitivity_routes_local_time(self):
        model = ConeModelFactory.with_reflection_deriv()
        out = psi_increment(model, dt=0.0, delta_w=np.zeros(2),
                            delta_ell=np.array([0.2, 0.0]))
        np.testing.assert_allclose(out, [0.0, 0.2])

    def test_all_terms_combine(self):
        model = ConeModelFactory.with_all_derivs()
        out = psi_increment(model, dt=0.5, delta_w=np.array([1.0, -1.0]),
                            delta_ell=np.array([0.1, 0.0]))
        expected = (model.drift_deriv * 0.5
                    + model.dispersion_deriv @ np.array([1.0, -1.0])
                    + model.reflection_deriv @ np.array([0.1, 0.0]))
        np.testing.assert_allclose(out, expected)

    def test_zero_derivatives_give_zero(self):
        model = hr2d_model(drift_deriv=(0.0, 0.0))
        out = psi_increment(model, dt=0.3, delta_w=np.array([2.0, -2.0]),
                            delta_ell=np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, [0.0, 0.0])


class ConeModelFactory:
    """Small helpers for models with specific derivative structure."""

    @staticmethod
    def with_reflection_deriv():
        from rbmsens.geometry import ConeModel
        return ConeModel(normals=np.identity(2), reflections=np.identity(2),
                         drift=[-1.0, -1.0], dispersion=np.identity(2),
                         reflection_deriv=[[0.0, 0.0], [1.0, 0.0]])

    @staticmethod
    def with_all_derivs():
        from rbmsens.geometry import ConeModel
        return ConeModel(normals=np.identity(2), reflections=np.identity(2),
                         drift=[-1.0, -1.0], dispersion=np.identity(2),
                         drift_deriv=[1.0, 0.5],
                         dispersion_deriv=[[0.1, 0.0], [0.0, -0.1]],
                         reflection_deriv=[[0.0, 0.3], [1.0, 0.0]])


class TestSubspaceGap:
    def test_interior_point_no_constraint(self):
        model = orthant_model(2)
        assert subspace_gap(model, [1.0, 1.0], [5.0, -3.0]) == 0.0

    def test_face_constraint_violation(self):
        model = orthant_model(2)
        assert subspace_gap(model, [0.0, 1.0], [0.25, 9.0]) == pytest.approx(0.25)

    def test_value_in_subspace(self):
        model = orthant_model(2)
        assert subspace_gap(model, [0.0, 1.0], [0.0, 9.0]) == 0.0


class TestContractionProbe:
    def test_orthant_alternating_faces_kill_everything(self):
        model = orthant_model(2)
        assert contraction_probe(model, [{1}, {2}]) == 0.0

    def test_orthant_repeated_face_keeps_other_coordinate(self):
        model = orthant_model(2)
        bnorm = build_b_norm(model)
        single = derivative_projection(model, {1})
        probe = contraction_probe(model, [{1}, {1}])
        assert probe == pytest.approx(bnorm.operator_norm(single))
        assert probe == pytest.approx(1.0)

    def test_full_set_is_zero(self):
        assert contraction_probe(hr2d_model(), [{1, 2}]) == 0.0

    def test_hr2d_singleton_pair_value(self):
        # L_1 L_2 conjugated into reflection coordinates has row sums
        # (0.09, 0.3); the probe equals the off-diagonal coupling.
        assert contraction_probe(hr2d_model(), [{2}, {1}]) == pytest.approx(0.3)
        assert contraction_probe(hr2d_model(), [{1}, {2}]) == pytest.approx(0.3)


class TestEstimateDelta0:
    def test_hr2d_exact_value(self):
        # For two faces the extreme covering sequences are the two
        # singleton orders and the full set; the supremum is 0.3.
        assert estimate_delta0(hr2d_model(), n_sequences=50) == pytest.approx(0.3)

    def test_orthant_is_zero(self):
        assert estimate_delta0(orthant_model(2), n_sequences=50) == 0.0

    def test_halfline_is_zero(self):
        assert estimate_delta0(halfline_model(), n_sequences=10) == 0.0

    def test_below_one_for_random_accepted_models(self, rng):
        for _ in range(10):
            model = random_cone_model(rng)
            assert estimate_delta0(model, n_sequences=100) < 1.0 - 1e-6

    def test_probe_table_sequences_cover(self):
        model = hr2d_model()
        table = delta0_probes(model, n_sequences=20)
        for seq, value in table:
            union = frozenset().union(*seq)
            assert union == {1, 2}
            assert 0.0 <= value <= 1.0 + 1e-10

    def test_deterministic_given_seed(self):
        model = hr2d_model()
        a = delta0_probes(model, n_sequences=30, seed=5)
        b = delta0_probes(model, n_sequences=30, seed=5)
        assert [s for s, _ in a] == [s for s, _ in b]
        np.testing.assert_array_equal([v for _, v in a], [v for _, v in b])


class TestPerCycleContraction:
    def test_gap_contracts_over_covering_cycle(self, rng):
        # Two derivative recursions fed the same psi stream differ by
        # a pure projection product; after a covering cycle the gap
        # shrinks by at least the probed factor.
        model = hr2d_model()
        cache = OperatorCache(model)
        bnorm = build_b_norm(model)
        delta0 = estimate_delta0(model, n_sequences=50)
        for _ in range(20):
            seq = [frozenset([i]) for i in rng.permutation(2) + 1]
            extra = [face_set(int(rng.integers(0, 4))) for _ in range(3)]
            masks = seq + extra
            psi = rng.normal(size=(len(masks), 2))
            s1 = DerivativeState(rng.normal(size=2))
            s2 = DerivativeState(rng.normal(size=2))
            gap0 = bnorm.value(s1.value - s2.value)
            for k, faces in enumerate(masks):
                s1 = derivative_step(cache, s1, psi[k], faces, t=float(k))
                s2 = derivative_step(cache, s2, psi[k], faces, t=float(k))
            gap1 = bnorm.value(s1.value - s2.value)
            assert gap1 <= delta0 * gap0 + 1e-12
