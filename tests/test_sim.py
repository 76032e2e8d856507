"""Simulator: determinism, domain and constraint invariants, coupling."""

from __future__ import annotations

import io

import numpy as np
import pytest

from rbmsens import sim
from rbmsens.derivative import (
    DerivativeState,
    OperatorCache,
    derivative_step,
    estimate_delta0,
    psi_increment,
    subspace_gap,
)
from rbmsens.config import builtin_scenario
from rbmsens.errors import DomainError, GeometryError
from rbmsens.geometry import (ConeModel, build_b_norm, face_mask, face_set,
                              perturbed_model, validate_cone)
from rbmsens.sim import (
    JointTrajectory,
    RngContract,
    SimConfig,
    brownian_increments,
    simulate_joint,
    simulate_joint_pair,
    simulate_rbm,
    simulate_variants,
    visit_all_faces_time,
    write_trajectory_csv,
)
from rbmsens.skorokhod import sp_step

from conftest import halfline_model, hr2d_model, orthant_model, random_cone_model


def _joint_arrays(traj):
    return (traj.z, traj.ell, traj.jac, traj.face_log, traj.tau_all_faces)


class TestRngContract:
    def test_same_pair_is_bit_identical(self):
        a = RngContract(42, 3).generator().standard_normal(100)
        b = RngContract(42, 3).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngContract(42, 0).generator().standard_normal(10)
        b = RngContract(42, 1).generator().standard_normal(10)
        assert not np.array_equal(a, b)

    def test_chunked_draws_concatenate_exactly(self):
        whole = brownian_increments(RngContract(7, 0), 1000, 0.01, 2)
        gen = RngContract(7, 0).generator()
        parts = [brownian_increments(gen, n, 0.01, 2) for n in (100, 400, 500)]
        np.testing.assert_array_equal(whole, np.concatenate(parts))

    def test_moments_match_scaling(self):
        dw = brownian_increments(RngContract(0, 0), 1_000_000, 0.25, 1)
        assert abs(dw.mean()) <= 3.0 * 0.5 / 1000.0
        assert dw.var() == pytest.approx(0.25, rel=5e-3)


class TestSimConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, horizon=1.0)

    def test_rejects_burn_in_past_horizon(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.1, horizon=1.0, burn_in=1.0)

    def test_rejects_decimated_driver(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.1, horizon=1.0, decimate=2, store_driver=True)


class TestSimulateRbm:
    def test_deterministic_bit_identical(self):
        model = hr2d_model()
        cfg = SimConfig(dt=0.01, horizon=5.0, seed=11, n_paths=2)
        first = simulate_rbm(model, cfg)
        second = simulate_rbm(model, cfg)
        for t1, t2 in zip(first, second):
            np.testing.assert_array_equal(t1.z, t2.z)
            np.testing.assert_array_equal(t1.ell, t2.ell)
            np.testing.assert_array_equal(t1.face_log, t2.face_log)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        model = hr2d_model()
        cfg = SimConfig(dt=0.01, horizon=5.0, seed=11, n_paths=3, decimate=3)
        default = simulate_joint(model, cfg)
        monkeypatch.setattr(sim, "CHUNK_STEPS", 7)
        chunked = simulate_joint(model, cfg)
        for a, b in zip(default, chunked):
            for x, y in zip(_joint_arrays(a), _joint_arrays(b)):
                np.testing.assert_array_equal(x, y)

    def test_path_count_changes_path_zero_at_rounding_level_only(self):
        model = hr2d_model()
        one, eight = (
            simulate_joint(model, SimConfig(dt=5e-4, horizon=2.0,
                                            seed=20260824, n_paths=n))[0]
            for n in (1, 8))
        for x, y in zip(_joint_arrays(one)[:3], _joint_arrays(eight)[:3]):
            np.testing.assert_allclose(x, y, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(one.face_log, eight.face_log)
        np.testing.assert_array_equal(one.tau_all_faces, eight.tau_all_faces)

    def test_noise_free_decay_and_absorption(self):
        model = halfline_model(drift=-1.0, sigma=0.0)
        cfg = SimConfig(dt=0.01, horizon=2.0)
        traj = simulate_rbm(model, cfg, x0=[1.0])[0]
        expected = np.maximum(1.0 - traj.times, 0.0)
        np.testing.assert_allclose(traj.z[:, 0], expected, atol=1e-12)
        # after absorption the state stays at the apex and pushing grows
        assert traj.z[-1, 0] == pytest.approx(0.0, abs=1e-12)
        assert traj.ell[-1, 0] == pytest.approx(1.0, abs=1e-10)

    def test_zero_drift_zero_noise_constant(self):
        model = halfline_model(drift=0.0, sigma=0.0)
        cfg = SimConfig(dt=0.1, horizon=1.0)
        traj = simulate_rbm(model, cfg, x0=[0.7])[0]
        np.testing.assert_array_equal(traj.z[:, 0], np.full(11, 0.7))
        np.testing.assert_array_equal(traj.ell[:, 0], np.zeros(11))

    def test_stays_in_cone(self, rng):
        for _ in range(5):
            model = random_cone_model(rng)
            cfg = SimConfig(dt=0.01, horizon=3.0, seed=int(rng.integers(1e6)),
                            n_paths=2)
            for traj in simulate_rbm(model, cfg):
                heights = traj.z @ model.normals
                assert heights.min() >= -1e-9 * (1.0 + np.abs(traj.z).max())

    def test_local_time_nondecreasing(self, rng):
        model = hr2d_model()
        cfg = SimConfig(dt=0.01, horizon=5.0, seed=3)
        traj = simulate_rbm(model, cfg)[0]
        assert np.diff(traj.ell, axis=0).min() >= -1e-14

    def test_x0_outside_raises(self):
        with pytest.raises(DomainError):
            simulate_rbm(halfline_model(), SimConfig(dt=0.1, horizon=1.0),
                         x0=[-0.5])

    def test_matches_stepwise_solver_replay(self):
        # The batched engine and the public single-step solver must
        # agree along the same driver, and each step's face mask is the
        # set of faces that step pushed on.
        model = hr2d_model()
        cfg = SimConfig(dt=0.05, horizon=2.0, seed=9, store_driver=True)
        traj = simulate_rbm(model, cfg)[0]
        state = np.zeros(2)
        for idx in range(1, traj.times.shape[0]):
            df = model.drift * cfg.dt + model.dispersion @ traj.driver[idx]
            state, push = sp_step(model, state, df)
            np.testing.assert_allclose(state, traj.z[idx], atol=1e-12)
            assert traj.face_log[idx] == face_mask(np.flatnonzero(push) + 1)

    def test_decimation_thins_grid_only(self):
        model = halfline_model()
        fine = simulate_rbm(model, SimConfig(dt=0.01, horizon=1.0, seed=5))[0]
        coarse = simulate_rbm(model, SimConfig(dt=0.01, horizon=1.0, seed=5,
                                               decimate=10))[0]
        np.testing.assert_array_equal(coarse.times, fine.times[::10])
        np.testing.assert_array_equal(coarse.z, fine.z[::10])

    def test_halfline_time_average_near_half(self):
        model = halfline_model(drift=-1.0, sigma=1.0)
        cfg = SimConfig(dt=1e-3, horizon=400.0, burn_in=40.0, seed=2)
        traj = simulate_rbm(model, cfg)[0]
        keep = traj.times > cfg.burn_in
        mean = traj.z[keep, 0].mean()
        # crude band: stationary mean is 0.5, discretization biases up
        assert 0.42 <= mean <= 0.60


class TestSimulateJoint:
    def test_zero_derivatives_keep_derivative_zero(self):
        model = hr2d_model(drift_deriv=(0.0, 0.0))
        cfg = SimConfig(dt=0.01, horizon=3.0, seed=1)
        traj = simulate_joint(model, cfg)[0]
        assert np.abs(traj.jac).max() == 0.0

    def test_halfline_derivative_is_time_since_last_hit(self):
        # With b' = 1 the derivative grows like t and resets to zero
        # at every boundary visit, so J = t - (last hit time).
        model = halfline_model(drift=-1.0, sigma=1.0, drift_deriv=1.0)
        cfg = SimConfig(dt=0.01, horizon=20.0, seed=4)
        traj = simulate_joint(model, cfg)[0]
        last_hit = np.nan
        for idx in range(traj.times.shape[0]):
            if traj.face_log[idx] & 1:
                last_hit = traj.times[idx]
            if np.isnan(last_hit):
                continue
            expected = traj.times[idx] - last_hit
            assert traj.jac[idx, 0] == pytest.approx(expected, abs=1e-9)

    def test_orthant_second_coordinate_dies_after_own_face(self):
        model = orthant_model(2, drift=[-1.0, -1.0], drift_deriv=[1.0, 0.0])
        cfg = SimConfig(dt=0.01, horizon=10.0, seed=8)
        traj = simulate_joint(model, cfg)[0]
        hit2 = np.flatnonzero(traj.face_log & 2)
        first = hit2[hit2 > 0][0]
        np.testing.assert_allclose(traj.jac[first:, 1], 0.0, atol=1e-12)

    def test_derivative_respects_active_constraints(self, rng):
        for _ in range(5):
            model = random_cone_model(rng, with_derivs=True)
            cfg = SimConfig(dt=0.01, horizon=3.0, seed=int(rng.integers(1e6)))
            traj = simulate_joint(model, cfg)[0]
            for idx in range(traj.times.shape[0]):
                mask = int(traj.face_log[idx])
                if mask == 0:
                    continue
                cols = sorted(i - 1 for i in face_set(mask))
                gap = np.abs(model.normals[:, cols].T @ traj.jac[idx]).max()
                assert gap <= 1e-8

    def test_j0_violating_constraints_raises(self):
        model = halfline_model()
        with pytest.raises(DomainError, match="initial derivative"):
            simulate_joint(model, SimConfig(dt=0.1, horizon=1.0), x0=[0.0],
                           j0=[1.0])

    def test_matches_single_step_recursion_replay(self, rng):
        models = [hr2d_model(drift_deriv=(1.0, 0.5))]
        models += [random_cone_model(rng, with_derivs=True) for _ in range(3)]
        for model in models:
            cfg = SimConfig(dt=0.05, horizon=2.0, seed=12, store_driver=True)
            traj = simulate_joint(model, cfg)[0]
            cache = OperatorCache(model)
            state = DerivativeState(np.zeros(model.dim))
            for idx in range(1, traj.times.shape[0]):
                ell_inc = traj.ell[idx] - traj.ell[idx - 1]
                dpsi = psi_increment(model, cfg.dt, traj.driver[idx], ell_inc)
                state = derivative_step(cache, state, dpsi,
                                        int(traj.face_log[idx]),
                                        t=float(traj.times[idx]))
                np.testing.assert_allclose(state.value, traj.jac[idx],
                                           atol=1e-9)

    def test_csv_roundtrip_shape(self, tmp_path):
        model = hr2d_model()
        cfg = SimConfig(dt=0.1, horizon=1.0, seed=0)
        traj = simulate_joint(model, cfg)[0]
        out = tmp_path / "traj.csv"
        write_trajectory_csv(str(out), traj)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "t,Z_1,Z_2,J_1,J_2,L_1,L_2,faces"
        assert len(lines) == 2 + traj.times.shape[0]

    @pytest.mark.parametrize("joint", [False, True])
    @pytest.mark.parametrize("to_path", [False, True])
    def test_csv_body_matches_per_value_formatting(self, tmp_path, joint,
                                                   to_path):
        model = hr2d_model()
        cfg = SimConfig(dt=0.01, horizon=2.0, seed=5)
        run = simulate_joint if joint else simulate_rbm
        traj = run(model, cfg)[0]
        if to_path:
            out = tmp_path / "traj.csv"
            write_trajectory_csv(str(out), traj)
            text = out.read_text()
        else:
            stream = io.StringIO()
            write_trajectory_csv(stream, traj)
            text = stream.getvalue()
        blocks = [traj.z, traj.jac, traj.ell] if joint else [traj.z, traj.ell]
        expected = []
        for idx in range(traj.times.shape[0]):
            row = [f"{traj.times[idx]:.17g}"]
            for block in blocks:
                row += [f"{val:.17g}" for val in block[idx]]
            row.append(str(int(traj.face_log[idx])))
            expected.append(",".join(row) + "\n")
        assert text.splitlines(keepends=True)[2:] == expected

    def test_csv_bodies_byte_identical(self, tmp_path):
        model = hr2d_model()
        cfg = SimConfig(dt=0.1, horizon=1.0, seed=0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(str(a), simulate_joint(model, cfg)[0])
        write_trajectory_csv(str(b), simulate_joint(model, cfg)[0])
        assert a.read_bytes() == b.read_bytes()


class TestFaceVisits:
    def test_hr2d_completion_times_recorded(self):
        model = hr2d_model()
        cfg = SimConfig(dt=0.005, horizon=50.0, seed=6)
        traj = simulate_rbm(model, cfg)[0]
        tau = visit_all_faces_time(traj)
        assert tau is not None
        assert 0.0 < tau < 50.0
        assert np.diff(traj.tau_all_faces).min() > 0.0

    def test_never_completing_when_drift_pins_one_side(self):
        # strong inward drift on coordinate 2 keeps face 2 unvisited
        model = orthant_model(2, drift=[-1.0, 5.0])
        cfg = SimConfig(dt=0.01, horizon=5.0, seed=1)
        traj = simulate_rbm(model, cfg, x0=[0.0, 5.0])[0]
        assert visit_all_faces_time(traj) is None

    def test_initial_active_set_does_not_count(self):
        # from the apex with noise-free outward-free drift the union
        # only completes once post-step states touch the faces again
        model = halfline_model(drift=-1.0, sigma=0.0)
        cfg = SimConfig(dt=0.1, horizon=1.0)
        traj = simulate_rbm(model, cfg, x0=[0.5])[0]
        assert traj.face_log[0] == 0
        tau = visit_all_faces_time(traj)
        assert tau == pytest.approx(0.5, abs=0.1 + 1e-12)


class TestCouplingDecay:
    def test_gap_bounded_by_probe_rate(self):
        # Two recursions on one path differ by projection products;
        # after m completed face-visit cycles the contraction norm of
        # the gap is within delta0^m of the initial gap.
        model = hr2d_model()
        bnorm = build_b_norm(model)
        delta0 = estimate_delta0(model, n_sequences=100)
        g0 = np.array([0.4, -0.2])
        for seed in range(20):
            cfg = SimConfig(dt=0.01, horizon=30.0, seed=seed)
            pair = simulate_joint_pair(model, cfg, x0=[1.0, 1.0],
                                       j0_a=np.zeros(2), j0_b=g0)[0]
            traj_a, traj_b = pair
            gap0 = bnorm.value(g0)
            for idx in range(traj_a.times.shape[0]):
                t = traj_a.times[idx]
                cycles = int(np.searchsorted(traj_a.tau_all_faces, t,
                                             side="right"))
                gap = bnorm.value(traj_a.jac[idx] - traj_b.jac[idx])
                assert gap <= delta0 ** cycles * gap0 + 1e-8

    def test_shared_path_identical_z(self):
        model = hr2d_model()
        cfg = SimConfig(dt=0.01, horizon=5.0, seed=3)
        traj_a, traj_b = simulate_joint_pair(model, cfg, j0_a=None,
                                             j0_b=None)[0]
        np.testing.assert_array_equal(traj_a.z, traj_b.z)
        np.testing.assert_array_equal(traj_a.jac, traj_b.jac)


def _fd_variants(model, eps=0.05):
    """The model followed by its shifts +eps, -eps, +eps/2, -eps/2."""
    return [model] + [perturbed_model(model, a)
                      for a in (eps, -eps, eps / 2, -eps / 2)]


#: Variant families: a drift derivative (hr2d), per-variant R and Q
#: (hr2d_refl), and a 3-D oblique cone whose derivative moves the
#: drift, the dispersion and the reflections.  Seed 11 is one whose
#: shifted normals differ from the base normals in the last bit.
VARIANT_MODELS = {
    "hr2d": hr2d_model,
    "hr2d_refl": lambda: builtin_scenario("hr2d_refl").model,
    "random3d": lambda: random_cone_model(np.random.default_rng(11), dim=3,
                                          with_derivs=True),
}


class TestSimulateVariants:
    @pytest.mark.parametrize("name", sorted(VARIANT_MODELS))
    def test_each_variant_matches_its_single_model_run(self, name):
        models = _fd_variants(VARIANT_MODELS[name]())
        assert all(validate_cone(m).accepted for m in models)
        cfg = SimConfig(dt=0.01, horizon=5.0, seed=4, n_paths=3)
        runs = simulate_variants(models, cfg, joint=True)
        assert len(runs) == len(models)
        for v, (model, trajs) in enumerate(zip(models, runs)):
            alone = (simulate_joint(model, cfg) if v == 0
                     else simulate_rbm(model, cfg))
            for got, want in zip(trajs, alone, strict=True):
                assert isinstance(got, JointTrajectory) == (v == 0)
                pairs = [(got.z, want.z), (got.ell, want.ell)]
                if v == 0:
                    pairs.append((got.jac, want.jac))
                for x, y in pairs:
                    np.testing.assert_array_equal(x, y)
                np.testing.assert_array_equal(got.face_log, want.face_log)
                np.testing.assert_array_equal(got.tau_all_faces,
                                              want.tau_all_faces)
        # the shifts really move the paths, so the comparison is not vacuous
        assert np.abs(runs[1][0].z - runs[2][0].z).max() > 1e-6

    def test_single_variant_is_bit_identical_to_simulate_joint(self):
        model = hr2d_model()
        cfg = SimConfig(dt=0.01, horizon=5.0, seed=11, n_paths=3)
        [stacked] = simulate_variants([model], cfg, joint=True)
        for a, b in zip(stacked, simulate_joint(model, cfg), strict=True):
            for x, y in zip(_joint_arrays(a), _joint_arrays(b)):
                np.testing.assert_array_equal(x, y)

    def test_variants_share_increments_and_driver(self):
        model = hr2d_model()
        cfg = SimConfig(dt=0.01, horizon=2.0, seed=2, n_paths=2,
                        store_driver=True)
        base, shifted = simulate_variants([model, perturbed_model(model, 0.1)],
                                          cfg)
        for a, b in zip(base, shifted):
            np.testing.assert_array_equal(a.driver, b.driver)
            assert (a.seed, a.stream) == (b.seed, b.stream)

    def test_other_cones_rejected_before_any_draw(self, monkeypatch):
        def no_draw(self):
            raise AssertionError("increments drawn before the cone check")

        monkeypatch.setattr(RngContract, "generator", no_draw)
        cfg = SimConfig(dt=0.01, horizon=1.0)
        tilted = ConeModel(normals=[[1.0, 0.2], [0.0, 1.0]],
                           reflections=np.identity(2), drift=[-1.0, -1.0],
                           dispersion=np.identity(2))
        with pytest.raises(GeometryError, match="normals"):
            simulate_variants([orthant_model(2), tilted], cfg)
        with pytest.raises(GeometryError, match="dimension"):
            simulate_variants([orthant_model(2), orthant_model(3)], cfg)

    def test_no_variants_no_run(self):
        assert simulate_variants([], SimConfig(dt=0.01, horizon=1.0)) == []
