"""Estimators: batch means, stationary averages, sensitivities, FD."""

from __future__ import annotations

import numpy as np
import pytest

from rbmsens.errors import EstimationError, GeometryError
from rbmsens.estimators import (
    REPORT_CSV_HEADER,
    SensitivityReport,
    batch_means,
    fd_oracle,
    fd_report,
    finite_horizon_sensitivity,
    gradient_check,
    ipa_sensitivity,
    linear_functional,
    log1p_sum_functional,
    stationary_estimate,
    write_report_csv,
)
from rbmsens.geometry import perturbed_model
from rbmsens.sim import SimConfig, simulate_joint, simulate_rbm

from conftest import halfline_model, hr2d_model, orthant_model


class TestFunctionals:
    def test_linear_values_and_gradient(self):
        func = linear_functional([1.0, 2.0])
        assert func.f(np.array([1.0, 1.0])) == pytest.approx(3.0)
        np.testing.assert_allclose(func.f_prime(np.array([5.0, 5.0])),
                                   [1.0, 2.0])

    def test_linear_vectorized(self):
        func = linear_functional([1.0, 1.0])
        z = np.arange(10.0).reshape(5, 2)
        np.testing.assert_allclose(func.f(z), z.sum(axis=1))
        assert func.f_prime(z).shape == (5, 2)

    def test_log1p_gradient_consistent(self):
        assert gradient_check(log1p_sum_functional(), dim=3) <= 1e-5

    def test_linear_gradient_consistent(self):
        assert gradient_check(linear_functional([0.5, -2.0]), dim=2) <= 1e-5

    def test_gradient_check_flags_wrong_gradient(self):
        from rbmsens.estimators import Functional
        broken = Functional(name="broken",
                            f=lambda z: np.asarray(z).sum(axis=-1),
                            f_prime=lambda z: 2.0 * np.ones_like(np.asarray(z)))
        assert gradient_check(broken, dim=2) > 1e-2


class TestBatchMeans:
    def test_iid_standard_normal_scaling(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal(100_000)
        mean, stderr = batch_means(x)
        target = 1.0 / np.sqrt(100_000)
        assert mean == pytest.approx(0.0, abs=4.0 * target)
        assert target / 1.5 <= stderr <= target * 1.5

    def test_alternating_series_near_zero_error(self):
        # 2^17 points split 32 ways gives even batches, so every batch
        # mean of the +-1 series is exactly zero.
        x = np.tile([1.0, -1.0], 65_536)
        mean, stderr = batch_means(x)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert stderr <= 1e-12

    def test_alternating_series_beats_iid_bar(self):
        # odd batch length: means are +-1/m, still far below the bar
        # an iid assumption would give.
        x = np.tile([1.0, -1.0], 50_000)
        _, stderr = batch_means(x)
        assert stderr <= 0.1 / np.sqrt(100_000)

    def test_constant_series(self):
        mean, stderr = batch_means(np.full(1000, 2.5))
        assert mean == 2.5
        assert stderr == 0.0

    def test_too_short_series_raises(self):
        with pytest.raises(EstimationError, match="at least"):
            batch_means(np.zeros(63), n_batches=32)

    def test_front_trim_keeps_recent_data(self):
        # 65 points, 32 batches: the stalest point is dropped
        x = np.concatenate([[1000.0], np.zeros(64)])
        mean, _ = batch_means(x, n_batches=32)
        assert mean == 0.0


class TestStationaryEstimate:
    def test_constant_trajectory(self):
        model = halfline_model(drift=0.0, sigma=0.0)
        cfg = SimConfig(dt=0.01, horizon=2.0)
        traj = simulate_rbm(model, cfg, x0=[0.7])[0]
        mean, stderr = stationary_estimate(linear_functional([1.0]), traj)
        assert mean == pytest.approx(0.7)
        assert stderr == pytest.approx(0.0, abs=1e-14)

    def test_multi_path_uses_across_path_spread(self):
        model = halfline_model()
        cfg = SimConfig(dt=0.01, horizon=30.0, burn_in=3.0, seed=5, n_paths=4)
        trajs = simulate_rbm(model, cfg)
        mean, stderr = stationary_estimate(linear_functional([1.0]), trajs,
                                           burn_in=cfg.burn_in)
        assert 0.3 <= mean <= 0.7
        assert stderr > 0.0

    def test_burn_in_too_late_raises(self):
        model = halfline_model()
        cfg = SimConfig(dt=0.01, horizon=1.0)
        traj = simulate_rbm(model, cfg)[0]
        with pytest.raises(EstimationError, match="burn_in"):
            stationary_estimate(linear_functional([1.0]), traj, burn_in=2.0)


class TestIpaSensitivity:
    def test_zero_derivative_data_gives_exact_zero(self):
        model = hr2d_model(drift_deriv=(0.0, 0.0))
        cfg = SimConfig(dt=0.01, horizon=10.0, burn_in=1.0, seed=2)
        report = ipa_sensitivity(linear_functional([1.0, 1.0]),
                                 simulate_joint(model, cfg),
                                 burn_in=cfg.burn_in)
        assert report.estimate == 0.0
        assert report.stderr == 0.0
        assert report.method == "ipa"

    def test_plain_trajectory_rejected(self):
        model = halfline_model()
        cfg = SimConfig(dt=0.01, horizon=1.0)
        traj = simulate_rbm(model, cfg)[0]
        with pytest.raises(EstimationError, match="joint"):
            ipa_sensitivity(linear_functional([1.0]), traj)

    def test_halfline_drift_sensitivity_short_run(self):
        # d/db E[Z] = 1/(2 b^2) = 0.5 at b = -1; a short run should
        # land in a generous band around it.
        model = halfline_model(drift=-1.0, sigma=1.0, drift_deriv=1.0)
        cfg = SimConfig(dt=1e-3, horizon=300.0, burn_in=30.0, seed=7)
        report = ipa_sensitivity(linear_functional([1.0]),
                                 simulate_joint(model, cfg),
                                 burn_in=cfg.burn_in)
        assert report.estimate == pytest.approx(0.5, abs=0.12)
        assert report.stderr > 0.0

    def test_horizon_doubling_consistent(self):
        model = halfline_model(drift=-1.0, sigma=1.0, drift_deriv=1.0)
        func = linear_functional([1.0])
        reports = []
        for horizon in (60.0, 120.0):
            cfg = SimConfig(dt=2e-3, horizon=horizon, burn_in=10.0, seed=13)
            reports.append(ipa_sensitivity(func, simulate_joint(model, cfg),
                                           burn_in=10.0))
        gap = abs(reports[0].estimate - reports[1].estimate)
        combined = np.hypot(reports[0].stderr, reports[1].stderr)
        assert gap <= 3.0 * combined


class TestFiniteHorizon:
    def test_pre_hit_terminal_sensitivity_is_time(self):
        # noise free, interior start, b' = 1: before any boundary
        # visit J(t) = t exactly.
        model = halfline_model(drift=-0.1, sigma=0.0, drift_deriv=1.0)
        cfg = SimConfig(dt=0.1, horizon=2.0)
        traj = simulate_joint(model, cfg, x0=[5.0])[0]
        value = finite_horizon_sensitivity(None, linear_functional([1.0]),
                                           traj, t=2.0)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_running_component_integrates(self):
        model = halfline_model(drift=-0.1, sigma=0.0, drift_deriv=1.0)
        cfg = SimConfig(dt=0.01, horizon=1.0)
        traj = simulate_joint(model, cfg, x0=[5.0])[0]
        value = finite_horizon_sensitivity(linear_functional([1.0]), None,
                                           traj, t=1.0)
        # integral of s ds over [0, 1] = 0.5, trapezoid is exact here
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_time_outside_grid_rejected(self):
        model = halfline_model(drift_deriv=1.0)
        traj = simulate_joint(model, SimConfig(dt=0.1, horizon=1.0))[0]
        with pytest.raises(ValueError, match="grid"):
            finite_horizon_sensitivity(None, linear_functional([1.0]), traj,
                                       t=3.0)

    def test_time_between_decimated_points_rejected(self):
        model = halfline_model(drift_deriv=1.0)
        traj = simulate_joint(model, SimConfig(dt=0.1, horizon=2.0,
                                               decimate=5))[0]
        with pytest.raises(ValueError, match="grid"):
            finite_horizon_sensitivity(None, linear_functional([1.0]), traj,
                                       t=0.7)


class TestFdOracle:
    def test_bad_epsilon_rejected(self):
        model = halfline_model(drift_deriv=1.0)
        cfg = SimConfig(dt=0.01, horizon=5.0)
        with pytest.raises(EstimationError, match="epsilon"):
            fd_oracle(model, model, linear_functional([1.0]), cfg, 0.0)

    def test_halfline_matches_exact_slope(self):
        model = halfline_model(drift=-1.0, sigma=1.0, drift_deriv=1.0)
        plus = perturbed_model(model, 0.05)
        minus = perturbed_model(model, -0.05)
        cfg = SimConfig(dt=1e-3, horizon=200.0, burn_in=20.0, seed=3,
                        n_paths=4)
        report = fd_oracle(plus, minus, linear_functional([1.0]), cfg, 0.05)
        assert report.method == "fd-crn"
        assert report.fd_epsilon == 0.05
        assert report.estimate == pytest.approx(0.5, abs=max(0.1, 4 * report.stderr))

    def test_crn_beats_independent_streams(self):
        # Paired differences under shared streams must be far less
        # variable than under independent streams.
        model = halfline_model(drift=-1.0, sigma=1.0, drift_deriv=1.0)
        plus = perturbed_model(model, 0.05)
        minus = perturbed_model(model, -0.05)
        func = linear_functional([1.0])
        crn, indep = [], []
        for rep in range(50):
            cfg = SimConfig(dt=5e-3, horizon=20.0, burn_in=2.0, seed=1000 + rep)
            crn.append(fd_oracle(plus, minus, func, cfg, 0.05).estimate)
            mp = stationary_estimate(func, simulate_rbm(plus, cfg), 2.0)[0]
            cfg2 = SimConfig(dt=5e-3, horizon=20.0, burn_in=2.0,
                             seed=5000 + rep)
            mm = stationary_estimate(func, simulate_rbm(minus, cfg2), 2.0)[0]
            indep.append((mp - mm) / 0.1)
        var_crn = np.var(crn, ddof=1)
        var_indep = np.var(indep, ddof=1)
        # 50 reps give a loose but decisive separation (factor >> 1)
        assert var_indep > 3.0 * var_crn


    def test_one_pass_matches_separate_runs(self):
        model = hr2d_model()
        plus = perturbed_model(model, 0.05)
        minus = perturbed_model(model, -0.05)
        func = linear_functional([1.0, 1.0])
        cfg = SimConfig(dt=0.005, horizon=10.0, burn_in=1.0, seed=8,
                        n_paths=4)
        report = fd_oracle(plus, minus, func, cfg, 0.05)
        separate = fd_report(func, simulate_rbm(plus, cfg),
                             simulate_rbm(minus, cfg), cfg, 0.05)
        assert report.estimate == pytest.approx(separate.estimate, rel=1e-9)
        assert report.stderr == pytest.approx(separate.stderr, rel=1e-9)
        assert (report.method, report.fd_epsilon, report.n_paths) == (
            "fd-crn", 0.05, 4)

    def test_models_of_other_cones_rejected(self):
        cfg = SimConfig(dt=0.01, horizon=1.0)
        with pytest.raises(GeometryError):
            fd_oracle(orthant_model(2), orthant_model(3),
                      linear_functional([1.0, 1.0]), cfg, 0.05)


class TestFdReport:
    def test_paired_path_differences(self):
        func = linear_functional([1.0, 1.0])
        cfg = SimConfig(dt=0.01, horizon=5.0, burn_in=0.5, seed=2, n_paths=3)
        plus = simulate_rbm(orthant_model(2, drift=[-0.9, -1.0]), cfg)
        minus = simulate_rbm(orthant_model(2, drift=[-1.1, -1.0]), cfg)
        keep = plus[0].times > cfg.burn_in
        per_path = np.array([(func.f(p.z) - func.f(m.z))[keep].mean() / 0.2
                             for p, m in zip(plus, minus)])
        report = fd_report(func, plus, minus, cfg, 0.1)
        assert report.estimate == pytest.approx(per_path.mean(), rel=1e-12)
        assert report.stderr == pytest.approx(
            per_path.std(ddof=1) / np.sqrt(3), rel=1e-12)
        assert (report.horizon, report.burn_in, report.seed) == (5.0, 0.5, 2)


class TestReportCsv:
    def test_header_and_rows(self, tmp_path):
        report = SensitivityReport(estimate=0.5, stderr=0.01, n_paths=2,
                                   method="ipa", horizon=10.0, burn_in=1.0,
                                   dt=0.001, seed=7)
        out = tmp_path / "report.csv"
        write_report_csv(str(out), [report])
        lines = out.read_text().splitlines()
        assert lines[0] == REPORT_CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "ipa"
        assert float(fields[1]) == 0.5
        assert fields[7] == ""  # no epsilon for pathwise rows
        assert fields[8] == "7"
