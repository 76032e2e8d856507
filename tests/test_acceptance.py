"""End-to-end acceptance checks.

Each test prints one ``criterion NN PASS/FAIL`` line with the measured
numbers, then asserts.  The expensive scenario runs are shared through
module-scoped fixtures so a full pass stays within a few minutes.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from rbmsens import (
    BUILTIN_SCENARIOS,
    ConeModel,
    DerivativeState,
    DiscretePath,
    OperatorCache,
    SimConfig,
    build_b_norm,
    builtin_scenario,
    derivative_projection,
    derivative_step,
    estimate_delta0,
    fd_oracle,
    ipa_sensitivity,
    lyapunov_m,
    perturbed_model,
    simulate_joint,
    simulate_joint_pair,
    simulate_rbm,
    sp_1d_oracle,
    sp_solve_path,
    stationary_estimate,
)


def _line(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    text = f"criterion {num:02d} {verdict} {name}: {detail}"
    print(text)
    assert ok, text


@pytest.fixture(scope="module")
def halfline_run():
    sc = builtin_scenario("halfline")
    start = time.perf_counter()
    trajs = simulate_joint(sc.model, sc.sim, x0=sc.x0, j0=sc.j0)
    return sc, trajs, time.perf_counter() - start


@pytest.fixture(scope="module")
def ortho2d_run():
    sc = builtin_scenario("ortho2d")
    start = time.perf_counter()
    trajs = simulate_joint(sc.model, sc.sim, x0=sc.x0, j0=sc.j0)
    return sc, trajs, time.perf_counter() - start


@pytest.fixture(scope="module")
def hr2d_run():
    sc = builtin_scenario("hr2d")
    start = time.perf_counter()
    trajs = simulate_joint(sc.model, sc.sim, x0=sc.x0, j0=sc.j0)
    return sc, trajs, time.perf_counter() - start


def test_criterion_01_one_dim_stationary_mean(halfline_run):
    sc, trajs, elapsed = halfline_run
    est, se = stationary_estimate(sc.functional(), trajs,
                                  burn_in=sc.sim.burn_in)
    ok = abs(est - 0.5) <= 3.0 * se and elapsed < 120.0
    _line(1, "one-dim stationary mean", ok,
          f"est={est:.4f} target=0.5 3se={3 * se:.4f} sim={elapsed:.0f}s")


def test_criterion_02_one_dim_drift_sensitivity(halfline_run):
    sc, trajs, _ = halfline_run
    f = sc.functional()
    ipa = ipa_sensitivity(f, trajs, burn_in=sc.sim.burn_in)
    tol = max(3.0 * ipa.stderr, 0.05 * 0.5)
    eps = sc.fd_epsilon
    fd = fd_oracle(perturbed_model(sc.model, eps),
                   perturbed_model(sc.model, -eps), f, sc.sim, eps)
    gap = abs(ipa.estimate - fd.estimate)
    bar = 3.0 * float(np.hypot(ipa.stderr, fd.stderr))
    ok = abs(ipa.estimate - 0.5) <= tol and gap <= bar
    _line(2, "one-dim drift sensitivity", ok,
          f"ipa={ipa.estimate:.4f} target=0.5 tol={tol:.4f} "
          f"fd={fd.estimate:.4f} |ipa-fd|={gap:.4f} bar={bar:.4f}")


def test_criterion_03_product_form_components(ortho2d_run):
    sc, trajs, elapsed = ortho2d_run
    f = sc.functional()
    est, se = stationary_estimate(f, trajs, burn_in=sc.sim.burn_in)
    ipa = ipa_sensitivity(f, trajs, burn_in=sc.sim.burn_in)
    tol = max(3.0 * ipa.stderr, 0.05 * 0.5)
    ok = (abs(est - 1.0) <= 3.0 * se
          and abs(ipa.estimate - 0.5) <= tol
          and elapsed < 300.0)
    _line(3, "independent-component cross-check", ok,
          f"mean={est:.4f} 3se={3 * se:.4f} ipa={ipa.estimate:.4f} "
          f"tol={tol:.4f} sim={elapsed:.0f}s")


def test_criterion_04_oblique_estimator_agreement(hr2d_run):
    sc, trajs, _ = hr2d_run
    f = sc.functional()
    ipa = ipa_sensitivity(f, trajs, burn_in=sc.sim.burn_in)
    eps = sc.fd_epsilon
    fd = fd_oracle(perturbed_model(sc.model, eps),
                   perturbed_model(sc.model, -eps), f, sc.sim, eps)
    gap = abs(ipa.estimate - fd.estimate)
    bar = 3.0 * float(np.hypot(ipa.stderr, fd.stderr)) + 0.01
    _line(4, "oblique-reflection estimator agreement", gap <= bar,
          f"ipa={ipa.estimate:.4f} fd={fd.estimate:.4f} "
          f"|ipa-fd|={gap:.4f} bar={bar:.4f}")


def test_criterion_05_step_solver_matches_running_max():
    model = ConeModel(normals=[[1.0]], reflections=[[1.0]], drift=[-1.0],
                      dispersion=[[1.0]])
    rng = np.random.default_rng(20260826)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(100):
        n = 10_000
        times = np.linspace(0.0, 10.0, n + 1)
        steps = -0.002 + 0.05 * rng.standard_normal(n)
        values = rng.uniform(0.0, 1.0) + np.concatenate(
            [[0.0], np.cumsum(steps)])
        driver = DiscretePath(times=times, values=values)
        solved = sp_solve_path(model, driver).constrained.values[:, 0]
        oracle = sp_1d_oracle(driver).values[:, 0]
        worst = max(worst, float(np.max(np.abs(solved - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _line(5, "step solver vs running-max formula", ok,
          f"max|diff|={worst:.2e} runtime={elapsed:.1f}s")


def test_criterion_06_projection_algebra_all_scenarios():
    worst = {"idem": 0.0, "image": 0.0, "span": 0.0, "bnorm": 0.0}
    for name in sorted(BUILTIN_SCENARIOS):
        model = builtin_scenario(name).model
        bnorm = build_b_norm(model)
        dim = model.dim
        for r in range(1, dim + 1):
            for faces in itertools.combinations(range(1, dim + 1), r):
                mat = derivative_projection(model, faces)
                worst["idem"] = max(worst["idem"],
                                    float(np.max(np.abs(mat @ mat - mat))))
                normals_t = np.stack([model.normals[:, i - 1]
                                      for i in faces])
                worst["image"] = max(worst["image"],
                                     float(np.max(np.abs(normals_t @ mat))))
                cols = np.stack([model.reflections[:, i - 1] for i in faces],
                                axis=1)
                _, res, *_ = np.linalg.lstsq(cols, mat - np.identity(dim),
                                             rcond=None)
                span_err = float(np.sqrt(np.sum(res))) if res.size else 0.0
                worst["span"] = max(worst["span"], span_err)
                worst["bnorm"] = max(worst["bnorm"],
                                     bnorm.operator_norm(mat) - 1.0)
    ok = (worst["idem"] <= 1e-10 and worst["image"] <= 1e-10
          and worst["span"] <= 1e-10 and worst["bnorm"] <= 1e-10)
    _line(6, "projection algebra on registered scenarios", ok,
          f"idem={worst['idem']:.1e} image={worst['image']:.1e} "
          f"span={worst['span']:.1e} bnorm-1={worst['bnorm']:.1e}")


def test_criterion_07_covering_products_contract():
    worst_orthant = 0.0
    rng = np.random.default_rng(20260827)
    for dim in (1, 2, 3, 4):
        model = ConeModel(normals=np.identity(dim),
                          reflections=np.identity(dim),
                          drift=-np.ones(dim), dispersion=np.identity(dim))
        cache = OperatorCache(model)
        sequences = [[frozenset({i}) for i in perm]
                     for perm in itertools.permutations(range(1, dim + 1))]
        for _ in range(20):
            extra = [frozenset(np.flatnonzero(
                rng.random(dim) < 0.6) + 1) or frozenset({1})
                for _ in range(rng.integers(dim, 2 * dim + 1))]
            while not frozenset().union(*extra) == frozenset(
                    range(1, dim + 1)):
                extra.append(frozenset({int(rng.integers(1, dim + 1))}))
            sequences.append(extra)
        for seq in sequences:
            product = np.identity(dim)
            for faces in seq:
                product = cache.get(faces) @ product
            worst_orthant = max(worst_orthant,
                                float(np.max(np.abs(product))))
    delta0 = {name: estimate_delta0(builtin_scenario(name).model)
              for name in sorted(BUILTIN_SCENARIOS)}
    worst_delta = max(delta0.values())
    ok = worst_orthant <= 1e-12 and worst_delta < 1.0 - 1e-6
    shown = " ".join(f"{k}={v:.3f}" for k, v in delta0.items())
    _line(7, "covering products contract", ok,
          f"orthant-product={worst_orthant:.1e} {shown}")


def test_criterion_08_coupled_derivative_decay():
    sc = builtin_scenario("hr2d")
    model = sc.model
    bnorm = build_b_norm(model)
    delta0 = estimate_delta0(model)
    j0_a = np.array([0.7, -0.4])
    j0_b = np.array([-0.2, 0.3])
    g0 = bnorm.value(j0_a - j0_b)
    worst_excess = -np.inf
    checks = 0
    for seed in range(20):
        cfg = SimConfig(dt=1e-3, horizon=30.0, seed=seed, n_paths=1,
                        decimate=10)
        (pair,) = simulate_joint_pair(model, cfg, x0=[0.5, 0.5],
                                      j0_a=j0_a, j0_b=j0_b)
        a, b = pair
        tau = np.asarray(a.tau_all_faces)
        gaps = bnorm.value(a.jac - b.jac)
        cycles = np.searchsorted(tau, a.times, side="right")
        bound = delta0 ** cycles * g0 + 1e-8
        worst_excess = max(worst_excess, float(np.max(gaps - bound)))
        checks += len(gaps)
    _line(8, "coupled derivative decay", worst_excess <= 0.0,
          f"max(gap-bound)={worst_excess:.2e} over {checks} "
          f"checkpoints, delta0={delta0:.2f}")


def test_criterion_09_fluid_clearing_time():
    sc = builtin_scenario("halfline")
    model = sc.model
    dt = 1e-3
    value = lyapunov_m(model, [2.0], dt=dt)
    value_ok = abs(value - 2.0) <= dt + 1e-12

    cfg = SimConfig(dt=dt, horizon=50.0, seed=20260828, n_paths=10,
                    store_driver=True)
    trajs = simulate_rbm(model, cfg, x0=[0.5])
    spacing = 2.5
    stride = round(spacing / dt)
    fitted = 0.0
    samples = 0
    for traj in trajs:
        z = traj.z[:, 0]
        w = np.concatenate([[0.0], np.cumsum(traj.driver[1:, 0])])
        marks = np.arange(0, len(z), stride)
        for i0, i1 in zip(marks[:-1], marks[1:]):
            base = max(z[i0] - spacing, 0.0)
            sup = float(np.max(np.abs(w[i0 + 1:i1 + 1] - w[i0])))
            need = z[i1] - base
            if need > 0.0:
                fitted = max(fitted, need / sup)
            samples += 1
    decay_ok = fitted <= 2.0 + 1e-9
    ok = value_ok and decay_ok
    _line(9, "fluid clearing time", ok,
          f"M(2)={value:.4f} tol={dt:.0e} fitted-C={fitted:.3f} "
          f"analytic-C=2 steps={samples}")


def test_criterion_10_face_visit_recurrence():
    sc = builtin_scenario("hr2d")
    means = []
    for seed in (11, 12):
        cfg = SimConfig(dt=2e-3, horizon=100.0, seed=seed, n_paths=200,
                        decimate=100)
        trajs = simulate_rbm(sc.model, cfg, x0=[0.5, 0.5])
        first = [traj.tau_all_faces[0] if len(traj.tau_all_faces) else np.inf
                 for traj in trajs]
        visited = sum(t < 100.0 for t in first)
        gaps = np.concatenate([np.diff(traj.tau_all_faces)
                               for traj in trajs
                               if len(traj.tau_all_faces) >= 2])
        means.append(float(np.mean(gaps)))
        if visited < len(trajs):
            _line(10, "face-visit recurrence", False,
                  f"seed {seed}: only {visited}/200 paths completed a cycle")
    ratio = means[0] / means[1]
    ok = 0.5 <= ratio <= 2.0
    _line(10, "face-visit recurrence", ok,
          f"200/200 paths per seed, mean gaps "
          f"{means[0]:.3f}/{means[1]:.3f} ratio={ratio:.2f}")


def test_criterion_11_derivative_recursion_additivity():
    sc = builtin_scenario("hr2d")
    cache = OperatorCache(sc.model)
    rng = np.random.default_rng(20260829)
    worst = 0.0
    for _ in range(50):
        n = 40
        masks = rng.integers(0, 4, size=n)
        psi_a = 0.3 * rng.standard_normal((n, 2))
        psi_b = 0.3 * rng.standard_normal((n, 2))
        states = [DerivativeState(np.zeros(2)) for _ in range(3)]
        streams = [psi_a, psi_b, psi_a + psi_b]
        for k in range(n):
            for idx in range(3):
                states[idx] = derivative_step(cache, states[idx],
                                              streams[idx][k], int(masks[k]))
        worst = max(worst, float(np.max(np.abs(
            states[0].value + states[1].value - states[2].value))))
    _line(11, "derivative recursion additivity", worst <= 1e-9,
          f"max|J(a)+J(b)-J(a+b)|={worst:.2e} over 50 pairs")
