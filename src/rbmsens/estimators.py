"""Stationary means, pathwise sensitivities, and their error bars.

The stationary sensitivity of E[f(Z(infinity))] with respect to the
model parameter is estimated by the time average of f'(Z(t)) . J(t)
over a long trajectory of the joint simulation: between boundary
visits J carries the free sensitivity, and the projections encode how
the reflection mechanism absorbs perturbations.  The same quantity can
be checked against a central finite difference run under common random
numbers, which is slower and biased in epsilon but needs no derivative
process.

Error bars come from batch means on a single path (asymptotically
valid for mixing processes) or from the spread across independent
paths when several are available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .geometry import ConeModel
from .sim import (JointTrajectory, SimConfig, Trajectory, open_text_target,
                  simulate_variants)
from .sim import simulate_rbm  # noqa: F401  (bench/spans.py wraps this name)

__all__ = [
    "Functional",
    "SensitivityReport",
    "linear_functional",
    "log1p_sum_functional",
    "gradient_check",
    "batch_means",
    "stationary_estimate",
    "ipa_sensitivity",
    "finite_horizon_sensitivity",
    "fd_oracle",
    "fd_report",
    "REPORT_CSV_HEADER",
    "write_report_csv",
]

REPORT_CSV_HEADER = "method,estimate,stderr,n_paths,dt,horizon,burn_in,fd_epsilon,seed"

#: Default number of batches for single-path error bars.
DEFAULT_BATCHES = 32

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True, eq=False)
class Functional:
    """Scalar functional of the state with its gradient.

    ``f`` maps (..., J) arrays to (...) values; ``f_prime`` maps
    (..., J) to (..., J) gradients.  Both must be vectorized over
    leading axes.
    """

    name: str
    f: callable
    f_prime: callable


def linear_functional(coefficients) -> Functional:
    """f(z) = <c, z>; the workhorse for per-coordinate means."""
    c = np.array(coefficients, dtype=float)
    c.setflags(write=False)

    def f(z):
        return np.asarray(z, dtype=float) @ c

    def f_prime(z):
        z = np.asarray(z, dtype=float)
        return np.broadcast_to(c, z.shape).copy()

    label = ",".join(f"{x:g}" for x in c)
    return Functional(name=f"linear[{label}]", f=f, f_prime=f_prime)


def log1p_sum_functional() -> Functional:
    """f(z) = sum_i log(1 + z_i), a smooth concave test functional."""

    def f(z):
        return np.log1p(np.asarray(z, dtype=float)).sum(axis=-1)

    def f_prime(z):
        return 1.0 / (1.0 + np.asarray(z, dtype=float))

    return Functional(name="log1p_sum", f=f, f_prime=f_prime)


def gradient_check(functional: Functional, dim: int, n_points: int = 100,
                   seed: int = 0) -> float:
    """Largest relative error of f_prime against central differences.

    Evaluates at ``n_points`` random interior points with coordinate
    step 1e-5 * (1 + |x|); a correct gradient comes back around 1e-10
    to 1e-6 depending on curvature.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        x = np.abs(rng.normal(size=dim)) + 0.05
        step = 1e-5 * (1.0 + float(np.linalg.norm(x)))
        grad = np.asarray(functional.f_prime(x), dtype=float)
        for j in range(dim):
            plus = x.copy()
            minus = x.copy()
            plus[j] += step
            minus[j] -= step
            fd = (functional.f(plus) - functional.f(minus)) / (2.0 * step)
            scale = max(abs(fd), abs(grad[j]), 1e-8)
            worst = max(worst, abs(grad[j] - fd) / scale)
    return worst


@dataclass(frozen=True)
class SensitivityReport:
    """One estimate with its provenance, ready for the report CSV."""

    estimate: float
    stderr: float
    n_paths: int
    method: str
    horizon: float
    burn_in: float
    dt: float
    seed: int
    fd_epsilon: float | None = None

    def csv_row(self) -> str:
        eps = "" if self.fd_epsilon is None else f"{self.fd_epsilon:.17g}"
        return (f"{self.method},{self.estimate:.17g},{self.stderr:.17g},"
                f"{self.n_paths},{self.dt:.17g},{self.horizon:.17g},"
                f"{self.burn_in:.17g},{eps},{self.seed}")


def write_report_csv(target, reports) -> None:
    """Write sensitivity/stationary reports under the standard header."""
    with open_text_target(target) as fh:
        fh.write(REPORT_CSV_HEADER + "\n")
        for report in reports:
            fh.write(report.csv_row() + "\n")


def batch_means(samples, n_batches: int = DEFAULT_BATCHES) -> tuple[float, float]:
    """Mean and batch-means standard error of a correlated series.

    The series is split into ``n_batches`` equal batches (dropping the
    remainder from the front, keeping the most recent data aligned);
    the standard error is the spread of the batch means divided by
    sqrt(n_batches).

    Raises
    ------
    EstimationError
        When the series is shorter than two points per batch.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2 * n_batches:
        raise EstimationError(
            f"need at least {2 * n_batches} points for {n_batches} batches, "
            f"got {x.size}")
    trim = x.size % n_batches
    x = x[trim:]
    means = x.reshape(n_batches, -1).mean(axis=1)
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(n_batches))


def _as_list(trajs):
    if isinstance(trajs, Trajectory):
        return [trajs]
    trajs = list(trajs)
    if not trajs:
        raise EstimationError("no trajectories given")
    return trajs


def _tail_values(traj: Trajectory, series: np.ndarray, burn_in: float) -> np.ndarray:
    keep = traj.times > burn_in
    out = series[keep]
    if out.size == 0:
        raise EstimationError(
            f"no samples after burn_in={burn_in:g} (horizon {traj.times[-1]:g})")
    return out


def _combine(per_path: list[np.ndarray], n_batches: int) -> tuple[float, float]:
    if len(per_path) == 1:
        return batch_means(per_path[0], n_batches)
    path_means = np.array([p.mean() for p in per_path])
    estimate = float(path_means.mean())
    stderr = float(path_means.std(ddof=1) / np.sqrt(path_means.size))
    return estimate, stderr


def stationary_estimate(functional: Functional, trajs, burn_in: float = 0.0,
                        n_batches: int = DEFAULT_BATCHES) -> tuple[float, float]:
    """Time-average estimate of E[f(Z(infinity))] with standard error.

    ``trajs`` is one trajectory or a list sharing a configuration.
    With one path the error bar uses batch means; with several it uses
    the across-path spread, which also absorbs initialization bias
    differences.
    """
    trajs = _as_list(trajs)
    series = [_tail_values(t, np.asarray(functional.f(t.z), dtype=float), burn_in)
              for t in trajs]
    return _combine(series, n_batches)


def ipa_sensitivity(functional: Functional, trajs, burn_in: float = 0.0,
                    n_batches: int = DEFAULT_BATCHES) -> SensitivityReport:
    """Pathwise sensitivity estimate from joint trajectories.

    Averages f'(Z(t)) . J(t) over t in (burn_in, horizon] and across
    paths.  Exactly zero, with zero spread, when the model's
    derivative data is all zero.
    """
    trajs = _as_list(trajs)
    series = []
    for traj in trajs:
        if not isinstance(traj, JointTrajectory) or traj.jac is None:
            raise EstimationError(
                "pathwise sensitivity needs joint trajectories with a "
                "derivative component")
        weights = np.einsum("kj,kj->k", functional.f_prime(traj.z), traj.jac)
        series.append(_tail_values(traj, weights, burn_in))
    estimate, stderr = _combine(series, n_batches)
    first = trajs[0]
    return SensitivityReport(
        estimate=estimate, stderr=stderr, n_paths=len(trajs), method="ipa",
        horizon=float(first.times[-1]), burn_in=burn_in, dt=first.dt,
        seed=first.seed)


def finite_horizon_sensitivity(running: Functional | None,
                               terminal: Functional | None,
                               traj: JointTrajectory, t: float) -> float:
    """Sensitivity of a finite-horizon cost along one joint trajectory.

    The cost is integral_0^t running(Z(s)) ds + terminal(Z(t)); its
    pathwise derivative integrates running' . J by the trapezoid rule
    on the stored grid and adds terminal' . J at the horizon.  ``t``
    must be a stored grid time (within half a step).  Either component
    may be None.  Averaging across paths is the caller's choice.
    """
    if traj.jac is None:
        raise EstimationError("finite-horizon sensitivity needs a joint trajectory")
    times = traj.times
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 0.5 * traj.dt + 1e-12:
        raise ValueError(f"t={t:g} is not on the stored grid (mesh {traj.dt:g})")
    total = 0.0
    if running is not None:
        integrand = np.einsum("kj,kj->k", running.f_prime(traj.z[:idx + 1]),
                              traj.jac[:idx + 1])
        total += float(_trapezoid(integrand, times[:idx + 1]))
    if terminal is not None:
        total += float(np.asarray(terminal.f_prime(traj.z[idx]), dtype=float)
                       @ traj.jac[idx])
    return total


def fd_report(functional: Functional, plus, minus, cfg: SimConfig,
              epsilon: float,
              n_batches: int = DEFAULT_BATCHES) -> SensitivityReport:
    """Central finite difference of paired runs of the two shifted models.

    ``plus`` and ``minus`` are the trajectories of the models shifted
    by +epsilon and -epsilon, run on ``cfg`` with common random
    numbers (path p of each from the same stream).  The stationary
    estimates are differenced path by path,

        [F(alpha + eps) - F(alpha - eps)] / (2 eps),

    and the report carries the paired standard error, which is what
    makes the comparison to the pathwise estimate fair.
    """
    diffs = []
    for tp, tm in zip(plus, minus):
        vp = _tail_values(tp, np.asarray(functional.f(tp.z), dtype=float),
                          cfg.burn_in)
        vm = _tail_values(tm, np.asarray(functional.f(tm.z), dtype=float),
                          cfg.burn_in)
        diffs.append((vp - vm) / (2.0 * epsilon))
    estimate, stderr = _combine(diffs, n_batches)
    return SensitivityReport(
        estimate=estimate, stderr=stderr, n_paths=cfg.n_paths, method="fd-crn",
        horizon=cfg.horizon, burn_in=cfg.burn_in, dt=cfg.dt, seed=cfg.seed,
        fd_epsilon=epsilon)


def fd_oracle(model_plus: ConeModel, model_minus: ConeModel,
              functional: Functional, cfg: SimConfig, epsilon: float,
              n_batches: int = DEFAULT_BATCHES) -> SensitivityReport:
    """Central finite difference under common random numbers.

    Simulates the two pre-shifted models in one ``simulate_variants``
    pass on the configuration ``cfg``, so both see identical streams,
    and reduces them with ``fd_report``.  The caller builds the shifted
    models (``perturbed_model`` with +epsilon and -epsilon).

    Raises
    ------
    EstimationError
        When ``epsilon`` is not positive.
    GeometryError
        When the two models do not share one cone.
    """
    if epsilon <= 0.0:
        raise EstimationError(f"epsilon must be positive, got {epsilon}")
    plus, minus = simulate_variants((model_plus, model_minus), cfg)
    return fd_report(functional, plus, minus, cfg, epsilon, n_batches)
