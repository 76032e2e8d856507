"""Discrete Skorokhod problem: oblique reflection on a time grid.

Given a driving path f with f(t_0) in the cone, the constrained path h
and the pushing record solve, step by step, the linear complementarity
problem that keeps h inside G while pushing only along the reflection
directions of active faces.  In normal coordinates q = N^T (h_k + Δf)
one solves

    z = q + M w,   w >= 0,  z >= 0,  <w, z> = 0,   M = N^T R,

and sets h_{k+1} = h_k + Δf + R w.  Because M = E - Q with Q >= 0 and
rho(Q) < 1, the map w -> (Q w - q)^+ is monotone from w = 0 and
converges to the least solution; that least-element structure is what
makes the discrete problem well posed without any ordering of faces.

One kernel, ``_least_push``, runs that fixed point for a (..., J)
block of q vectors, with one Q or a stack of them (one per model
variant of a batched run); ``lcp_solve``, ``sp_step``, ``sp_solve_path``,
``lyapunov_m`` and the batched engine in ``rbmsens.sim`` all call it.
When Q vanishes (normal reflection on an orthant) the least solution
is w = (-q)^+ in closed form; callers decide that once per run through
``_couplings``.  ``sp_solve_path`` stays a per-step fold but looks
ahead over a window of steps: free motion is filled in with one
cumulative sum, and the kernel runs only at steps whose target leaves
the cone.

The module also carries the 1-D running-maximum oracle (an independent
closed form the solver is tested against) and the deterministic
return-time functional M(x): how long the noise-free reflected path
started at x needs to reach the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import ConeModel, active_faces

__all__ = [
    "DiscretePath",
    "LcpSolution",
    "SPResult",
    "lcp_solve",
    "sp_step",
    "sp_solve_path",
    "sp_1d_oracle",
    "complementarity_gap",
    "lyapunov_m",
]

#: Default fixed-point tolerance for the per-step complementarity solve.
LCP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscretePath:
    """A vector-valued path sampled on a strictly increasing grid.

    ``values[k]`` is the state at ``times[k]``; shapes are (K+1,) and
    (K+1, J).  One-dimensional value input is promoted to a single
    column.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        vals = np.array(self.values, dtype=float)
        if t.ndim != 1:
            raise ValueError(f"times must be one-dimensional, got shape {t.shape}")
        if vals.ndim == 1:
            vals = vals[:, np.newaxis]
        if vals.ndim != 2 or vals.shape[0] != t.shape[0]:
            raise ValueError(
                f"values must have shape ({t.shape[0]}, J), got {vals.shape}")
        if t.shape[0] >= 2 and np.diff(t).min() <= 0.0:
            raise ValueError("times must be strictly increasing")
        t.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True, eq=False)
class LcpSolution:
    """Solution pair of one complementarity solve.

    Satisfies z = q + M w (up to solver tolerance), w, z >= 0 and
    <w, z> = 0; ``iterations`` and ``residual`` record how the fixed
    point stopped.
    """

    w: np.ndarray
    z: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True, eq=False)
class SPResult:
    """Solved Skorokhod problem on a grid.

    All three paths share the grid of the driver: ``constrained`` is h,
    ``pushing`` is g = R ell, and ``local_time`` is the cumulative,
    componentwise nondecreasing ell with ell(t_0) equal to the push (if
    any) that brought the initial point into the cone.
    """

    constrained: DiscretePath
    pushing: DiscretePath
    local_time: DiscretePath


def _couplings(model: ConeModel) -> np.ndarray | None:
    """Q = E - N^T R of ``model``, or None when Q is exactly zero.

    None tells ``_least_push`` to use the closed form w = (-q)^+.
    """
    Q = model.q_matrix()
    return Q if Q.any() else None


def _least_push(q: np.ndarray, Q: np.ndarray | None, tol: float = LCP_TOL,
                max_iter: int = 500):
    """Least w >= 0 with q + (E - Q) w >= 0 complementary to w.

    ``q`` is a (..., J) block and ``Q`` a (J, J) matrix or a stack of
    them that broadcasts against it, such as (V, J, J) for a (V, P, J)
    block of model variants.  The fixed point w <- (Q w - q)^+ runs
    from w = 0 on the whole block until the max-norm update over the
    block falls below ``tol``.  With ``Q`` None the closed form
    w = (-q)^+ is returned after one iteration.  When no entry of q is
    negative nothing pushes, and exact zeros come back at once with the
    loop's own count and update (1 and 0.0): from w = 0 its first
    iterate is exactly +0.0.  Returns (w, iterations, last update).
    """
    if Q is None:
        return np.maximum(-q, 0.0), 1, 0.0
    if (q >= 0.0).all():
        return np.zeros_like(q), 1, 0.0
    Q_t = np.swapaxes(Q, -1, -2)
    w = np.zeros_like(q)
    delta = np.inf
    for iteration in range(1, max_iter + 1):
        w_next = np.maximum(w @ Q_t - q, 0.0)
        delta = float(np.abs(w_next - w).max())
        w = w_next
        if delta <= tol:
            return w, iteration, delta
    raise ConvergenceError(
        "complementarity fixed point did not converge",
        iterations=max_iter, residual=delta, last=w)


def lcp_solve(M, q, tol: float = LCP_TOL, max_iter: int = 500) -> LcpSolution:
    """Least solution of z = q + M w, w, z >= 0, <w, z> = 0.

    Iterates the monotone fixed point w <- (Q w - q)^+ with
    Q = E - M, starting from w = 0.  For M in the M-matrix regime the
    iterates increase to the least solution; the loop stops when the
    max-norm update falls below ``tol``.

    Raises
    ------
    ConvergenceError
        When ``max_iter`` updates did not reach ``tol``; carries the
        last iterate and its residual.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    w, iterations, delta = _least_push(q, np.identity(q.shape[0]) - M, tol,
                                       max_iter)
    return LcpSolution(w=w, z=q + M @ w, iterations=iterations, residual=delta)


def _step(NT, R, Q, h_prev, delta_f):
    """One reflection step without validation; returns (h_next, w)."""
    target = h_prev + delta_f
    w = _least_push(NT @ target, Q)[0]
    return target + R @ w, w


def sp_step(model: ConeModel, h_prev, delta_f):
    """Advance the constrained path by one driver increment.

    Parameters
    ----------
    model : ConeModel
    h_prev : (J,) array_like
        Constrained state at the beginning of the step, inside the cone.
    delta_f : (J,) array_like
        Driver increment over the step.

    Returns
    -------
    (h_next, delta_ell) : pair of (J,) ndarrays
        New constrained state and the per-face pushing amounts; the
        push is zero when h_prev + delta_f already lies in the cone.
    """
    return _step(model.normals.T, model.reflections, _couplings(model),
                 np.asarray(h_prev, dtype=float),
                 np.asarray(delta_f, dtype=float))


#: Steps the path solver looks ahead for the next push.
_LOOKAHEAD = 64

#: Relative slack on face heights when scanning a window for pushes.
#: The block product may round differently from the per-step one, so
#: heights just above zero are also handed to the per-step solve,
#: which returns w = 0 exactly when nothing pushes.
_SCAN_SLACK = 1e-12


def sp_solve_path(model: ConeModel, driver: DiscretePath,
                  face_tol: float | None = None) -> SPResult:
    """Solve the Skorokhod problem along a whole driving path.

    The driver must start inside the cone (checked with ``face_tol``);
    increments are then folded through the per-step solve.  ell(t_0)
    is zero for an interior start and records the initial projection
    push otherwise (only relevant when the start sits on the boundary
    within tolerance but on the wrong side numerically).

    The solver looks ahead 64 steps at a time.  Free stretches are
    filled with one sequential cumulative sum from the current state,
    which adds the increments in the same order as the per-step fold,
    and the complementarity solve runs only at the first step whose
    target has a face height below zero (up to a rounding slack).  The
    result is bit-identical to folding ``sp_step`` over the increments
    ``f[k+1] - f[k]``.
    """
    if driver.dim != model.dim:
        raise DomainError(
            f"driver has dimension {driver.dim}, model expects {model.dim}")
    f = driver.values
    active_faces(model, f[0], face_tol)  # raises DomainError when outside

    N = model.normals
    NT = N.T
    R = model.reflections
    Q = _couplings(model)

    steps = len(driver) - 1
    df = np.diff(f, axis=0)
    h = np.empty_like(f)
    ell = np.empty_like(f)
    state, w0 = _step(NT, R, Q, np.zeros(model.dim), f[0])
    h[0] = state
    ell[0] = w0
    cumulative = w0.copy()
    k = 0
    while k < steps:
        window = df[k:k + _LOOKAHEAD]
        free = np.cumsum(np.vstack([state, window]), axis=0)[1:]
        slack = _SCAN_SLACK * np.abs(free).max(axis=1, keepdims=True)
        leaves = ((free @ N) < slack).any(axis=1)
        n_free = int(leaves.argmax()) if leaves.any() else len(window)
        if n_free:
            h[k + 1:k + 1 + n_free] = free[:n_free]
            ell[k + 1:k + 1 + n_free] = cumulative
            state = free[n_free - 1]
            k += n_free
        if n_free < len(window):
            state, w = _step(NT, R, Q, state, df[k])
            cumulative += w
            h[k + 1] = state
            ell[k + 1] = cumulative
            k += 1
    times = driver.times
    return SPResult(
        constrained=DiscretePath(times, h),
        pushing=DiscretePath(times, ell @ R.T),
        local_time=DiscretePath(times, ell),
    )


def sp_1d_oracle(driver: DiscretePath) -> DiscretePath:
    """Closed-form solution on the half line with normal reflection.

    For scalar f the constrained path is the running-maximum formula

        h_k = f_k + max(0, max_{j <= k} (-f_j)),

    evaluated exactly; it is the reference the step solver is compared
    against.
    """
    if driver.dim != 1:
        raise ValueError(f"oracle only covers dimension 1, got {driver.dim}")
    f = driver.values[:, 0]
    push = np.maximum(np.maximum.accumulate(-f), 0.0)
    return DiscretePath(driver.times, f + push)


def complementarity_gap(model: ConeModel, result: SPResult) -> float:
    """Largest violation of 'push only while on the face'.

    For every step k and face i with a local time increment above
    1e-10, the post-step face height <h(t_{k+1}), n_i> should be within
    face tolerance of zero.  Returns the largest such height (zero for
    a path that never pushes); callers compare it to their face
    tolerance.
    """
    h = result.constrained.values
    ell = result.local_time.values
    heights = h @ model.normals          # (K+1, J): <h_k, n_i>
    increments = np.diff(ell, axis=0)    # (K, J)
    if increments.size == 0:
        return 0.0
    pushed = increments > 1e-10
    if not pushed.any():
        return 0.0
    return float(np.where(pushed, heights[1:], 0.0).max())


def lyapunov_m(model: ConeModel, x, dt: float = 1e-3,
               zero_tol: float | None = None, horizon: float = 100.0) -> float:
    """Deterministic return time to the origin from x.

    Runs the noise-free reflected dynamics (driver increments b dt)
    from x on a grid of mesh ``dt`` and returns the first grid time at
    which |h| <= zero_tol.  Requires a stable drift; on an unstable
    model the path never reaches the origin and the horizon error
    fires instead.

    Parameters
    ----------
    model : ConeModel
    x : (J,) array_like
        Start point, inside the cone.
    dt : float
        Grid mesh; the returned time is exact up to one mesh.
    zero_tol : float, optional
        Arrival threshold on |h|; defaults to 1e-8 * (1 + |x|).
    horizon : float
        Give-up time.

    Raises
    ------
    ConvergenceError
        If the path has not reached the origin by ``horizon`` (the
        drift is unstable, or the horizon is too short for |x|).
    """
    x = np.asarray(x, dtype=float)
    active_faces(model, x)  # raises DomainError when outside
    if zero_tol is None:
        zero_tol = 1e-8 * (1.0 + float(np.linalg.norm(x)))

    NT = model.normals.T
    R = model.reflections
    Q = _couplings(model)
    step_drift = model.drift * dt

    state = x.copy()
    t = 0.0
    n_steps = int(np.ceil(horizon / dt))
    for k in range(n_steps + 1):
        if float(np.linalg.norm(state)) <= zero_tol:
            return t
        state, _ = _step(NT, R, Q, state, step_drift)
        t = (k + 1) * dt
    raise ConvergenceError(
        f"noise-free path from {x} did not reach the origin by t={horizon:g}; "
        "the drift may be unstable or the horizon too short",
        iterations=n_steps, residual=float(np.linalg.norm(state)), last=state)
