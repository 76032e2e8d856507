"""Discrete Skorokhod problem: oblique reflection on a time grid.

Given a driving path f with f(t_0) in the cone, the constrained path h
and the pushing record solve, step by step, the linear complementarity
problem that keeps h inside G while pushing only along the reflection
directions of active faces.  In normal coordinates q = N^T (h_k + Δf)
one solves

    z = q + M w,   w >= 0,  z >= 0,  <w, z> = 0,   M = N^T R,

and sets h_{k+1} = h_k + Δf + R w.  Because M = E - Q with Q >= 0 and
rho(Q) < 1 (checked before any solve; GeometryError otherwise), M is an
M-matrix and the problem has exactly one solution, the least element
of its feasible set, whatever the order of faces.

One kernel, ``_least_push``, solves it exactly for a (..., J) block of
q vectors, with one Q or one per model variant of a batched run, by
the active-set method for M-matrices (Chandrasekaran 1970, "A special
case of the complementary pivot problem"): at most J batched linear
solves, no tolerance, and the faces pushed on come back as the step's
active set.  ``lcp_solve``, ``sp_step``, ``sp_solve_path``,
``lyapunov_m`` and the engine in ``rbmsens.sim`` all call it; when Q
vanishes (``_couplings`` returns None) it uses w = (-q)^+.
``sp_solve_path`` looks ahead over a window of steps: free motion is
one cumulative sum, and the kernel runs only where the target leaves
the cone.

The module also carries the 1-D running-maximum oracle (an independent
closed form the solver is tested against) and the deterministic
return-time functional M(x): how long the noise-free reflected path
started at x needs to reach the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, GeometryError
from .geometry import ConeModel, active_faces, spectral_radius

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

    Satisfies z = q + M w, w, z >= 0 and <w, z> = 0, up to the
    rounding of one linear solve.
    """

    w: np.ndarray
    z: np.ndarray


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


def _in_regime(Q: np.ndarray, name: str) -> np.ndarray:
    """``Q`` if Q >= 0 and rho(Q) < 1 (the bounds of ``validate_cone``),
    so that E - Q is an M-matrix; GeometryError otherwise."""
    low, rho = float(Q.min()), spectral_radius(np.maximum(Q, 0.0))
    if not (low >= -1e-12 and rho < 1.0):
        raise GeometryError(
            f"{name} has least entry {low:.3e} and spectral radius {rho:.6g}; "
            "the reflection solve needs Q >= 0 and rho(Q) < 1")
    return Q


@lru_cache(maxsize=64)
def _couplings(model: ConeModel) -> np.ndarray | None:
    """Checked Q = E - N^T R, or None (w = (-q)^+) when Q is exactly zero;
    cached, as the model is immutable and ``sp_step`` asks every step."""
    Q = _in_regime(model.q_matrix(), "Q = E - N^T R")
    Q.setflags(write=False)
    return Q if Q.any() else None


def _least_push(q: np.ndarray, Q: np.ndarray | None):
    """Solution w >= 0 of q + (E - Q) w >= 0 complementary to w.

    ``q`` is a (..., J) block and ``Q`` a (J, J) matrix, or a (V, J, J)
    stack for a (V, P, J) block of model variants.  Returns (w, active)
    with ``active`` the faces that push; w is exact +0.0 off them.  The
    active set starts at the faces where q < 0.  Each pass solves E - Q
    restricted to it (identity rows elsewhere) for the whole block in
    one batched solve, then adds every face left below zero; the set
    only grows, so it stops within J passes.  Rows never mix.

    Raises
    ------
    DomainError
        When q holds a NaN.
    """
    low = q.min()  # NaN when any entry is NaN
    if low >= 0.0:
        return np.zeros_like(q), np.zeros(q.shape, dtype=bool)
    if np.isnan(low):
        raise DomainError("reflection target is not a number")
    active = q < 0.0
    if Q is None:
        return np.where(active, -q, 0.0), active
    eye = np.identity(q.shape[-1])
    M = eye - Q
    M_t = np.swapaxes(M, -1, -2)
    if M.ndim == 3:
        M = M[:, np.newaxis]
    while True:
        A = np.where(active[..., :, np.newaxis] & active[..., np.newaxis, :],
                     M, eye)
        w = np.linalg.solve(A, np.where(active, -q, 0.0)[..., np.newaxis])[..., 0]
        added = (q + w @ M_t < 0.0) & ~active
        if not added.any():
            return w, active
        active |= added


def lcp_solve(M, q) -> LcpSolution:
    """Solution of z = q + M w, w, z >= 0, <w, z> = 0 for an M-matrix M.

    Runs the active-set method of ``_least_push`` with Q = E - M, and
    raises GeometryError unless Q >= 0 and rho(Q) < 1.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    Q = _in_regime(np.identity(q.shape[0]) - M, "Q = E - M")
    w = _least_push(q, Q)[0]
    return LcpSolution(w=w, z=q + M @ w)


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
        f"noise-free path from {x} did not reach the origin by t={horizon:g} "
        f"(|h| = {float(np.linalg.norm(state)):.3e}); the drift may be "
        "unstable or the horizon too short")
