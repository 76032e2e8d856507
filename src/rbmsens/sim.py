"""Euler simulation of the reflected process and its derivative.

Each step draws a Brownian increment, pushes the state back into the
cone through the complementarity solve, then advances the derivative:
free increment first, projection onto the constraint subspace of the
faces active after the move.  All paths of a run advance together in a
(paths, coordinates) block, and every path owns its own random stream.
A run can also carry several model variants of one cone (the same
dimension and normals, e.g. ``perturbed_model`` shifts): they form a
leading batch axis, every variant is driven by the same increments,
and the derivative recursion follows the first variant.

Determinism contract: increments for path p come from the stream
``SeedSequence(seed, spawn_key=(p,))`` in draw order, and every variant
of a run sees path p's stream.  A configuration (seed, dt, horizon,
path count, variants) reproduces trajectories bit-exactly, regardless
of the chunk size ``CHUNK_STEPS`` used internally; a one-variant run
(``simulate_rbm``, ``simulate_joint``, ``simulate_joint_pair``) is the
same computation it always was.  At the same path count, each variant
of a run equals its own single-model run bit for bit: the reflection
solve treats every row of the block on its own.  Across path counts
results agree to rounding level only, because the block products that
move the state may round differently for another number of rows.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GeometryError
from .geometry import ConeModel, active_faces
from .derivative import OperatorCache, subspace_gap
from .skorokhod import _couplings, _least_push

__all__ = [
    "SimConfig",
    "RngContract",
    "Trajectory",
    "JointTrajectory",
    "brownian_increments",
    "simulate_rbm",
    "simulate_joint",
    "simulate_joint_pair",
    "simulate_variants",
    "visit_all_faces_time",
    "write_trajectory_csv",
]

#: Steps per internal chunk; increments are drawn and drift terms
#: precomputed one chunk at a time.  Chunking never changes results.
CHUNK_STEPS = 4096

#: Largest normal-vector difference between variants of one cone.
#: ``perturbed_model`` keeps the normals, but re-normalizing a unit
#: column can move its last bit.
NORMALS_TOL = 1e-12


@dataclass(frozen=True)
class RngContract:
    """Addressable randomness: one (seed, stream) pair per path."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream,)))


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run.

    ``face_tol`` is the activity tolerance of the start point: faces
    within ``face_tol * (1 + |x0|)`` of x0 are active there.  After
    each step the active faces are the ones the step pushed on.
    ``decimate`` thins the stored grid (every n-th step) for export;
    estimator calls should leave it at 1 so time averages see every
    step.  ``store_driver`` keeps the Brownian increments (row k is the
    increment that produced stored point k, row 0 is zero) and
    requires ``decimate=1``.
    """

    dt: float
    horizon: float
    burn_in: float = 0.0
    seed: int = 0
    n_paths: int = 1
    face_tol: float = 1e-9
    decimate: int = 1
    store_driver: bool = False

    def __post_init__(self):
        # written so that NaN fails every test
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError(
                f"horizon must be positive and finite, got {self.horizon}")
        if not 0.0 <= self.burn_in < self.horizon:
            raise ValueError(
                f"burn_in must lie in [0, horizon), got {self.burn_in}")
        if not 0.0 <= self.face_tol < np.inf:
            raise ValueError(
                f"face_tol must be nonnegative and finite, got {self.face_tol}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be at least 1, got {self.n_paths}")
        if self.decimate < 1:
            raise ValueError(f"decimate must be at least 1, got {self.decimate}")
        if self.store_driver and self.decimate != 1:
            raise ValueError("store_driver requires decimate=1; a thinned "
                             "grid cannot carry per-step increments")

    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Reflected path of one simulation stream on the stored grid.

    ``face_log`` holds the post-step active sets as bitmasks (bit i-1
    for face i); ``tau_all_faces`` lists the completion times at which
    the running union of visited faces reached every face, union reset
    to the completing step's active set after each completion.
    ``times`` is one read-only grid shared by every trajectory of a run.
    """

    times: np.ndarray
    z: np.ndarray
    ell: np.ndarray
    face_log: np.ndarray
    tau_all_faces: np.ndarray
    seed: int
    stream: int
    dt: float
    driver: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True, eq=False)
class JointTrajectory(Trajectory):
    """Reflected path together with its pathwise derivative."""

    jac: np.ndarray = field(default=None)  # type: ignore[assignment]


def brownian_increments(rng: RngContract | np.random.Generator,
                        n_steps: int, dt: float, dim: int) -> np.ndarray:
    """Draw the (n_steps, dim) increment block, each row N(0, dt E).

    Drawing k rows and then the rest continues the same sequence: the
    block equals the concatenation of chunked draws from the same
    generator, which is what ties the public contract to the chunked
    internals of the simulator.
    """
    gen = rng.generator() if isinstance(rng, RngContract) else rng
    return gen.standard_normal((n_steps, dim)) * np.sqrt(dt)


def _same_cone(models) -> None:
    """Raise GeometryError unless every variant has the first one's cone."""
    first = models[0]
    for v, other in enumerate(models[1:], start=1):
        if other.dim != first.dim:
            raise GeometryError(
                f"model variant {v} has dimension {other.dim}, variant 0 "
                f"has {first.dim}; variants must share one cone")
        gap = float(np.abs(other.normals - first.normals).max())
        if gap > NORMALS_TOL:
            raise GeometryError(
                f"model variant {v} has other normals than variant 0 "
                f"(max difference {gap:.3e}); variants must share one cone")


def _simulate(models, cfg: SimConfig, x0, j0_list):
    """Shared engine over a tuple of model variants of one cone.

    Arrays carry a leading variant axis: state and push blocks are
    (variants, paths, J) and each variant's drift, dispersion,
    reflections and Q are stacked (variants, J, J).  ``j0_list``
    carries zero or more derivative starts; the recursions follow the
    first variant.
    """
    _same_cone(models)
    model = models[0]
    dim = model.dim
    n_var = len(models)
    n_paths = cfg.n_paths
    n_rec = len(j0_list)

    x0 = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise DomainError(f"x0 must have shape ({dim},), got {x0.shape}")
    tol0 = cfg.face_tol * (1.0 + float(np.linalg.norm(x0)))
    active_faces(model, x0, tol0)
    j0s = []
    for j0 in j0_list:
        j0 = np.zeros(dim) if j0 is None else np.asarray(j0, dtype=float)
        if j0.shape != (dim,):
            raise DomainError(f"j0 must have shape ({dim},), got {j0.shape}")
        gap = subspace_gap(model, x0, j0)
        if gap > 1e-8:
            raise DomainError(
                f"initial derivative violates the active constraints at x0 "
                f"(gap {gap:.3e})")
        j0s.append(j0)

    N = np.stack([m.normals for m in models])
    R_t = np.stack([m.reflections.T for m in models])
    sigma_t = np.stack([m.dispersion.T for m in models])
    drift_dt = np.stack([m.drift * cfg.dt for m in models])[:, np.newaxis]
    couplings = [_couplings(m) for m in models]
    Q = (None if all(c is None for c in couplings) else
         np.stack([np.zeros((dim, dim)) if c is None else c for c in couplings]))
    cache = OperatorCache(model) if n_rec else None

    n_steps = cfg.n_steps()
    dec = cfg.decimate
    stored = list(range(0, n_steps + 1, dec))
    if stored[-1] != n_steps:
        stored.append(n_steps)
    store_at = {k: i for i, k in enumerate(stored)}
    n_store = len(stored)

    z_out = np.empty((n_var, n_paths, n_store, dim))
    ell_out = np.empty((n_var, n_paths, n_store, dim))
    jac_out = np.empty((n_rec, n_paths, n_store, dim)) if n_rec else None
    mask_out = np.zeros((n_var, n_paths, n_store), dtype=np.int64)
    driver_out = (np.zeros((n_paths, n_store, dim)) if cfg.store_driver else None)
    taus = [[[] for _ in range(n_paths)] for _ in range(n_var)]

    x = np.tile(x0, (n_var, n_paths, 1))
    ell = np.zeros((n_var, n_paths, dim))
    jac = np.stack([np.tile(j0, (n_paths, 1)) for j0 in j0s]) if n_rec else None

    bits = 1 << np.arange(dim)
    mask0 = np.array([(m.normals.T @ x0 <= tol0) @ bits for m in models])
    z_out[:, :, 0] = x
    ell_out[:, :, 0] = 0.0
    if n_rec:
        jac_out[:, :, 0] = jac
    mask_out[:, :, 0] = mask0[:, np.newaxis]

    # Face-visit bookkeeping starts empty: the initial active set is
    # logged but only post-step sets count toward completion times.
    full_mask = (1 << dim) - 1
    cum_mask = np.zeros((n_var, n_paths), dtype=np.int64)

    gens = [RngContract(cfg.seed, p).generator() for p in range(n_paths)]
    sqdt = np.sqrt(cfg.dt)
    b_prime_dt = model.drift_deriv * cfg.dt
    sigma_prime_t = model.dispersion_deriv.T
    r_prime_t = model.reflection_deriv.T
    has_sigma_prime = bool(model.dispersion_deriv.any())
    has_r_prime = bool(model.reflection_deriv.any())

    dw_chunk = np.empty((n_paths, min(CHUNK_STEPS, n_steps), dim))
    k = 0
    while k < n_steps:
        chunk = min(CHUNK_STEPS, n_steps - k)
        dw = dw_chunk[:, :chunk]
        for p in range(n_paths):
            dw[p] = gens[p].standard_normal((chunk, dim))
        dw *= sqdt
        for j in range(chunk):
            dwj = dw[:, j]
            target = x + dwj @ sigma_t + drift_dt
            w, pushed = _least_push(target @ N, Q)
            x = target + w @ R_t
            ell += w
            masks = pushed @ bits

            if n_rec:
                psi = b_prime_dt + (dwj @ sigma_prime_t if has_sigma_prime else 0.0)
                if has_r_prime:
                    psi = psi + w[0] @ r_prime_t
                jac = jac + psi
                lead = masks[0]
                if lead.any():
                    # rows of one face set are disjoint from the others',
                    # so the order the sets are taken in does not matter
                    for m in set(lead.tolist()) - {0}:
                        rows = lead == m
                        jac[:, rows] = jac[:, rows] @ cache.get(m).T

            cum_mask |= masks
            done = cum_mask == full_mask
            if done.any():
                t_now = (k + j + 1) * cfg.dt
                for v, p in zip(*np.nonzero(done)):
                    taus[v][p].append(t_now)
                cum_mask[done] = masks[done]

            idx = store_at.get(k + j + 1)
            if idx is not None:
                z_out[:, :, idx] = x
                ell_out[:, :, idx] = ell
                mask_out[:, :, idx] = masks
                if n_rec:
                    jac_out[:, :, idx] = jac
                if driver_out is not None:
                    driver_out[:, idx] = dwj
        k += chunk

    times = np.asarray(stored, dtype=float) * cfg.dt
    times.setflags(write=False)
    return times, z_out, ell_out, jac_out, mask_out, driver_out, taus


def _build(run, cfg: SimConfig, p: int, v: int = 0, rec: int | None = None):
    """Trajectory of path ``p`` under variant ``v``; joint with recursion ``rec``."""
    times, z, ell, jac, masks, driver, taus = run
    kwargs = dict(times=times, z=z[v, p], ell=ell[v, p],
                  face_log=masks[v, p],
                  tau_all_faces=np.asarray(taus[v][p], dtype=float),
                  seed=cfg.seed, stream=p, dt=cfg.dt,
                  driver=None if driver is None else driver[p])
    if rec is None:
        return Trajectory(**kwargs)
    return JointTrajectory(**kwargs, jac=jac[rec, p])


def simulate_rbm(model: ConeModel, cfg: SimConfig, x0=None) -> list[Trajectory]:
    """Simulate reflected paths only.

    Parameters
    ----------
    model : ConeModel
    cfg : SimConfig
    x0 : (J,) array_like, optional
        Start point inside the cone; the apex when omitted.

    Returns
    -------
    list of Trajectory, one per path (stream p uses (cfg.seed, p)).
    """
    run = _simulate((model,), cfg, x0, [])
    return [_build(run, cfg, p) for p in range(cfg.n_paths)]


def simulate_joint(model: ConeModel, cfg: SimConfig, x0=None,
                   j0=None) -> list[JointTrajectory]:
    """Simulate reflected paths together with the derivative recursion.

    ``j0`` must satisfy the constraints active at ``x0`` (within 1e-8);
    it defaults to zero, the natural start when the parameter does not
    move the initial point.
    """
    run = _simulate((model,), cfg, x0, [j0])
    return [_build(run, cfg, p, rec=0) for p in range(cfg.n_paths)]


def simulate_joint_pair(model: ConeModel, cfg: SimConfig, x0=None,
                        j0_a=None, j0_b=None):
    """Two derivative recursions coupled through one reflected path.

    Both recursions see the same Brownian increments, the same
    reflected path and the same face sequence; they differ only in
    their initial value.  Returns a list of (traj_a, traj_b) pairs
    whose difference isolates the projection-product contraction.
    """
    run = _simulate((model,), cfg, x0, [j0_a, j0_b])
    return [(_build(run, cfg, p, rec=0), _build(run, cfg, p, rec=1))
            for p in range(cfg.n_paths)]


def simulate_variants(models, cfg: SimConfig, x0=None, j0=None,
                      joint: bool = False) -> list[list[Trajectory]]:
    """Simulate several variants of one model on common random numbers.

    The variants (for example ``perturbed_model`` shifts of one model)
    must share the dimension and the normals; each path's increments
    are drawn once and drive every variant, all in one engine pass.
    Returns one list of trajectories per variant, in the order given.
    With ``joint`` the first variant also carries the derivative
    recursion from ``j0``, as ``simulate_joint`` does, and its
    trajectories are JointTrajectory.

    Raises
    ------
    GeometryError
        When the variants differ in dimension or normals; raised before
        any increment is drawn.
    """
    models = tuple(models)
    if not models:
        return []
    run = _simulate(models, cfg, x0, [j0] if joint else [])
    return [[_build(run, cfg, p, v, 0 if joint and v == 0 else None)
             for p in range(cfg.n_paths)] for v in range(len(models))]


def visit_all_faces_time(traj: Trajectory) -> float | None:
    """First completion time of the face-visit union, None if never."""
    if traj.tau_all_faces.size == 0:
        return None
    return float(traj.tau_all_faces[0])


@contextmanager
def open_text_target(target):
    """Yield a text stream for ``target``, a path or a text file object.

    A path is opened for writing and closed on exit; a file object is
    yielded as is and left open.
    """
    if isinstance(target, (str, bytes)):
        with open(target, "w", newline="") as fh:
            yield fh
    else:
        yield target


#: Rows formatted per write by ``write_trajectory_csv``; bounds the
#: size of the text built at once.
CSV_BLOCK_ROWS = 4096


def write_trajectory_csv(target, traj: Trajectory) -> None:
    """Write a trajectory as CSV: t, Z_*, [J_*,] L_*, faces.

    ``target`` is a path or a text file object.  Metadata lives in
    '#' comment lines; bodies for identical runs are byte-identical.
    Values are written with ``%.17g``, so they round-trip exactly.  The
    body is formatted a block of rows at a time with one ``%`` over the
    block's values, which gives the same text as ``np.savetxt`` with
    ``fmt="%.17g"`` without a Python call per row.
    """
    dim = traj.dim
    jac = getattr(traj, "jac", None)
    cols = ["t"] + [f"Z_{i}" for i in range(1, dim + 1)]
    blocks = [traj.times, traj.z]
    if jac is not None:
        cols += [f"J_{i}" for i in range(1, dim + 1)]
        blocks.append(jac)
    cols += [f"L_{i}" for i in range(1, dim + 1)] + ["faces"]
    blocks += [traj.ell, traj.face_log]
    body = np.column_stack(blocks)
    row_fmt = ",".join(["%.17g"] * body.shape[1]) + "\n"
    with open_text_target(target) as fh:
        fh.write(f"# seed={traj.seed} stream={traj.stream} dt={traj.dt:.17g}\n")
        fh.write(",".join(cols) + "\n")
        for start in range(0, body.shape[0], CSV_BLOCK_ROWS):
            rows = body[start:start + CSV_BLOCK_ROWS]
            fh.write(row_fmt * rows.shape[0] % tuple(rows.ravel().tolist()))
