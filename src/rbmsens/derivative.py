"""Pathwise derivative recursion and contraction diagnostics.

The parameter derivative J of the reflected process evolves by free
increments between boundary visits and is projected whenever faces are
active.  For a face set I the projection

    L_I = E - R_I (N_I^T R_I)^{-1} N_I^T

maps onto the subspace { y : N_I^T y = 0 } along span{ d_i, i in I };
the empty set gives the identity and the full set the zero matrix.
Between visits the derivative accumulates the free-motion sensitivity

    dpsi = b' dt + sigma' dW + R' dell.

In the contraction norm every L_I is nonexpansive, and products along
face sequences that visit every face have norm strictly below one;
``estimate_delta0`` probes such products to produce the per-cycle decay
rate used by coupling bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DomainError, GeometryError
from .geometry import BNorm, ConeModel, active_faces, build_b_norm, face_mask, face_set

__all__ = [
    "DerivativeState",
    "OperatorCache",
    "derivative_projection",
    "derivative_step",
    "psi_increment",
    "subspace_gap",
    "contraction_probe",
    "delta0_probes",
    "estimate_delta0",
]

#: A projection is considered to have moved the state when the update
#: differs by more than this (max norm); used for jump bookkeeping.
JUMP_TOL = 1e-12

@dataclass(frozen=True)
class DerivativeState:
    """Derivative value together with the last projection time.

    ``last_jump_time`` is None until the first projection that
    actually moves the value.
    """

    value: np.ndarray
    last_jump_time: float | None = None

    def __post_init__(self):
        v = np.array(self.value, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "value", v)


def derivative_projection(model: ConeModel, faces) -> np.ndarray:
    """Build the read-only matrix L_I for the face set ``faces`` (1-based).

    The full face set returns an exact zero matrix and the empty set
    an exact identity, so that interior steps and total pins are free
    of rounding noise.
    """
    faces = frozenset(int(i) for i in faces)
    dim = model.dim
    if any(i < 1 or i > dim for i in faces):
        raise ValueError(f"face indices must lie in 1..{dim}, got {sorted(faces)}")
    if not faces:
        matrix = np.identity(dim)
    elif len(faces) == dim:
        matrix = np.zeros((dim, dim))
    else:
        idx = sorted(i - 1 for i in faces)
        n_i = model.normals[:, idx]
        r_i = model.reflections[:, idx]
        try:
            core = np.linalg.solve(n_i.T @ r_i, n_i.T)
        except np.linalg.LinAlgError as err:
            raise GeometryError(
                f"face block N_I^T R_I is singular for I={sorted(faces)}: {err}") from err
        matrix = np.identity(dim) - r_i @ core
    matrix.setflags(write=False)
    return matrix


class OperatorCache:
    """Projections of one model, built on first use and kept by bitmask.

    ``get`` accepts a bitmask or any iterable of 1-based indices.
    """

    def __init__(self, model: ConeModel):
        self.model = model
        self._ops: dict[int, np.ndarray] = {}

    def get(self, faces) -> np.ndarray:
        mask = int(faces) if isinstance(faces, (int, np.integer)) else face_mask(faces)
        op = self._ops.get(mask)
        if op is None:
            op = self._ops[mask] = derivative_projection(self.model, face_set(mask))
        return op


def psi_increment(model: ConeModel, dt: float, delta_w, delta_ell) -> np.ndarray:
    """Free-motion sensitivity increment b' dt + sigma' dW + R' dell."""
    delta_w = np.asarray(delta_w, dtype=float)
    delta_ell = np.asarray(delta_ell, dtype=float)
    return (model.drift_deriv * dt + model.dispersion_deriv @ delta_w
            + model.reflection_deriv @ delta_ell)


def derivative_step(cache: OperatorCache, state: DerivativeState, delta_psi,
                    faces_after, t: float | None = None) -> DerivativeState:
    """Advance the derivative by one step.

    Adds the free increment, then projects with the operator of the
    faces active after the move.  An interior step (no active faces)
    is a bit-exact addition; a projection that moves the value by more
    than ``JUMP_TOL`` updates ``last_jump_time`` to ``t``.
    """
    moved = state.value + np.asarray(delta_psi, dtype=float)
    if isinstance(faces_after, (int, np.integer)):
        mask = int(faces_after)
    else:
        mask = face_mask(faces_after)
    if mask == 0:
        return DerivativeState(moved, state.last_jump_time)
    projected = cache.get(mask) @ moved
    jump_time = state.last_jump_time
    if np.abs(projected - moved).max() > JUMP_TOL:
        jump_time = t if t is not None else jump_time
    return DerivativeState(projected, jump_time)


def subspace_gap(model: ConeModel, x, value, face_tol: float | None = None) -> float:
    """How far ``value`` is from the constraint subspace at x.

    Returns max_i |<n_i, value>| over the faces active at x; zero when
    no face is active.  Raises DomainError when x itself is outside
    the cone.
    """
    faces = active_faces(model, x, face_tol)
    if not faces:
        return 0.0
    idx = sorted(i - 1 for i in faces)
    heights = model.normals[:, idx].T @ np.asarray(value, dtype=float)
    return float(np.abs(heights).max())


def contraction_probe(model: ConeModel, face_sets, bnorm: BNorm | None = None) -> float:
    """Contraction norm of the projection product along a face sequence.

    ``face_sets`` lists the visited sets in time order; the probe is
    ||L_{I_K} ... L_{I_1}||_B, the worst-case factor by which the
    sequence shrinks a derivative difference.
    """
    if bnorm is None:
        bnorm = build_b_norm(model)
    product = np.identity(model.dim)
    for faces in face_sets:
        product = derivative_projection(model, faces) @ product
    return bnorm.operator_norm(product)


def _random_covering_sequence(rng: np.random.Generator, dim: int, max_len: int):
    singles = [frozenset([i]) for i in rng.permutation(dim) + 1]
    extras = []
    for _ in range(int(rng.integers(0, max(max_len - dim, 1)))):
        mask = int(rng.integers(1, 2 ** dim))
        extras.append(face_set(mask))
    seq = singles + extras
    rng.shuffle(seq)
    return tuple(seq)


def delta0_probes(model: ConeModel, n_sequences: int = 200,
                  max_len: int | None = None, seed: int = 0,
                  bnorm: BNorm | None = None):
    """Probe covering face sequences and report each product norm.

    Returns (sequence, norm) pairs: ``n_sequences`` random covering
    sequences plus deterministic ones (every permutation of the
    singletons when J <= 5, and the all-faces set).  Every sequence
    visits each face at least once, so the largest probed norm is a
    lower bound on the supremum over all covering sequences; it is the
    quantity reported by ``estimate_delta0``.
    """
    if bnorm is None:
        bnorm = build_b_norm(model)
    dim = model.dim
    if max_len is None:
        max_len = 2 * dim + 2
    rng = np.random.default_rng(seed)
    sequences = [_random_covering_sequence(rng, dim, max_len)
                 for _ in range(n_sequences)]
    if dim <= 5:
        for perm in permutations(range(1, dim + 1)):
            sequences.append(tuple(frozenset([i]) for i in perm))
    sequences.append((frozenset(range(1, dim + 1)),))
    seen = set()
    table = []
    for seq in sequences:
        if seq in seen:
            continue
        seen.add(seq)
        table.append((seq, contraction_probe(model, seq, bnorm)))
    return table


def estimate_delta0(model: ConeModel, n_sequences: int = 200,
                    max_len: int | None = None, seed: int = 0,
                    bnorm: BNorm | None = None) -> float:
    """Empirical per-cycle contraction rate.

    The maximum probed norm over covering sequences.  It
    underestimates the true supremum in general; for J <= 2 the
    deterministic probes exhaust the extreme sequences and the value
    is exact.
    """
    table = delta0_probes(model, n_sequences, max_len, seed, bnorm)
    return max(value for _, value in table)
