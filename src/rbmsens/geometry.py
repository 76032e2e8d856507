"""Polyhedral cone geometry for reflected Brownian motion.

The state space is a simple convex cone

    G = { x in R^J : <x, n_i> >= 0, i = 1..J }

with one unit inward normal n_i and one oblique reflection direction
d_i per face, normalized so that <d_i, n_i> = 1.  Writing N and R for
the matrices with columns n_i and d_i, the matrix

    Q = E - N^T R

must be entrywise nonnegative with spectral radius strictly below one
(the completely-S / M-matrix regime).  Under that condition the weight
vector v = (N^T R)^{-1} 1 is strictly positive and defines the norm

    ||y||_B = max_i |c_i| / v_i   where   y = R c,

whose unit ball is the polytope R diag(v) [-1, 1]^J.  All contraction
estimates elsewhere in the package measure vectors in this norm.

This module owns the model container, validation (rho(Q) is the
largest eigenvalue modulus from ``np.linalg.eigvals``), the norm
construction, active-face lookup, and the drift stability test.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GeometryError

logger = logging.getLogger(__name__)

__all__ = [
    "ConeModel",
    "BNorm",
    "CheckResult",
    "ValidationReport",
    "face_mask",
    "face_set",
    "validate_cone",
    "spectral_radius",
    "build_b_norm",
    "active_faces",
    "default_face_tol",
    "drift_stability_check",
    "perturbed_model",
]


def _as_array(value, shape: tuple, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise GeometryError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise GeometryError(f"{name} has entries that are not finite")
    return arr


@dataclass(frozen=True, eq=False)
class ConeModel:
    """Cone geometry plus drift/dispersion data and their parameter derivatives.

    Matrices store one face per column: ``normals[:, i]`` is n_i and
    ``reflections[:, i]`` is d_i.  On construction each n_i is rescaled
    to unit length and each d_i to <d_i, n_i> = 1; the stored arrays
    are then frozen.  Derivative fields default to zero, which models a
    parameter the corresponding coefficient does not depend on.

    Parameters
    ----------
    normals : (J, J) array_like
        Inward face normals, linearly independent columns.
    reflections : (J, J) array_like
        Oblique reflection directions, column i transversal to face i.
    drift : (J,) array_like
        Drift vector b.
    dispersion : (J, J) array_like
        Dispersion matrix sigma (noise enters as sigma dW).
    drift_deriv, dispersion_deriv, reflection_deriv : array_like, optional
        Derivatives b', sigma', R' with respect to the scalar model
        parameter.  Omitted fields are zero.

    Raises
    ------
    GeometryError
        On shape mismatch, an entry that is not finite, a zero normal,
        or <d_i, n_i> <= 0 (the direction would be tangent to or point
        out of its face).
    """

    normals: np.ndarray
    reflections: np.ndarray
    drift: np.ndarray
    dispersion: np.ndarray
    drift_deriv: np.ndarray | None = None
    dispersion_deriv: np.ndarray | None = None
    reflection_deriv: np.ndarray | None = None

    def __post_init__(self):
        N = np.array(self.normals, dtype=float)
        dim = N.shape[0] if N.ndim else 0
        N = _as_array(N, (dim, dim), "normals")

        lengths = np.linalg.norm(N, axis=0)
        if np.any(lengths < 1e-14):
            bad = int(np.argmin(lengths))
            raise GeometryError(f"normal n_{bad + 1} is (numerically) zero")
        N = N / lengths

        R = _as_array(self.reflections, (dim, dim), "reflections")
        diag = np.einsum("ji,ji->i", N, R)
        if np.any(diag <= 1e-14):
            bad = int(np.argmin(diag))
            raise GeometryError(
                f"reflection d_{bad + 1} has <d, n> = {diag[bad]:.3e} <= 0; "
                "it must point into its face's half space"
            )
        R = R / diag

        b = _as_array(self.drift, (dim,), "drift")
        sigma = _as_array(self.dispersion, (dim, dim), "dispersion")

        def optional(value, shape, name):
            return np.zeros(shape) if value is None else _as_array(value, shape, name)

        b_prime = optional(self.drift_deriv, (dim,), "drift_deriv")
        sigma_prime = optional(self.dispersion_deriv, (dim, dim), "dispersion_deriv")
        r_prime = optional(self.reflection_deriv, (dim, dim), "reflection_deriv")

        for name, arr in (("normals", N), ("reflections", R), ("drift", b),
                          ("dispersion", sigma), ("drift_deriv", b_prime),
                          ("dispersion_deriv", sigma_prime),
                          ("reflection_deriv", r_prime)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        """Number of coordinates J (equal to the number of faces)."""
        return self.normals.shape[0]

    def q_matrix(self) -> np.ndarray:
        """Return Q = E - N^T R, the off-face pushing couplings."""
        return np.identity(self.dim) - self.normals.T @ self.reflections


def face_mask(faces) -> int:
    """Pack a collection of 1-based face indices into a bitmask.

    Bit i-1 of the result is set when face i is in ``faces``.  The
    empty collection maps to 0.
    """
    mask = 0
    for i in faces:
        i = int(i)
        if i < 1:
            raise ValueError(f"face indices are 1-based, got {i}")
        mask |= 1 << (i - 1)
    return mask


def face_set(mask: int) -> frozenset[int]:
    """Unpack a face bitmask into a frozenset of 1-based indices."""
    if mask < 0:
        raise ValueError(f"face mask must be nonnegative, got {mask}")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


@dataclass(frozen=True, eq=False)
class CheckResult:
    """Outcome of a single validation check."""

    name: str
    passed: bool
    value: float | None = None
    detail: str = ""


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """All validation checks for one model, in the order they ran.

    ``accepted`` is True only when every check passed.  A report never
    raises; structurally broken inputs (wrong shapes) fail earlier, at
    model construction.
    """

    checks: tuple[CheckResult, ...]

    @property
    def accepted(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            val = "" if c.value is None else f" value={c.value:.6g}"
            det = f" ({c.detail})" if c.detail else ""
            lines.append(f"[{status}] {c.name}{val}{det}")
        return "\n".join(lines)


def spectral_radius(mat) -> float:
    """Spectral radius of an entrywise nonnegative square matrix.

    Returns max |lambda| over the eigenvalues from ``np.linalg.eigvals``.

    Parameters
    ----------
    mat : (J, J) array_like
        Nonnegative matrix.  Entries below -1e-9 raise ValueError;
        tiny negative noise is clipped to zero.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the eigenvalue computation does not converge.
    """
    Q = np.array(mat, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {Q.shape}")
    if Q.size and Q.min() < -1e-9:
        raise ValueError(f"matrix has negative entries (min {Q.min():.3e})")
    Q = np.maximum(Q, 0.0)
    return float(np.abs(np.linalg.eigvals(Q)).max())


def validate_cone(model: ConeModel, tol: float = 1e-12) -> ValidationReport:
    """Run the standing geometry checks and report each outcome.

    Checks, in order: the normals are linearly independent (via
    condition number), every reflection satisfies <d_i, n_i> = 1 after
    the constructor's normalization, Q = E - N^T R is entrywise
    nonnegative up to ``tol``, rho(Q) < 1, and sigma sigma^T is
    positive definite.  A model with singular or near-singular normals
    fails the first check and skips the Q-based ones (they would be
    meaningless), still returning a report rather than raising.
    """
    checks: list[CheckResult] = []
    N = model.normals
    dim = model.dim

    sv = np.linalg.svd(N, compute_uv=False)
    smallest = float(sv[-1])
    independent = smallest > 1e-10 * float(sv[0])
    checks.append(CheckResult(
        "normals-independent", independent, smallest,
        "" if independent else "normal matrix is numerically singular"))

    diag = np.einsum("ji,ji->i", N, model.reflections)
    norm_err = float(np.abs(diag - 1.0).max())
    checks.append(CheckResult(
        "reflections-normalized", norm_err <= 1e-10, norm_err))

    if independent:
        Q = model.q_matrix()
        min_entry = float(Q.min())
        checks.append(CheckResult(
            "q-nonnegative", min_entry >= -max(tol, 1e-12), min_entry,
            "" if min_entry >= -max(tol, 1e-12) else
            "E - N^T R has a negative entry; reflection field is not monotone"))
        try:
            rho = spectral_radius(np.maximum(Q, 0.0))
            checks.append(CheckResult(
                "q-spectral-radius", rho < 1.0, rho,
                "" if rho < 1.0 else "pushing couplings are not contracting"))
        except np.linalg.LinAlgError as err:
            checks.append(CheckResult(
                "q-spectral-radius", False, None,
                f"eigenvalue computation did not converge: {err}"))
    else:
        checks.append(CheckResult(
            "q-nonnegative", False, None, "skipped: normals are singular"))
        checks.append(CheckResult(
            "q-spectral-radius", False, None, "skipped: normals are singular"))

    a = model.dispersion @ model.dispersion.T
    eigs = np.linalg.eigvalsh(a)
    min_eig = float(eigs[0])
    checks.append(CheckResult(
        "covariance-positive-definite", min_eig > 1e-12 * max(float(eigs[-1]), 1.0),
        min_eig))

    report = ValidationReport(tuple(checks))
    if not report.accepted:
        logger.debug("cone model rejected:\n%s", report.summary())
    return report


@dataclass(frozen=True, eq=False)
class BNorm:
    """Weighted polyhedral norm adapted to the reflection geometry.

    For y = R c the norm is ``max_i |c_i| / v_i`` with strictly
    positive weights v; the unit ball is R diag(v) [-1, 1]^(J).  Its
    operator norm has a closed form used by the contraction probes:
    with D = diag(v),

        ||A||_B = max abs row sum of  D^{-1} R^{-1} A R D,

    which equals the maximum of ||A u||_B over the 2^J vertices
    u = R D s, s in {-1, +1}^J, of the unit ball.
    """

    weights: np.ndarray
    basis: np.ndarray
    basis_inv: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("weights", "basis", "basis_inv"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def value(self, y) -> float | np.ndarray:
        """||y||_B for a single vector or an array of row vectors."""
        y = np.asarray(y, dtype=float)
        c = y @ self.basis_inv.T
        scaled = np.abs(c) / self.weights
        return scaled.max(axis=-1)

    __call__ = value

    def operator_norm(self, a) -> float:
        """Exact induced norm sup_{||y||_B = 1} ||A y||_B of a matrix."""
        a = np.asarray(a, dtype=float)
        d = self.weights
        conj = (self.basis_inv @ a @ self.basis) * d[np.newaxis, :] / d[:, np.newaxis]
        return float(np.abs(conj).sum(axis=1).max())

    def ball_vertices(self) -> np.ndarray:
        """All 2^J vertices of the unit ball, one per row."""
        j = self.weights.shape[0]
        signs = np.array(
            [[1.0 if (k >> i) & 1 else -1.0 for i in range(j)] for k in range(2 ** j)])
        return (signs * self.weights) @ self.basis.T


def build_b_norm(model: ConeModel) -> BNorm:
    """Construct the contraction norm for an accepted model.

    Solves (N^T R) v = 1.  In the M-matrix regime the solution is
    strictly positive; a nonpositive component means the model should
    not have passed validation, and raises GeometryError.
    """
    ntr = model.normals.T @ model.reflections
    ones = np.ones(model.dim)
    try:
        v = np.linalg.solve(ntr, ones)
    except np.linalg.LinAlgError as err:
        raise GeometryError(f"N^T R is singular: {err}") from err
    if v.min() <= 0.0:
        raise GeometryError(
            f"norm weights are not strictly positive (v = {v}); "
            "the model is outside the contracting regime")
    back = ntr @ v
    if back.min() <= 0.0:
        raise GeometryError(f"weight equation check failed: N^T R v = {back}")
    try:
        basis_inv = np.linalg.inv(model.reflections)
    except np.linalg.LinAlgError as err:
        raise GeometryError(f"reflection matrix is singular: {err}") from err
    return BNorm(weights=v, basis=model.reflections.copy(), basis_inv=basis_inv)


def default_face_tol(x, base: float = 1e-9) -> float:
    """Scale-aware face tolerance, base * (1 + |x|)."""
    return base * (1.0 + float(np.linalg.norm(x)))


def active_faces(model: ConeModel, x, face_tol: float | None = None) -> frozenset[int]:
    """Faces within ``face_tol`` of the point x, as 1-based indices.

    Parameters
    ----------
    model : ConeModel
    x : (J,) array_like
        A point of the cone.
    face_tol : float, optional
        Activity threshold on <x, n_i>.  Defaults to 1e-9 * (1 + |x|).

    Raises
    ------
    GeometryError
        If x has the wrong shape or entries that are not finite.
    DomainError
        If some <x, n_i> < -face_tol, i.e. x lies outside the cone
        beyond the tolerance.
    """
    x = _as_array(x, (model.dim,), "x")
    if face_tol is None:
        face_tol = default_face_tol(x)
    heights = model.normals.T @ x
    if heights.min() < -face_tol:
        bad = int(np.argmin(heights)) + 1
        raise DomainError(
            f"point lies outside the cone: <x, n_{bad}> = {heights.min():.3e} "
            f"< -{face_tol:.3e}")
    return frozenset(int(i) + 1 for i in np.flatnonzero(heights <= face_tol))


def drift_stability_check(model: ConeModel) -> tuple[bool, np.ndarray]:
    """Test whether the drift points into the cone spanned by -d_i.

    Returns ``(stable, w)`` where w solves R w = -b.  The process is
    positive recurrent in the contracting regime exactly when every
    component of w is strictly positive, i.e. b = -sum_i w_i d_i with
    all w_i > 0.
    """
    w = np.linalg.solve(model.reflections, -model.drift)
    return bool(w.min() > 0.0), w


def perturbed_model(model: ConeModel, alpha: float) -> ConeModel:
    """Shift the model parameter by ``alpha`` to first order.

    Replaces b by b + alpha b', sigma by sigma + alpha sigma', and R by
    R + alpha R', keeping normals and all derivative fields as they
    are.  This is the reparameterization used by finite-difference
    checks and parameter sweeps; the caller should re-validate when
    alpha is large enough to threaten the M-matrix regime.

    For the shifted reflections to represent R' exactly, R' must be
    tangent to the normalization <d_i, n_i> = 1, i.e. have zero
    diagonal in normal coordinates (diag(N^T R') = 0).  Otherwise the
    constructor rescales the shifted columns and the realized
    perturbation is the tangential part of R' only.
    """
    return ConeModel(
        normals=model.normals.copy(),
        reflections=model.reflections + alpha * model.reflection_deriv,
        drift=model.drift + alpha * model.drift_deriv,
        dispersion=model.dispersion + alpha * model.dispersion_deriv,
        drift_deriv=model.drift_deriv.copy(),
        dispersion_deriv=model.dispersion_deriv.copy(),
        reflection_deriv=model.reflection_deriv.copy(),
    )
