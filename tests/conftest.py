"""Shared model builders for the test suite.

The random generator produces models that are accepted by construction:
Q is sampled nonnegative with spectral radius scaled below a target,
the reflections are recovered as R = N^{-T}(E - Q), and the drift is
assembled as b = -R w with positive w so it is always stable.
"""

from __future__ import annotations

import numpy as np
import pytest

from rbmsens.geometry import ConeModel


def orthant_model(dim: int = 2, drift=None, drift_deriv=None) -> ConeModel:
    """Normal reflection on the nonnegative orthant."""
    eye = np.identity(dim)
    if drift is None:
        drift = -np.ones(dim)
    return ConeModel(normals=eye, reflections=eye, drift=drift,
                     dispersion=eye, drift_deriv=drift_deriv)


def halfline_model(drift: float = -1.0, sigma: float = 1.0,
                   drift_deriv: float = 0.0) -> ConeModel:
    return ConeModel(normals=[[1.0]], reflections=[[1.0]], drift=[drift],
                     dispersion=[[sigma]], drift_deriv=[drift_deriv])


def triangular_model() -> ConeModel:
    """Orthant normals with one oblique direction: d_1 = (1, -0.5).

    Q = E - N^T R = [[0, 0], [0.5, 0]] is nilpotent, so the model sits
    strictly inside the contracting regime with zero spectral radius.
    """
    return ConeModel(
        normals=np.identity(2),
        reflections=[[1.0, 0.0], [-0.5, 1.0]],
        drift=[-1.0, -1.0],
        dispersion=np.identity(2),
    )


def hr2d_model(drift_deriv=(1.0, 0.0)) -> ConeModel:
    """Symmetric oblique pair on the orthant, R = [[1, -0.3], [-0.3, 1]]."""
    return ConeModel(
        normals=np.identity(2),
        reflections=[[1.0, -0.3], [-0.3, 1.0]],
        drift=[-1.0, -1.0],
        dispersion=np.identity(2),
        drift_deriv=drift_deriv,
    )


def rho97_model(drift_deriv=(1.0, 0.0)) -> ConeModel:
    """Orthant pair with R = [[1, -0.97], [-0.97, 1]], so rho(Q) = 0.97.

    Accepted by ``validate_cone`` and drift-stable (R w = -b at
    w = (1, 1)), but a fixed-point reflection solve contracts only by
    0.97 per iteration at the corner.
    """
    return ConeModel(
        normals=np.identity(2),
        reflections=[[1.0, -0.97], [-0.97, 1.0]],
        drift=[-0.03, -0.03],
        dispersion=np.identity(2),
        drift_deriv=drift_deriv,
    )


def paired_five_face_model() -> ConeModel:
    """Five-face orthant cone with rho(Q) = 0.5 and a zero fifth row of Q.

    Q couples faces 1-2 at 0.5, faces 3-4 at 0.4999, and face 1 to
    face 3 at 0.1; R = E - Q, drift -1, dispersion E.  The zero row
    pins the Collatz-Wielandt lower bound of Q at 0, so a power
    iteration bracketed by those ratios never closes on this model.
    """
    q = np.zeros((5, 5))
    q[0, 1] = q[1, 0] = 0.5
    q[2, 3] = q[3, 2] = 0.4999
    q[0, 2] = 0.1
    return ConeModel(normals=np.identity(5), reflections=np.identity(5) - q,
                     drift=-np.ones(5), dispersion=np.identity(5))


def random_cone_model(rng: np.random.Generator, dim: int | None = None,
                      rho_cap: float = 0.8, oblique_normals: bool = True,
                      with_derivs: bool = False) -> ConeModel:
    """Sample an accepted, drift-stable model.

    Q is uniform nonnegative with zero diagonal, rescaled so its
    spectral radius lands uniformly in (0.1, rho_cap]; normals are a
    well-conditioned perturbation of the identity (or the identity
    itself); R follows from N^T R = E - Q; the drift is -R w for
    positive w.
    """
    if dim is None:
        dim = int(rng.integers(1, 5))
    if dim == 1 or not oblique_normals:
        N = np.identity(dim)
    else:
        while True:
            N = np.identity(dim) + 0.3 * rng.normal(size=(dim, dim))
            N /= np.linalg.norm(N, axis=0)
            if np.linalg.svd(N, compute_uv=False)[-1] > 0.3:
                break
    Q = rng.uniform(size=(dim, dim))
    np.fill_diagonal(Q, 0.0)
    radius = np.abs(np.linalg.eigvals(Q)).max() if dim > 1 else 0.0
    if radius > 0.0:
        Q *= rng.uniform(0.1, rho_cap) / radius
    R = np.linalg.solve(N.T, np.identity(dim) - Q)
    w = rng.uniform(0.2, 2.0, size=dim)
    drift = -R @ w
    while True:
        sigma = np.identity(dim) + 0.2 * rng.normal(size=(dim, dim))
        if abs(np.linalg.det(sigma)) > 0.1:
            break
    kwargs = {}
    if with_derivs:
        q_prime = 0.3 * rng.uniform(size=(dim, dim))
        np.fill_diagonal(q_prime, 0.0)
        kwargs = dict(
            drift_deriv=rng.normal(size=dim),
            dispersion_deriv=0.2 * rng.normal(size=(dim, dim)),
            reflection_deriv=-np.linalg.solve(N.T, q_prime),
        )
    return ConeModel(normals=N, reflections=R, drift=drift,
                     dispersion=sigma, **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
