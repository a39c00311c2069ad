"""Small dense symmetric-matrix helpers shared by all samplers.

Everything here targets covariance-sized problems (d <= ~20): numpy's
dense eigh/cholesky are the whole engine, wrapped with the symmetry and
PSD-clamping contracts the samplers rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import DecompositionFailure, NonSymmetricCovariance

SYMMETRY_TOLERANCE = 1e-10


def require_symmetric(a: np.ndarray, tol: float = SYMMETRY_TOLERANCE) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricCovariance(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    gap = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if gap > tol * scale:
        raise NonSymmetricCovariance(f"asymmetry {gap:g} exceeds tolerance {tol * scale:g}")
    return a


def svd_symmetric(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric PSD matrix as (U, eigenvalues).

    Eigenvalues are clamped at zero and sorted descending; columns of U are
    the matching orthonormal basis, so a = U @ diag(lam) @ U.T for PSD input.
    """
    a = require_symmetric(a)
    eigenvalues, vectors = np.linalg.eigh(0.5 * (a + a.T))
    order = np.argsort(eigenvalues)[::-1]
    lam = np.maximum(eigenvalues[order], 0.0)
    return vectors[:, order], lam


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """A factor L with L @ L.T == a for symmetric PSD a.

    Cholesky when a is positive definite; otherwise the eigendecomposition
    square root, which maps null directions to exact zeros (rank-deficient
    adaptive covariances are routine here). Escalating diagonal jitter is a
    last resort if eigh itself fails to converge.
    """
    a = require_symmetric(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    try:
        u, lam = svd_symmetric(a)
        return u * np.sqrt(lam)
    except np.linalg.LinAlgError:
        pass
    d = a.shape[0]
    jitter = 1e-12 * float(np.trace(a)) / max(d, 1)
    if jitter <= 0.0:
        jitter = 1e-12
    for _ in range(3):
        try:
            return np.linalg.cholesky(a + jitter * np.eye(d))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise DecompositionFailure(f"factorization failed after jitter escalation to {jitter:g}")


def sample_gaussian(
    mean: np.ndarray, covariance: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw mean + L z with L L^T = covariance and z standard normal.

    Null directions of a singular covariance come back exactly equal to the
    mean components. Raises NonSymmetricCovariance / DecompositionFailure.
    """
    mean = np.asarray(mean, dtype=float)
    factor = psd_sqrt(covariance)
    z = rng.standard_normal(mean.size)
    return mean + factor @ z


def gaussian_logpdf(x: np.ndarray, mean: np.ndarray, covariance: np.ndarray) -> float:
    """Log density of N(mean, covariance) at x; covariance must be PD.

    Raises NonSymmetricCovariance, or DecompositionFailure when the
    covariance is not positive definite.
    """
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    covariance = require_symmetric(covariance)
    try:
        factor = np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(f"covariance is not positive definite: {exc}") from exc
    diff = x - mean
    y = np.linalg.solve(factor, diff)
    log_det = 2.0 * float(np.sum(np.log(np.diag(factor))))
    d = x.size
    return -0.5 * (d * np.log(2.0 * np.pi) + log_det + float(y @ y))
