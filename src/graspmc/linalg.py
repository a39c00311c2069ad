"""Small dense symmetric-matrix helpers shared by all samplers.

Everything here targets covariance-sized problems (d <= ~20): numpy's
dense eigh/cholesky are the whole engine, wrapped with the symmetry and
PSD-clamping contracts the samplers rely on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DecompositionFailure, NonSymmetricCovariance

SYMMETRY_TOLERANCE = 1e-10
LOG_2PI = np.log(2.0 * np.pi)


def require_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricCovariance(f"expected a square matrix, got shape {a.shape}")
    if (a == a.T).all():  # a zero gap passes every tolerance
        return a
    scale = max(1.0, float(np.max(np.abs(a))))  # an empty matrix returned above
    gap = float(np.max(np.abs(a - a.T)))
    tol = SYMMETRY_TOLERANCE * scale
    if gap > tol:
        raise NonSymmetricCovariance(f"asymmetry {gap:g} exceeds tolerance {tol:g}")
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


class Factored(NamedTuple):
    """A covariance factored once: L with L @ L.T == covariance, and
    log|covariance| when L is its Cholesky factor (None otherwise)."""

    factor: np.ndarray
    log_det: float | None


def factor_covariance(covariance: np.ndarray) -> Factored:
    """Factor a symmetric PSD covariance for `draw_gaussian` and
    `factored_logpdf`.

    Cholesky when the covariance is positive definite, with its log-det.
    Otherwise the `psd_sqrt` fallback (eigendecomposition square root, then
    jitter) with no log-det, so the draw still works and the density
    raises. Raises NonSymmetricCovariance / DecompositionFailure.
    """
    a = require_symmetric(covariance)
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return Factored(psd_sqrt(a), None)
    return Factored(factor, 2.0 * float(np.add.reduce(np.log(factor.diagonal()))))


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """A factor L with L @ L.T == a for a symmetric PSD a that Cholesky
    rejects.

    The eigendecomposition square root, which maps null directions to exact
    zeros (rank-deficient adaptive covariances are routine here). Escalating
    diagonal jitter is a last resort if eigh itself fails to converge.
    """
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


def draw_gaussian(mean: np.ndarray, factored: Factored, rng: np.random.Generator) -> np.ndarray:
    """Draw mean + L z with z standard normal.

    Null directions of a singular covariance come back exactly equal to the
    mean components.
    """
    mean = np.asarray(mean, dtype=float)
    z = rng.standard_normal(mean.size)
    return mean + factored.factor @ z


def factored_logpdf(x: np.ndarray, mean: np.ndarray, factored: Factored) -> float:
    """Log density of N(mean, L L^T) at x; raises DecompositionFailure when
    the covariance was not positive definite (no log-det)."""
    if factored.log_det is None:
        raise DecompositionFailure("covariance is not positive definite")
    x = np.asarray(x, dtype=float)
    diff = x - np.asarray(mean, dtype=float)
    y = np.linalg.solve(factored.factor, diff)
    d = x.size
    return -0.5 * (d * LOG_2PI + factored.log_det + float(y @ y))


def sample_gaussian(
    mean: np.ndarray, covariance: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """`draw_gaussian` from a covariance. Raises NonSymmetricCovariance /
    DecompositionFailure."""
    return draw_gaussian(mean, factor_covariance(covariance), rng)


def gaussian_logpdf(x: np.ndarray, mean: np.ndarray, covariance: np.ndarray) -> float:
    """`factored_logpdf` from a covariance, which must be PD. Raises
    NonSymmetricCovariance, or DecompositionFailure when the covariance is
    not positive definite."""
    return factored_logpdf(x, mean, factor_covariance(covariance))
