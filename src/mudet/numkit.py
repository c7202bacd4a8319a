"""Dense complex linear-algebra kernels shared by every detector.

Thin QR from LAPACK, a sorted Gram-Schmidt QR with a greedy
weakest-column-first pivot order, Cholesky factorization, the
inverse-square-root whitener, and Hermitian solves. Matrices are plain
complex ``numpy`` arrays; the factorization results are small frozen
dataclasses.

Conventions
-----------
* Thin QR: for an ``n x m`` input with ``n >= m``, ``q`` is ``n x m`` with
  orthonormal columns and ``r`` is ``m x m`` upper triangular.
* The diagonal of ``r`` is forced real and positive by absorbing phases
  into ``q``, which makes factorizations unique and regression tests
  deterministic.
* Permutations are index arrays: ``perm[j]`` is the original column that
  ended up at position ``j`` of the factorized matrix, so
  ``q @ r == a[:, perm]``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, RankDeficientError

# Pivots below RANK_TOL * ||a||_F mean a numerically singular input: fail
# loudly instead of producing garbage triangular factors.
RANK_TOL = 1e-12

# Residual column norms within this relative distance are treated as tied;
# ties resolve to the lowest original column index.
SORT_TIE_REL = 1e-12

HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class SortedQR:
    """Result of :func:`sorted_qr`: ``q @ r == a[:, perm]``."""

    q: np.ndarray
    r: np.ndarray
    perm: np.ndarray


def as_complex_matrix(a, name: str = "a") -> np.ndarray:
    """Validate and convert ``a`` to a 2-D complex array with finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _frobenius(a) -> float:
    """``np.linalg.norm(a)`` of a complex array, by the formula it runs."""
    x = a.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _tall_input(a):
    """Validated ``n x m`` input with ``n >= m`` and its rank threshold."""
    a = as_complex_matrix(a)
    n, m = a.shape
    if n < m:
        raise ValueError(f"need rows >= cols, got {n} x {m}")
    return a, RANK_TOL * _frobenius(a)


def _check_pivot(k: int, magnitude: float, threshold: float) -> None:
    if magnitude <= threshold:
        raise RankDeficientError(f"pivot {k} has magnitude {magnitude:.3e} <= {threshold:.3e}")


def qr_decompose(a) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR (LAPACK, via ``numpy``) with real positive diagonal.

    Parameters
    ----------
    a : array_like
        Complex matrix with at least as many rows as columns and full
        column rank.

    Returns
    -------
    (q, r) : tuple of ndarray
        ``q`` orthonormal columns, ``r`` upper triangular, ``q @ r == a``.

    Raises
    ------
    RankDeficientError
        If a pivot magnitude falls below ``RANK_TOL * ||a||_F``.
    """
    a, threshold = _tall_input(a)
    q, r = np.linalg.qr(a)
    diag = np.abs(r.diagonal())
    for k in np.flatnonzero(diag <= threshold)[:1]:  # the first pivot too small, if any
        _check_pivot(k, diag[k], threshold)
    phases = r.diagonal() / diag
    q = q * phases
    r = r * phases.conj()[:, None]
    r.flat[:: r.shape[0] + 1] = diag
    return q, r


def sorted_qr(a) -> SortedQR:
    """QR with greedy weakest-column-first ordering (sorted Gram-Schmidt).

    Each step selects the remaining column with minimum residual norm (its
    norm after projecting out every selected column), so the leading
    diagonal entries of ``r`` are the weakest layers and a back-substitution
    detector resolves the strongest layer first. Ties go to the lowest
    original column index. This is the modified Gram-Schmidt sorted QR of
    Wubben et al., "Efficient algorithm for decoding layered space-time
    codes" (Electronics Letters, 2001). Raises ``RankDeficientError`` like
    :func:`qr_decompose`.
    """
    a, threshold = _tall_input(a)
    n, m = a.shape
    resid = a.copy()
    q = np.zeros((n, m), dtype=complex)
    coef = np.zeros((m, m), dtype=complex)  # rows of r, columns in input order
    perm = np.empty(m, dtype=int)
    left = np.arange(m)
    for k in range(m):
        i = 0
        if k < m - 1:  # the last column is picked and never updated
            block = resid[:, left]
            # the column norms np.linalg.norm(block, axis=0) computes
            norms = np.sqrt(np.add.reduce((block.conj() * block).real, axis=0))
            # left stays ascending, so a tie goes to the lowest original index
            i = int((norms <= norms.min() * (1.0 + SORT_TIE_REL)).argmax())
        j = perm[k] = left[i]
        col = resid[:, j]
        if k:
            # Projecting the pivot once more on the chosen basis keeps q
            # orthonormal to machine precision on ill-conditioned inputs.
            extra = q[:, :k].conj().T @ col
            coef[:k, j] += extra
            col = col - q[:, :k] @ extra
        # the vector norm np.linalg.norm(col) computes
        rkk = math.sqrt(col.real.dot(col.real) + col.imag.dot(col.imag))
        _check_pivot(k, rkk, threshold)
        coef[k, j] = rkk
        q[:, k] = unit = col / rkk
        if k < m - 1:
            keep = np.arange(left.size) != i
            left, block = left[keep], block[:, keep]
            coef[k, left] = row = unit.conj() @ block
            resid[:, left] = block - unit[:, None] * row
    return SortedQR(q=q, r=coef[:, perm], perm=perm)


def cholesky(a) -> np.ndarray:
    """Lower Cholesky factor ``l`` with ``l @ l.conj().T == a``.

    ``a`` must be Hermitian (checked to ``HERMITIAN_TOL`` relative) and
    positive definite. Backed by LAPACK via ``numpy``.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot is non-positive; callers holding a covariance estimate
        should apply diagonal loading and retry.
    """
    a = as_complex_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n} x {m}")
    if _frobenius(a - a.conj().T) > HERMITIAN_TOL * max(_frobenius(a), 1e-300):
        raise ValueError("matrix is not Hermitian")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def inv_sqrt(r_uu) -> np.ndarray:
    """Whitening filter ``w`` with ``w @ r_uu @ w.conj().T == I``.

    ``w`` is the inverse of the lower Cholesky factor of ``r_uu``; any
    matrix satisfying the identity whitens, and this one is the cheapest.
    """
    return np.linalg.inv(cholesky(r_uu))


def solve_hermitian(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for Hermitian positive-definite ``a``.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    low = cholesky(a)
    b = np.asarray(b, dtype=complex)
    y = np.linalg.solve(low, b)
    return np.linalg.solve(low.conj().T, y)
