import numpy as np
import pytest

from mudet import numkit
from mudet.errors import NotPositiveDefiniteError, RankDeficientError
from mudet.numkit import (
    HERMITIAN_TOL,
    RANK_TOL,
    SORT_TIE_REL,
    _frobenius,
    cholesky,
    inv_sqrt,
    solve_hermitian,
    sorted_qr,
)

from conftest import crandn


def random_pd(rng, n):
    b = crandn(rng, n, n)
    return b @ b.conj().T + np.eye(n)


# --- QR shape, phase and rank checks -----------------------------------------


def test_qr_identity():
    sq = sorted_qr(np.eye(3))
    assert np.allclose(sq.q, np.eye(3)) and np.allclose(sq.r, np.eye(3))
    assert sq.perm.tolist() == [0, 1, 2]


def test_qr_345_column():
    sq = sorted_qr([[3.0], [4.0]])
    assert np.allclose(sq.q.ravel(), [0.6, 0.8])
    assert np.allclose(sq.r, [[5.0]])


def test_qr_random_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, n + 1))
        a = crandn(rng, n, m)
        sq = sorted_qr(a)
        q, r = sq.q, sq.r
        assert np.linalg.norm(q.conj().T @ q - np.eye(m)) <= 1e-10 * m
        assert np.linalg.norm(q @ r - a[:, sq.perm]) <= 1e-10 * np.linalg.norm(a)
        diag = np.diag(r)
        assert np.all(diag.imag == 0) and np.all(diag.real > 0)
        assert np.all(r[np.tril_indices(m, -1)] == 0)


def test_qr_seeded_8x4():
    rng = np.random.default_rng(42)
    a = crandn(rng, 8, 4)
    sq = sorted_qr(a)
    assert np.linalg.norm(sq.q.conj().T @ sq.q - np.eye(4)) <= 1e-10 * 4
    assert np.linalg.norm(sq.q @ sq.r - a[:, sq.perm]) <= 1e-10 * np.linalg.norm(a)


def test_qr_rank_deficient_raises():
    with pytest.raises(RankDeficientError):
        sorted_qr([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(RankDeficientError):
        sorted_qr([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [2.0, 1.0, 3.0]])


def test_qr_rejects_bad_input():
    with pytest.raises(ValueError):
        sorted_qr(np.ones((2, 3)))  # rows < cols
    with pytest.raises(ValueError):
        sorted_qr(np.array([[np.nan], [1.0]]))


# --- sorted QR --------------------------------------------------------------


def test_sorted_qr_weak_column_first():
    sq = sorted_qr(np.array([[10.0, 0.0], [0.0, 1.0]]))
    assert list(sq.perm) == [1, 0]
    assert abs(sq.r[0, 0] - 1.0) < 1e-12


def test_sorted_qr_tie_prefers_lowest_index():
    sq = sorted_qr(np.eye(4))
    assert list(sq.perm) == [0, 1, 2, 3]
    assert np.allclose(np.diag(sq.r), 1.0)


def _greedy_oracle(a):
    """Independent greedy ordering via explicit projections."""
    m = a.shape[1]
    chosen: list[int] = []
    remaining = list(range(m))
    basis = np.zeros((a.shape[0], 0), dtype=complex)
    for _ in range(m):
        resid = {}
        for j in remaining:
            col = a[:, j]
            if basis.shape[1]:
                coef, *_ = np.linalg.lstsq(basis, col, rcond=None)
                col = col - basis @ coef
            resid[j] = np.linalg.norm(col)
        best = min(resid[j] for j in remaining)
        pick = min(j for j in remaining if resid[j] <= best * (1 + 1e-9))
        chosen.append(pick)
        remaining.remove(pick)
        col = a[:, pick]
        if basis.shape[1]:
            coef, *_ = np.linalg.lstsq(basis, col, rcond=None)
            col = col - basis @ coef
        basis = np.hstack([basis, (col / np.linalg.norm(col))[:, None]])
    return chosen


def test_sorted_qr_greedy_matches_projection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(3, 10))
        m = int(rng.integers(2, min(n, 6) + 1))
        a = crandn(rng, n, m)
        sq = sorted_qr(a)
        assert list(sq.perm) == _greedy_oracle(a)
        assert np.linalg.norm(sq.q @ sq.r - a[:, sq.perm]) <= 1e-10 * np.linalg.norm(a)
        # step-1 greedy optimality: r11 is the smallest column norm
        assert abs(sq.r[0, 0] - np.linalg.norm(a, axis=0).min()) < 1e-9


def _with_condition_number(rng, n, m, kappa):
    """Random complex n x m matrix, singular values log-spaced from 1 to 1/kappa."""
    u, _ = np.linalg.qr(crandn(rng, n, m))
    v, _ = np.linalg.qr(crandn(rng, m, m))
    return (u * np.logspace(0, -np.log10(kappa), m)) @ v.conj().T


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8])
def test_sorted_qr_orthonormal_when_ill_conditioned(kappa):
    rng = np.random.default_rng(13)
    for _ in range(20):
        sq = sorted_qr(_with_condition_number(rng, 20, 4, kappa))
        assert np.linalg.norm(sq.q.conj().T @ sq.q - np.eye(4)) <= 1e-12


def test_sorted_qr_r_equals_plain_qr_of_permuted_input():
    rng = np.random.default_rng(17)
    inputs = [crandn(rng, int(n), int(m)) for n, m in rng.integers(1, 9, (40, 2)) if n >= m]
    inputs += [_with_condition_number(rng, 20, 4, 1e6) for _ in range(10)]
    for a in inputs:
        sq = sorted_qr(a)
        _, r = _plain_qr(a[:, sq.perm])
        assert np.max(np.abs(sq.r - r)) <= 1e-10


def _sorted_qr_loop(a):
    """Sorted Gram-Schmidt QR written with ``np.linalg.norm`` and a full-width
    residual matrix, as ``sorted_qr`` was before it called the norm formulas
    directly and kept only the residuals of the columns not yet picked."""
    a = np.asarray(a, dtype=complex)
    n, m = a.shape
    resid = a.copy()
    q = np.zeros((n, m), dtype=complex)
    coef = np.zeros((m, m), dtype=complex)
    perm = np.empty(m, dtype=int)
    left = np.arange(m)
    for k in range(m):
        norms = np.linalg.norm(resid[:, left], axis=0)
        j = left[np.argmax(norms <= norms.min() * (1.0 + SORT_TIE_REL))]
        perm[k] = j
        left = left[left != j]
        extra = q[:, :k].conj().T @ resid[:, j]
        coef[:k, j] += extra
        col = resid[:, j] - q[:, :k] @ extra
        rkk = np.linalg.norm(col)
        coef[k, j] = rkk
        q[:, k] = col / rkk
        coef[k, left] = q[:, k].conj() @ resid[:, left]
        resid[:, left] -= np.outer(q[:, k], coef[k, left])
    return q, coef[:, perm], perm


def test_sorted_qr_matches_norm_loop(monkeypatch):
    # the order is always the loop's; q and r are the loop's bits when the
    # Gram residuals hand the input to it, else the plain QR of a[:, perm]
    fallbacks = []
    sorted_mgs = numkit._sorted_mgs
    monkeypatch.setattr(numkit, "_sorted_mgs", lambda *args: fallbacks.append(1) or sorted_mgs(*args))
    rng = np.random.default_rng(23)
    inputs = []
    for _ in range(60):
        # the regularized 20 x 4 extended channel of a 16 x 4 scenario
        h = crandn(rng, 16, 4)
        inputs.append(np.vstack([h, np.sqrt(rng.uniform(1e-3, 1.0)) * np.eye(4)]))
        inputs += [crandn(rng, 4, 4), crandn(rng, 8, 3), crandn(rng, 64, 16)]
    inputs += [_with_condition_number(rng, 20, 4, kappa) for kappa in (1e4, 1e8, 1e10)]
    inputs += [_with_condition_number(rng, 64, 16, 1e8), np.eye(4), np.eye(6)[:, :3] * 2.0]
    inputs.append(np.asfortranarray(crandn(rng, 8, 3)))
    inputs.append(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9], [0.0, 1e-9]]))  # near-tied norms
    taken = 0
    for a in inputs:
        before = len(fallbacks)
        sq = sorted_qr(a)
        q, r, perm = _sorted_qr_loop(a)
        assert np.array_equal(sq.perm, perm)
        if len(fallbacks) > before:
            taken += 1
            assert np.array_equal(sq.q, q) and np.array_equal(sq.r, r)
        else:
            q_perm, r_perm = _plain_qr(a[:, perm])
            assert np.array_equal(sq.q, q_perm) and np.array_equal(sq.r, r_perm)
    # the loop takes the three inputs of condition number 1e8 and 1e10, the
    # two with exactly tied norms and the near-tied one; the fast path the rest
    assert taken == 6


def _bit_inputs(rng):
    """C-ordered, Fortran-ordered, strided, ill-conditioned and tie-heavy
    complex inputs with at least as many rows as columns."""
    inputs = []
    for _ in range(40):
        h = crandn(rng, 16, 4)
        inputs.append(np.vstack([h, np.sqrt(rng.uniform(1e-3, 1.0)) * np.eye(4)]))
        inputs += [h, crandn(rng, 4, 4), crandn(rng, 8, 3)]
    inputs += [np.asfortranarray(crandn(rng, 16, 4)), np.asfortranarray(crandn(rng, 4, 4))]
    inputs += [crandn(rng, 32, 8)[::2, 1::2], crandn(rng, 8, 8).T]
    inputs += [_with_condition_number(rng, 20, 4, kappa) for kappa in (1e4, 1e8, 1e10)]
    inputs += [_with_condition_number(rng, 64, 16, 1e8), np.eye(4), np.eye(6)[:, :3] * 2.0]
    inputs += [np.ones((5, 3)) + np.eye(5, 3), np.kron(np.eye(2), [[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])]
    return inputs


def _cholesky_before(a):
    """``cholesky`` as it was before it spelled out the Frobenius norms."""
    a = np.asarray(a, dtype=complex)
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.conj().T) > HERMITIAN_TOL * max(scale, 1e-300):
        raise ValueError("matrix is not Hermitian")
    return np.linalg.cholesky(a)


def _plain_qr(a):
    """Thin LAPACK QR with a real positive diagonal, one pivot check at a
    time: the reference factors of a sorted QR's permuted input."""
    a = np.asarray(a, dtype=complex)
    threshold = RANK_TOL * np.linalg.norm(a)
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diagonal(r))
    for k, magnitude in enumerate(diag):
        if magnitude <= threshold:
            raise RankDeficientError(f"pivot {k} has magnitude {magnitude:.3e} <= {threshold:.3e}")
    phases = np.diagonal(r) / diag
    q = q * phases
    r = r * phases.conj()[:, None]
    np.fill_diagonal(r, diag)
    return q, r


def test_frobenius_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(29)
    for a in _bit_inputs(rng):
        assert _frobenius(a) == np.linalg.norm(a)
        d = a[: a.shape[1]] - a[: a.shape[1]].conj().T
        assert _frobenius(d) == np.linalg.norm(d)


def test_inv_sqrt_and_solves_bit_identical_to_eye_solves():
    rng = np.random.default_rng(37)
    mats = [random_pd(rng, n) for n in (1, 2, 4, 16, 16, 64)]
    mats.append(np.asfortranarray(random_pd(rng, 16)))
    # fewer samples than antennas, loaded by 1e-6 of the mean power
    res = crandn(rng, 6, 16)
    cov = res.T @ res.conj() / 6
    cov = 0.5 * (cov + cov.conj().T)
    mats.append(cov + 1e-6 * np.trace(cov).real / 16 * np.eye(16))
    for a in mats:
        n = a.shape[0]
        low = _cholesky_before(a)
        assert np.array_equal(cholesky(a), low)
        assert np.array_equal(inv_sqrt(a), np.linalg.solve(low, np.eye(n, dtype=complex)))
        for b in (crandn(rng, n), crandn(rng, n, 4), np.asfortranarray(crandn(rng, n, 3))):
            ref = np.linalg.solve(low.conj().T, np.linalg.solve(low, b))
            assert np.array_equal(solve_hermitian(a, b), ref)
        # the inverse of an upper-triangular factor, as the robust plan takes it
        _, r = np.linalg.qr(crandn(rng, n + 2, n))
        rh = r.conj().T
        assert np.array_equal(np.linalg.inv(rh), np.linalg.solve(rh, np.eye(n, dtype=complex)))


def test_cholesky_hermitian_check_keeps_its_tolerance():
    a = np.eye(3, dtype=complex)
    a[0, 1] = 0.9e-10 * np.sqrt(1.5)  # ||a - a'|| just under 1e-10 ||a||
    _cholesky_before(a)
    cholesky(a)
    a[0, 1] = 1.1e-10 * np.sqrt(1.5)
    for chol in (cholesky, _cholesky_before):
        with pytest.raises(ValueError, match="matrix is not Hermitian"):
            chol(a)


# --- cholesky / whitening / solves ------------------------------------------


def test_cholesky_identity_and_diag():
    assert np.allclose(cholesky(np.eye(3)), np.eye(3))
    assert np.allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_cholesky_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = random_pd(rng, int(rng.integers(2, 16)))
        low = cholesky(a)
        assert np.linalg.norm(low @ low.conj().T - a) <= 1e-10 * np.linalg.norm(a)
        assert np.all(np.diag(low).real > 0)


def test_cholesky_rejects_indefinite_and_non_hermitian():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_inv_sqrt_diagonal_cases():
    assert np.allclose(inv_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(inv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))


def test_inv_sqrt_whitening_identity_up_to_64():
    rng = np.random.default_rng(11)
    for n in (2, 5, 16, 64):
        r_uu = random_pd(rng, n)
        w = inv_sqrt(r_uu)
        assert np.linalg.norm(w @ r_uu @ w.conj().T - np.eye(n)) <= 1e-10 * n


def test_solve_hermitian():
    rng = np.random.default_rng(5)
    b = crandn(rng, 4)
    assert np.allclose(solve_hermitian(np.eye(4), b), b)
    assert np.allclose(solve_hermitian(np.diag([2.0]), [4.0]), [2.0])
    for _ in range(30):
        n = int(rng.integers(2, 20))
        a = random_pd(rng, n)
        rhs = crandn(rng, n)
        x = solve_hermitian(a, rhs)
        assert np.linalg.norm(a @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)
