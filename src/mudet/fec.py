"""Rate-1/2 LDPC code for the coded evaluation path.

A seeded regular (3, 6) parity-check matrix on 288 bits is built by
progressive edge placement that avoids 4-cycles where possible, then a
systematic encoder is derived by Gaussian elimination over GF(2) with
pivots preferred among the tail columns. Decoding is normalized min-sum
with a flooding schedule.

LLR convention matches the detectors: positive favours bit 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CodeConstructionError

N_BITS = 288
K_BITS = 144
COL_WEIGHT = 3
ROW_WEIGHT = 6

DEFAULT_MAX_ITERS = 25
DEFAULT_NORMALIZATION = 0.75

_CONSTRUCTION_RETRIES = 32


@dataclass(frozen=True)
class LdpcCode:
    """Immutable (288, 144) code: parity matrix, systematic encoder tables,
    and the edge adjacency used by the decoder.

    ``column_order[j]`` records which column of the originally sampled
    matrix sits at position ``j``; positions ``0..143`` carry the message.
    """

    parity: np.ndarray
    parity_solver: np.ndarray
    column_order: np.ndarray
    check_edges: np.ndarray
    var_edges: np.ndarray
    edge_var: np.ndarray
    max_iters: int = DEFAULT_MAX_ITERS
    normalization: float = DEFAULT_NORMALIZATION

    @property
    def n(self) -> int:
        return self.parity.shape[1]

    @property
    def k(self) -> int:
        return self.n - self.parity.shape[0]

    @property
    def generator(self) -> np.ndarray:
        """Systematic generator ``[I_k | P^T]`` with ``G @ H^T = 0`` over GF(2)."""
        return np.hstack([np.eye(self.k, dtype=np.uint8), self.parity_solver.T])


def _sample_regular_parity(rng: np.random.Generator) -> np.ndarray | None:
    """Greedy progressive edge placement for a regular (3, 6) matrix.

    Each column connects to the least-filled checks, preferring checks that
    do not close a 4-cycle (a repeated check pair across columns). Returns
    None when the degree constraints wedge, so the caller can retry.
    """
    h = np.zeros((K_BITS, N_BITS), dtype=np.uint8)
    row_deg = np.zeros(K_BITS, dtype=int)
    used_pairs: set[tuple[int, int]] = set()
    for col in range(N_BITS):
        chosen: list[int] = []
        for _ in range(COL_WEIGHT):
            avail = np.flatnonzero(row_deg < ROW_WEIGHT)
            avail = np.setdiff1d(avail, chosen, assume_unique=False)
            if avail.size == 0:
                return None
            min_deg = row_deg[avail].min()
            cand = avail[row_deg[avail] == min_deg]
            safe = [
                c
                for c in cand
                if all((min(c, d), max(c, d)) not in used_pairs for d in chosen)
            ]
            pool = np.asarray(safe if safe else cand)
            pick = int(pool[rng.integers(pool.size)])
            chosen.append(pick)
        for a in range(COL_WEIGHT):
            for b in range(a + 1, COL_WEIGHT):
                used_pairs.add((min(chosen[a], chosen[b]), max(chosen[a], chosen[b])))
        h[chosen, col] = 1
        row_deg[chosen] += 1
    return h


def _gf2_pivot_columns(h: np.ndarray) -> np.ndarray | None:
    """Find 144 independent columns, preferring the tail so the code is
    systematic without reordering; returns them or None if rank deficient."""
    m, n = h.shape
    work = h.copy()
    priority = np.arange(n - 1, -1, -1)
    pivots: list[int] = []
    row = 0
    for col in priority:
        if row == m:
            break
        hot = np.flatnonzero(work[row:, col])
        if hot.size == 0:
            continue
        pr = row + hot[0]
        if pr != row:
            work[[row, pr]] = work[[pr, row]]
        others = np.flatnonzero(work[:, col])
        others = others[others != row]
        work[others] ^= work[row]
        pivots.append(col)
        row += 1
    if row < m:
        return None
    return np.array(sorted(pivots))


def _gf2_inverse(a: np.ndarray) -> np.ndarray:
    """Invert a square GF(2) matrix by Gauss-Jordan elimination."""
    m = a.shape[0]
    work = np.hstack([a.copy(), np.eye(m, dtype=np.uint8)])
    for col in range(m):
        hot = np.flatnonzero(work[col:, col])
        if hot.size == 0:
            raise CodeConstructionError("parity block not invertible")
        pr = col + hot[0]
        if pr != col:
            work[[col, pr]] = work[[pr, col]]
        others = np.flatnonzero(work[:, col])
        others = others[others != col]
        work[others] ^= work[col]
    return work[:, m:]


def build_code(
    seed: int = 0,
    max_iters: int = DEFAULT_MAX_ITERS,
    normalization: float = DEFAULT_NORMALIZATION,
) -> LdpcCode:
    """Construct the seeded (288, 144) regular code.

    Deterministic for a given seed; internally retries with derived seeds
    (bounded) when the greedy placement wedges or the parity block is rank
    deficient.
    """
    for attempt in range(_CONSTRUCTION_RETRIES):
        rng = np.random.default_rng([seed, attempt])
        h = _sample_regular_parity(rng)
        if h is None:
            continue
        pivots = _gf2_pivot_columns(h)
        if pivots is None:
            continue
        message_cols = np.setdiff1d(np.arange(N_BITS), pivots)
        column_order = np.concatenate([message_cols, pivots])
        parity = h[:, column_order]
        a_block = parity[:, :K_BITS]
        b_block = parity[:, K_BITS:]
        b_inv = _gf2_inverse(b_block)
        parity_solver = (b_inv @ a_block) % 2
        return _finish_code(
            parity, parity_solver.astype(np.uint8), column_order, max_iters, normalization
        )
    raise CodeConstructionError(f"no valid code found from seed {seed}")


def _finish_code(parity, parity_solver, column_order, max_iters, normalization) -> LdpcCode:
    edge_check, edge_var = np.nonzero(parity)
    # edges are check-major, so check e-blocks are contiguous
    check_edges = np.arange(edge_check.size).reshape(K_BITS, ROW_WEIGHT)
    var_edges = np.argsort(edge_var, kind="stable").reshape(N_BITS, COL_WEIGHT)
    return LdpcCode(
        parity=parity,
        parity_solver=parity_solver,
        column_order=column_order,
        check_edges=check_edges,
        var_edges=var_edges,
        edge_var=edge_var,
        max_iters=max_iters,
        normalization=normalization,
    )


def encode(code: LdpcCode, bits) -> np.ndarray:
    """Systematic encoding: message in the first ``k`` positions.

    Accepts a length-144 vector or a ``(batch, 144)`` array.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    single = bits.ndim == 1
    if single:
        bits = bits[None, :]
    if bits.shape[1] != code.k:
        raise ValueError(f"message length must be {code.k}, got {bits.shape[1]}")
    parity_bits = (bits @ code.parity_solver.T) % 2
    cw = np.hstack([bits, parity_bits.astype(np.uint8)])
    return cw[0] if single else cw


def parity_ok(code: LdpcCode, codeword) -> np.ndarray | bool:
    """Check ``H c^T == 0`` over GF(2) for one codeword or a batch."""
    cw = np.asarray(codeword, dtype=np.uint8)
    single = cw.ndim == 1
    if single:
        cw = cw[None, :]
    syndrome = (cw @ code.parity.T) % 2
    ok = ~syndrome.any(axis=1)
    return bool(ok[0]) if single else ok


def decode_min_sum(code: LdpcCode, llrs) -> tuple[np.ndarray, bool, int]:
    """Normalized min-sum decoding of one codeword.

    Returns ``(message_bits, converged, iterations)``. The hard decision of
    the input LLRs is checked first, so a clean codeword converges in zero
    message-passing iterations. Non-convergence is reported via the flag,
    never an exception.
    """
    llrs = np.asarray(llrs, dtype=float)
    if llrs.shape != (code.n,):
        raise ValueError(f"need {code.n} LLRs, got shape {llrs.shape}")
    if not np.all(np.isfinite(llrs)):
        raise ValueError("LLRs must be finite")
    bits, conv, iters = decode_min_sum_batch(code, llrs[None, :])
    return bits[0], bool(conv[0]), int(iters[0])


def decode_min_sum_batch(code: LdpcCode, llrs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized min-sum over a ``(batch, n)`` block of LLR vectors.

    Semantics per row are identical to :func:`decode_min_sum`; rows that
    converge early freeze while the rest keep iterating.
    """
    llrs = np.asarray(llrs, dtype=float)
    batch = llrs.shape[0]
    alpha = code.normalization
    # variable-to-check messages live on edges: (batch, n_edges)
    v2c = llrs[:, code.edge_var].copy()
    hard = (llrs < 0).astype(np.uint8)
    good = _checks_satisfied(code, hard)
    iters = np.zeros(batch, dtype=int)
    active = ~good
    for _ in range(code.max_iters):
        if not active.any():
            break
        rows = np.flatnonzero(active)
        msg = v2c[rows][:, code.check_edges]  # (r, n_checks, ROW_WEIGHT)
        signs = np.where(msg < 0, -1.0, 1.0)
        mags = np.abs(msg)
        row_sign = signs.prod(axis=2, keepdims=True)
        part = np.argsort(mags, axis=2, kind="stable")
        min1 = np.take_along_axis(mags, part[:, :, :1], axis=2)
        min2 = np.take_along_axis(mags, part[:, :, 1:2], axis=2)
        is_min = np.arange(ROW_WEIGHT)[None, None, :] == part[:, :, :1]
        other_min = np.where(is_min, min2, min1)
        # check_edges is check-major arange, so the reshape is edge order
        c2v_rows = (alpha * row_sign * signs * other_min).reshape(rows.size, -1)
        total_rows = llrs[rows] + c2v_rows[:, code.var_edges].sum(axis=2)
        v2c[rows] = total_rows[:, code.edge_var] - c2v_rows
        hard[rows] = (total_rows < 0).astype(np.uint8)
        iters[rows] += 1
        good_now = _checks_satisfied(code, hard[rows])
        active[rows[good_now]] = False
    converged = _checks_satisfied(code, hard)
    return hard[:, : code.k], converged, iters


def _checks_satisfied(code: LdpcCode, hard: np.ndarray) -> np.ndarray:
    syndrome = (hard @ code.parity.T) % 2
    return ~syndrome.any(axis=1)
