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

MAX_ITERS = 25
NORMALIZATION = 0.75

_CONSTRUCTION_RETRIES = 32


@dataclass(frozen=True)
class LdpcCode:
    """Immutable (288, 144) code: parity matrix, systematic encoder tables,
    and the edge tables the decoder reads. Columns ``0..143`` of ``parity``
    carry the message.

    Edges are numbered slot-major: edge ``s * 144 + c`` is the ``s``-th
    edge of check ``c``, counting its variables in ascending order.
    ``check_vars[s, c]`` is that edge's variable, and ``var_edges[:, v]``
    lists the edges of variable ``v`` in ascending check order.
    """

    parity: np.ndarray
    parity_solver: np.ndarray
    check_vars: np.ndarray
    var_edges: np.ndarray

    @property
    def n(self) -> int:
        return self.parity.shape[1]

    @property
    def k(self) -> int:
        return self.n - self.parity.shape[0]


def _sample_regular_parity(rng: np.random.Generator) -> np.ndarray | None:
    """Greedy progressive edge placement for a regular (3, 6) matrix.

    Each column connects to the least-filled checks, preferring checks that
    do not close a 4-cycle (a check pair already shared by an earlier
    column). Returns None when the degree constraints wedge, so the caller
    can retry.
    """
    h = np.zeros((K_BITS, N_BITS), dtype=np.uint8)
    row_deg = np.zeros(K_BITS, dtype=int)
    pair_used = np.zeros((K_BITS, K_BITS), dtype=bool)
    for col in range(N_BITS):
        chosen: list[int] = []
        for _ in range(COL_WEIGHT):
            open_rows = row_deg < ROW_WEIGHT
            open_rows[chosen] = False
            if not open_rows.any():
                return None
            min_deg = row_deg[open_rows].min()
            cand = np.flatnonzero(open_rows & (row_deg == min_deg))
            safe = cand[~pair_used[chosen][:, cand].any(axis=0)]
            pool = safe if safe.size else cand
            pick = int(pool[rng.integers(pool.size)])
            chosen.append(pick)
        pair_used[np.ix_(chosen, chosen)] = True
        h[chosen, col] = 1
        row_deg[chosen] += 1
    return h


def _gf2_pivot_columns(h: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Find 144 independent columns by Gauss-Jordan elimination over GF(2),
    preferring the tail so the code is systematic without reordering.

    Returns ``(pivots, reduced)``, or None if rank deficient: row ``i`` of
    the reduced matrix has its only pivot-column one at ``pivots[i]``.
    """
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
    return np.array(pivots), work


def build_code(seed: int = 0) -> LdpcCode:
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
        found = _gf2_pivot_columns(h)
        if found is None:
            continue
        pivots, reduced = found
        # the reduced matrix is E h with E invertible and E h[:, pivots] = I,
        # so its rows in ascending pivot order give parity = solver @ message
        by_column = np.argsort(pivots)
        message_cols = np.delete(np.arange(N_BITS), pivots)  # setdiff1d imports numpy.ma
        parity = h[:, np.concatenate([message_cols, pivots[by_column]])]
        parity_solver = reduced[np.ix_(by_column, message_cols)]
        # np.nonzero walks check by check, variables ascending within each
        edge_check, edge_var = np.nonzero(parity)
        slot_major = (np.arange(edge_var.size) % ROW_WEIGHT) * K_BITS + edge_check
        by_var = np.argsort(edge_var, kind="stable")
        return LdpcCode(
            parity=parity,
            parity_solver=parity_solver,
            check_vars=edge_var.reshape(K_BITS, ROW_WEIGHT).T.copy(),
            var_edges=slot_major[by_var].reshape(N_BITS, COL_WEIGHT).T.copy(),
        )
    raise CodeConstructionError(f"no valid code found from seed {seed}")


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


def decode_min_sum(code: LdpcCode, llrs) -> tuple[np.ndarray, bool, int]:
    """One codeword's ``(message_bits, converged, iterations)``: the one-row
    case of :func:`decode_min_sum_batch`, with its checks."""
    bits, conv, iters = decode_min_sum_batch(code, np.asarray(llrs, dtype=float)[None])
    return bits[0], bool(conv[0]), int(iters[0])


def decode_min_sum_batch(code: LdpcCode, llrs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized min-sum over a ``(batch, n)`` block of finite LLR vectors.

    Returns ``(message_bits, converged, iterations)``, one entry per row.
    The hard decision of each row's LLRs is checked first, so a clean
    codeword converges in zero message-passing iterations; rows that
    converge freeze while the rest keep iterating. Non-convergence is
    reported via the flag, never an exception. Messages live on the
    slot-major edges, ``(rows, ROW_WEIGHT, n_checks)``, so each check
    reduces over contiguous rows of its slots.
    """
    llrs = np.asarray(llrs, dtype=float)
    if llrs.ndim != 2 or llrs.shape[1] != code.n:
        raise ValueError(f"need rows of {code.n} LLRs, got shape {llrs.shape}")
    if not np.isfinite(llrs).all():
        raise ValueError("LLRs must be finite")
    hard = llrs < 0
    converged = _checks_satisfied(hard.take(code.check_vars, axis=1))
    iters = np.zeros(llrs.shape[0], dtype=int)
    rows = np.flatnonzero(~converged)  # batch rows still iterating
    llr = llrs[rows]
    v2c = llr.take(code.check_vars, axis=1)
    for it in range(1, MAX_ITERS + 1):
        if rows.size == 0:
            break
        c2v = _check_messages(v2c)
        from_checks = c2v.reshape(rows.size, -1).take(code.var_edges, axis=1)
        # ascending check order, as a left-to-right sum
        total = llr + ((from_checks[:, 0] + from_checks[:, 1]) + from_checks[:, 2])
        on_edges = total.take(code.check_vars, axis=1)
        v2c = on_edges - c2v
        ok = _checks_satisfied(on_edges < 0)  # the hard decision, on its edges
        stop = ok if it < MAX_ITERS else np.ones_like(ok)
        if stop.any():
            out = rows[stop]
            hard[out] = total[stop] < 0
            converged[out] = ok[stop]
            iters[out] = it
            keep = ~stop
            rows, llr, v2c = rows[keep], llr[keep], v2c[keep]
    return hard[:, : code.k].astype(np.uint8), converged, iters


def _check_messages(v2c: np.ndarray) -> np.ndarray:
    """Normalized min-sum check-to-variable messages on slot-major edges.

    Each edge gets the smallest magnitude among its check's other edges:
    the check's second smallest magnitude on the edge holding the smallest,
    the smallest everywhere else (on a tie the two are equal). Its sign is
    the product of the other edges' signs, a zero counting as positive; the
    sign rides on the normalization factor, so a zero magnitude keeps it.
    """
    mags = np.abs(v2c)
    low = np.sort(mags, axis=1)
    neg = v2c < 0
    flip = neg ^ np.logical_xor.reduce(neg, axis=1, keepdims=True)
    scale = np.where(flip, -NORMALIZATION, NORMALIZATION)
    return scale * np.where(mags == low[:, :1], low[:, 1:2], low[:, :1])


def _checks_satisfied(edge_bits: np.ndarray) -> np.ndarray:
    """Per row of boolean bits on the slot-major edges, ``(rows, ROW_WEIGHT,
    n_checks)``, whether every check's XOR is 0."""
    return ~np.logical_xor.reduce(edge_bits, axis=1).any(axis=1)
