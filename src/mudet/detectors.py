"""Multi-user uplink detectors.

Linear detection (single-user Wiener filter in Sherman-Morrison form, and
the weight matrices of multi-user MMSE with interference rejection and of
white-noise MRC), three tree searches on an upper-triangular system
(ordered successive interference cancellation, breadth-first K-best, and
its sorting-reduced variant driven by a ``(k, s, p, v, q)`` schedule),
exhaustive maximum likelihood, and the interference-whitening
pre-processing chain that makes the tree search robust to spatially
coloured interference. A detector is composed from these parts in
``mudet.bench``: a plan per channel, a rotation of the received vectors,
one search and, on the coded path, LLRs.

Soft output of the robust detector: its hard decisions come from the
sorting-reduced search on the second-stage model ``(r2, y3)``, but its
LLRs are exact log-MAP values over the list of a full-expansion
:func:`kbest_detect` of width ``SOFT_LIST_WIDTH``, searched on the sorted
QR of the whitened channel, where the noise is white with unit variance.
The search metric there is the whitened log-likelihood ``||y2 - r1 x||^2``
itself, which the ``h2`` metric of the hard search is not. Every K-best
list, hard or soft, comes from that one search and its one tie rule. The
other list detectors give max-log LLRs over their own search metric.

LLR convention: positive favours bit 0. Magnitudes are clamped to
``LLR_MAX`` so a missing bit hypothesis in a candidate list stays finite
for the decoder.

Batching: the tree searches (:func:`osic_detect`, :func:`kbest_detect`,
:func:`sr_kbest_detect`), :func:`ml_bruteforce`, :func:`robust_apply`,
:func:`robust_soft_llrs`, :func:`compute_llrs` and :func:`equalizer_llrs`
take either one received vector or a ``(B, ...)`` stack of vectors that
share one channel factorization; a 1-D input is a batch of one and returns
unbatched output. Given its rotated input ``y_tilde``, every row is
searched exactly as it would be alone: each selection along the last axis
returns what a stable sort of that row would, so ties resolve the same way
at any batch size. Survivor cuts take the default (unstable) sort and
fall back to a stable one only when an exact tie reaches the cut
(:func:`_smallest`); a full-expansion K-best layer cuts its unsorted
children, so its ties go to the lower survivor index, then to the lower
constellation index. The rotations in front of a search (``y @ plan.w.T``,
``y_ext @ q.conj()``) are matrix products and round a row differently
alone than inside a block, so a row's ``y_tilde``, and the LLRs computed
from it, match its row-alone values only to rounding; the records of the
batched path are pinned by ``tests/test_bench.py::test_golden_records``.

All functions are pure: they read their arguments and return fresh
arrays, so concurrent calls on distinct subcarrier instances are safe.
"""

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .airlink import Constellation
from .errors import (
    DimensionMismatchError,
    InvalidSearchParamsError,
    SearchSpaceTooLargeError,
)
from .numkit import (
    SortedQR,
    as_complex_matrix,
    as_complex_vector,
    inv_sqrt,
    qr_decompose,
    solve_hermitian,
    sorted_qr,
)

LLR_MAX = 30.0

# Per-parent child budget of the sorting-reduced search.
SR_EXPAND_BUDGET = 4

# Width of the robust detector's soft-output list. On 16 x 4 QAM16 with two
# interferers and LS channel estimates, log-MAP over a list this wide gives
# the coded BER of exhaustive log-MAP over all 65,536 hypotheses, within
# Monte-Carlo noise; widths 16 and 32 fall short of it.
SOFT_LIST_WIDTH = 64

# Largest exhaustive search space ml_bruteforce (and a scenario running it)
# accepts.
ML_GUARD = 10**6
_ML_CHUNK = 1 << 15


@dataclass(frozen=True)
class DetectorOutput:
    """Output of :func:`ml_bruteforce`: hard decisions (constellation indices
    per user), per-bit LLRs (None from a hard-only call), best metric; each
    with a leading batch axis when the input had one."""

    hard: np.ndarray
    llr: np.ndarray | None
    metric: float | np.ndarray


@dataclass(frozen=True)
class CandidateList:
    """Survivors of a tree search, ascending by accumulated squared distance.

    ``symbols[..., c, m]`` is the constellation index of candidate ``c``
    for the symbol solved at triangular row ``m``; a batched search puts
    one list per received vector along the leading axis.
    """

    symbols: np.ndarray
    metrics: np.ndarray

    def __len__(self) -> int:
        return self.metrics.shape[-1]

    def permuted(self, perm: np.ndarray) -> "CandidateList":
        """Map layer-ordered symbols back to original user order.

        ``perm[j]`` is the original user solved at row ``j``.
        """
        out = np.empty_like(self.symbols)
        out[..., np.asarray(perm)] = self.symbols
        return CandidateList(symbols=out, metrics=self.metrics)


@dataclass(frozen=True)
class ExtendedModel:
    """Regularized channel: ``sqrt(sigma_n2 + sigma_i2) * I`` stacked under ``h``."""

    h_ext: np.ndarray
    y_ext: np.ndarray


@dataclass(frozen=True)
class SrKBestParams:
    """Candidate-selection schedule of the sorting-reduced K-best search.

    Per layer, parent ``i`` (ranked by position in the previous survivor
    list) passes its first ``p[i]`` children straight through, its next
    ``v[i]`` children into a small sorting pool, and the best ``s`` pool
    members land at the (1-based) survivor positions ``q``. Only the pool
    is ever sorted, which is the entire point of the structure.
    """

    k: int
    s: int
    p: np.ndarray
    v: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=int))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=int))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=int))
        if self.k < 1 or self.s < 0 or self.s > self.k:
            raise InvalidSearchParamsError(f"need 0 <= s <= k, got k={self.k} s={self.s}")
        if self.p.size != self.k or self.v.size != self.k:
            raise InvalidSearchParamsError("p and v must have one entry per survivor slot")
        if np.any(self.p < 0) or np.any(self.v < 0):
            raise InvalidSearchParamsError("p and v entries must be >= 0")
        if int(self.p.sum()) != self.k - self.s:
            raise InvalidSearchParamsError(
                f"sum(p)={int(self.p.sum())} must equal k - s = {self.k - self.s}"
            )
        if self.q.size != self.s:
            raise InvalidSearchParamsError("q must list one position per sorted survivor")
        if self.s and (
            np.any(self.q < 1)
            or np.any(self.q > self.k)
            or np.any(np.diff(self.q) <= 0)
        ):
            raise InvalidSearchParamsError("q must be strictly increasing within [1..k]")
        if np.any(self.p + self.v > SR_EXPAND_BUDGET):
            raise InvalidSearchParamsError(
                f"p[i] + v[i] must stay within the expansion budget {SR_EXPAND_BUDGET}"
            )
        if int(self.v.sum()) < self.s:
            raise InvalidSearchParamsError("sorting pool smaller than s")

    def _key(self) -> tuple:
        arrays = (tuple(a.tolist()) for a in (self.p, self.v, self.q))
        return (self.k, self.s, *arrays)

    # the generated methods would compare and hash the arrays themselves
    def __eq__(self, other):
        if not isinstance(other, SrKBestParams):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def fill_indices(self):
        """Static gather indices of one scheduled layer.

        ``(direct_parent, direct_rank, pool_parent, pool_rank,
        direct_slots, max_rank)``: which parent and child rank feeds each
        direct slot and each pool entry, the survivor slots outside ``q``,
        and the deepest child rank the schedule reads.
        """
        k = self.k
        direct_parent = np.repeat(np.arange(k), self.p)
        direct_rank = np.concatenate([np.arange(c) for c in self.p])
        pool_parent = np.repeat(np.arange(k), self.v)
        pool_rank = np.concatenate([p + np.arange(c) for p, c in zip(self.p, self.v)])
        direct_slots = np.setdiff1d(np.arange(k), self.q - 1)
        max_rank = int(np.max(self.p + self.v))
        return direct_parent, direct_rank, pool_parent, pool_rank, direct_slots, max_rank

    @classmethod
    def default_16_4(cls) -> "SrKBestParams":
        """The optimized (16, 4) schedule used as the package default."""
        p = [2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        v = [2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2]
        return cls(k=16, s=4, p=p, v=v, q=[2, 4, 6, 8])


@dataclass(frozen=True)
class RobustPlan:
    """Per-block (y-independent) factors of the whitening chain, reusable
    across every received vector that shares ``h_hat`` and ``r_uu``."""

    w: np.ndarray
    h1: np.ndarray
    q1: np.ndarray
    r1: np.ndarray
    h2: np.ndarray
    q2: np.ndarray
    r2: np.ndarray
    perm: np.ndarray

    @cached_property
    def soft_qr(self) -> SortedQR:
        """Sorted QR of the whitened channel, the soft-output search model.

        ``h1 = q1 r1``, so factorizing the square ``r1`` gives the same
        triangular factor as factorizing ``h1``; the full channel is then
        ``h1[:, perm] = q1 q r``. Computed on first use, since only the
        soft output needs it.
        """
        return sorted_qr(self.r1)


@dataclass(frozen=True)
class RobustState(RobustPlan):
    """A robust plan applied to received vectors.

    ``y2 = q1' y1`` exactly by construction; the final search runs over
    ``(r2, y3)`` and reads results back through ``perm``. ``y1``, ``y2``
    and ``y3`` carry a leading batch axis when the input did.
    """

    y1: np.ndarray
    y2: np.ndarray
    y3: np.ndarray

    @cached_property
    def x_mid(self) -> np.ndarray:
        """MMSE mid-stage estimate ``(I + r1' r1)^-1 r1' y2``.

        Not on the detection path: computed on first read, so only callers
        that inspect it pay for its Cholesky solve.
        """
        m = self.r1.shape[0]
        gram = np.eye(m) + self.r1.conj().T @ self.r1
        gram = 0.5 * (gram + gram.conj().T)
        return solve_hermitian(gram, (self.y2 @ self.r1.conj()).T).T


# ---------------------------------------------------------------------------
# linear detectors


def mmse_single(h, r_uu, y) -> complex:
    """Single-user Wiener estimate via the Sherman-Morrison form.

    Returns ``w @ y`` with ``w = h' R_uu^-1 / (1 + h' R_uu^-1 h)``, which
    equals the direct ``R_yy^-1`` computation with ``R_yy = R_uu + h h'``.
    """
    h = as_complex_vector(h, "h")
    y = as_complex_vector(y, "y")
    if h.size != y.size:
        raise DimensionMismatchError("h and y must have equal length")
    z = solve_hermitian(r_uu, h)
    denom = 1.0 + float(np.real(h.conj() @ z))
    return complex(z.conj() @ y) / denom


def linear_weights(h_hat, z, sigma_n2: float) -> np.ndarray:
    """Weight matrix ``(sigma_n2 I + H' Z)^-1 Z'`` of a regularized linear
    detector: ``Z = R_uu^-1 H`` gives MMSE-IRC, ``Z = H`` white-noise MRC."""
    gram = sigma_n2 * np.eye(h_hat.shape[1]) + h_hat.conj().T @ z
    gram = 0.5 * (gram + gram.conj().T)
    return solve_hermitian(gram, z.conj().T)


def mmse_irc_weights(h_hat, r_uu, sigma_n2: float) -> np.ndarray:
    """Weight matrix ``(sigma_n2 I + H' R_uu^-1 H)^-1 H' R_uu^-1``."""
    h_hat = as_complex_matrix(h_hat, "h_hat")
    n_rx, n_users = h_hat.shape
    if n_rx < n_users:
        raise DimensionMismatchError("need n_rx >= n_users")
    return linear_weights(h_hat, solve_hermitian(r_uu, h_hat), sigma_n2)


# ---------------------------------------------------------------------------
# tree-search detectors


def _rows(y, width: int, name: str):
    """``y`` as ``(B, width)`` complex rows, and whether it was one vector.

    A 1-D ``y`` is a batch of one; callers return its result unbatched.
    """
    arr = np.asarray(y, dtype=complex)
    if arr.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    if arr.shape[-1] != width:
        raise DimensionMismatchError(f"{name} rows must have length {width}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr.reshape(-1, width), arr.ndim == 1


def _triangular_system(r, y_tilde):
    """Validated ``(r, y_tilde rows, single)`` of an upper-triangular search."""
    r = as_complex_matrix(r, "r")
    m = r.shape[0]
    if r.shape[1] != m:
        raise DimensionMismatchError("r must be m x m and y_tilde length m")
    y_tilde, single = _rows(y_tilde, m, "y_tilde")
    return r, y_tilde, single


def _candidate_list(symbols, metrics, single: bool) -> CandidateList:
    if single:
        return CandidateList(symbols=symbols[0], metrics=metrics[0])
    return CandidateList(symbols=symbols, metrics=metrics)


def build_extended(h_hat, y, sigma_n2: float, sigma_i2: float) -> ExtendedModel:
    """Stack ``sqrt(sigma_n2 + sigma_i2) * I`` under the channel.

    QR-based detection on the extended model implicitly applies MMSE-style
    regularization without explicit matrix inversion. ``y`` is one received
    vector or a ``(B, n_rx)`` batch; ``y_ext`` has the same leading shape.
    """
    h_hat = as_complex_matrix(h_hat, "h_hat")
    rows, single = _rows(y, h_hat.shape[0], "y")
    total = sigma_n2 + sigma_i2
    if total <= 0.0:
        raise ValueError("sigma_n2 + sigma_i2 must be > 0")
    n_users = h_hat.shape[1]
    h_ext = np.vstack([h_hat, np.sqrt(total) * np.eye(n_users)])
    y_ext = np.hstack([rows, np.zeros((rows.shape[0], n_users), dtype=complex)])
    return ExtendedModel(h_ext=h_ext, y_ext=y_ext[0] if single else y_ext)


def _layer_increments(r, y_tilde, layer, symbols, points):
    """Squared per-layer distances of every child of every candidate.

    ``y_tilde (B, m)``, ``symbols (B, K, m)``; returns ``(B, K, size)``.
    """
    tail = points[symbols[:, :, layer + 1 :]] @ r[layer, layer + 1 :]
    b = y_tilde[:, layer, None] - tail
    return np.abs(b[:, :, None] - r[layer, layer] * points) ** 2


def _smallest(values, count):
    """Indices of the ``count`` smallest entries along the last axis, ascending.

    Always equal to ``np.argsort(values, kind="stable")[..., :count]``. The
    default sort (faster, but not stable) decides unless two of the first
    ``count + 1`` sorted values are equal, the only case in which the two
    sorts can keep different indices or order them differently; then the
    stable sort runs instead.
    """
    order = np.argsort(values, axis=-1)
    head = np.take_along_axis(values, order[..., : count + 1], axis=-1)
    if np.any(head[..., 1:] == head[..., :-1]):
        order = np.argsort(values, axis=-1, kind="stable")
    return order[..., :count]


def _kbest_step(r, y_tilde, layer, symbols, metrics, points, expand, keep):
    """One breadth-first layer: expand each parent, keep the best sorted.

    ``symbols (B, K, m)`` and ``metrics (B, K)`` in, the ``keep`` best
    children of each row out. Only a partial expansion sorts each parent's
    children; a full one cuts the unsorted children directly.
    """
    n_vec = symbols.shape[0]
    rows = np.arange(n_vec)[:, None]
    inc = _layer_increments(r, y_tilde, layer, symbols, points)
    full = expand == points.size
    if not full:
        order = np.argsort(inc, axis=-1, kind="stable")[:, :, :expand]
        inc = np.take_along_axis(inc, order, axis=-1)
    flat = (metrics[:, :, None] + inc).reshape(n_vec, -1)
    sel = _smallest(flat, keep)
    out = symbols[rows, sel // expand]
    out[:, :, layer] = sel % expand if full else order.reshape(n_vec, -1)[rows, sel]
    return out, flat[rows, sel]


def kbest_detect(
    r, y_tilde, k: int, cons: Constellation, expand: int | None = None
) -> CandidateList:
    """Breadth-first K-best search on an upper-triangular system.

    The root layer enumerates every constellation point; from the second
    layer on, each survivor spawns its ``expand`` best children in
    Schnorr-Euchner order (ascending per-layer distance) and the ``k``
    smallest accumulated distances survive. The returned list is sorted
    ascending by metric. Ties in a layer go to the lower survivor index
    (its position in the previous layer's sorted list), then to the lower
    constellation index. With ``expand`` below the constellation size the
    children of one survivor are ranked by per-layer distance first, then
    by constellation index, and a tie between two of them goes to that
    rank; with full expansion no child is ranked before the cut, so two
    children of one survivor whose accumulated metrics round to the same
    value go to the lower constellation index even when their per-layer
    distances differ. ``y_tilde`` of shape ``(B, m)`` searches each row
    against the shared ``r`` and returns lists with a leading batch axis.
    """
    r, y_tilde, single = _triangular_system(r, y_tilde)
    m = r.shape[0]
    points = cons.points
    if expand is None:
        expand = cons.size
    if not 1 <= expand <= cons.size:
        raise ValueError("expand must be in [1, constellation size]")
    if k < 1:
        raise ValueError("k must be >= 1")
    n_vec = y_tilde.shape[0]
    symbols = np.zeros((n_vec, 1, m), dtype=np.int64)
    metrics = np.zeros((n_vec, 1))
    for layer in range(m - 1, -1, -1):
        eff = cons.size if layer == m - 1 else expand
        symbols, metrics = _kbest_step(
            r, y_tilde, layer, symbols, metrics, points, eff, k
        )
    return _candidate_list(symbols, metrics, single)


def _sr_step(r, y_tilde, layer, symbols, metrics, points, params):
    """One scheduled layer of the sorting-reduced search.

    Direct children land at the non-``q`` slots in parent order without any
    comparison; only the small pool is sorted, and its best ``s`` members
    occupy the ``q`` slots in ascending metric order.
    """
    direct_parent, direct_rank, pool_parent, pool_rank, direct_slots, max_rank = (
        params.fill_indices
    )
    inc = _layer_increments(r, y_tilde, layer, symbols, points)
    order = np.argsort(inc, axis=-1, kind="stable")[:, :, :max_rank]
    child_metrics = metrics[:, :, None] + np.take_along_axis(inc, order, axis=-1)

    out_symbols = np.empty_like(symbols)
    out_metrics = np.empty(metrics.shape)

    out_symbols[:, direct_slots] = symbols[:, direct_parent]
    out_symbols[:, direct_slots, layer] = order[:, direct_parent, direct_rank]
    out_metrics[:, direct_slots] = child_metrics[:, direct_parent, direct_rank]

    if params.s:
        rows = np.arange(symbols.shape[0])[:, None]
        pool_metrics = child_metrics[:, pool_parent, pool_rank]
        winners = np.argsort(pool_metrics, axis=-1, kind="stable")[:, : params.s]
        parents = pool_parent[winners]
        q_slots = params.q - 1
        out_symbols[:, q_slots] = symbols[rows, parents]
        out_symbols[:, q_slots, layer] = order[rows, parents, pool_rank[winners]]
        out_metrics[:, q_slots] = pool_metrics[rows, winners]
    return out_symbols, out_metrics


def sr_kbest_detect(
    r, y_tilde, params: SrKBestParams, cons: Constellation
) -> CandidateList:
    """Sorting-reduced K-best search.

    Layers run breadth-first as in :func:`kbest_detect`. While fewer than
    ``params.k`` candidates exist the search warms up by keeping every
    child (sorted); once the survivor list is full each layer applies the
    ``(p, v, q)`` schedule, whose positional placement replaces the full
    per-layer sort. The output is sorted ascending by metric. Batches over
    the rows of a ``(B, m)`` ``y_tilde`` as :func:`kbest_detect` does.
    """
    r, y_tilde, single = _triangular_system(r, y_tilde)
    m = r.shape[0]
    points = cons.points
    if int(np.max(params.p + params.v)) > cons.size:
        raise InvalidSearchParamsError("schedule needs more children than the constellation has")
    n_vec = y_tilde.shape[0]
    symbols = np.zeros((n_vec, 1, m), dtype=np.int64)
    metrics = np.zeros((n_vec, 1))
    for layer in range(m - 1, -1, -1):
        if symbols.shape[1] == params.k:
            symbols, metrics = _sr_step(r, y_tilde, layer, symbols, metrics, points, params)
        else:
            symbols, metrics = _kbest_step(
                r, y_tilde, layer, symbols, metrics, points, cons.size, params.k
            )
    final = np.argsort(metrics, axis=-1, kind="stable")
    rows = np.arange(n_vec)[:, None]
    return _candidate_list(symbols[rows, final], metrics[rows, final], single)


def osic_detect(r, y_tilde, cons: Constellation) -> CandidateList:
    """Ordered successive interference cancellation by back-substitution.

    Starts at the last (strongest) layer of the sorted triangular system,
    slices each residual to the nearest constellation point and cancels
    it: the list of :func:`kbest_detect` with ``k = 1`` and ``expand = 1``,
    one candidate in layer order with its squared distance. Batches over
    the rows of a ``(B, m)`` ``y_tilde`` as :func:`kbest_detect` does.
    """
    r, y_tilde, single = _triangular_system(r, y_tilde)
    m = r.shape[0]
    hard = np.empty((y_tilde.shape[0], m), dtype=np.int64)
    points = cons.points
    for layer in range(m - 1, -1, -1):
        resid = y_tilde[:, layer] - points[hard[:, layer + 1 :]] @ r[layer, layer + 1 :]
        hard[:, layer] = cons.nearest(resid / r[layer, layer])
    metric = np.sum(np.abs(y_tilde - points[hard] @ r.T) ** 2, axis=-1)
    return _candidate_list(hard[:, None, :], metric[:, None], single)


def ml_bruteforce(h, y, cons: Constellation, soft: bool = True) -> DetectorOutput:
    """Exhaustive minimum-distance search over every symbol vector.

    Guarded to one million candidates. ``y`` is one received vector or a
    ``(B, n)`` batch; each chunk of ``_ML_CHUNK`` candidate images is
    computed once for the whole batch and scored in steps of at most
    ``max(_ML_CHUNK, B)`` (candidate, vector) pairs, so memory stays
    bounded. LLRs are exact max-log values over the full search space;
    ``soft=False`` skips them. Ties resolve to the lexicographically
    smallest index sequence.
    """
    h = as_complex_matrix(h, "h")
    n, m = h.shape
    y, single = _rows(y, n, "y")
    size = cons.size
    total = size**m
    if total > ML_GUARD:
        raise SearchSpaceTooLargeError(f"{total} candidates exceeds guard {ML_GUARD}")
    n_vec = y.shape[0]
    n_bits = m * cons.bits_per_symbol
    rows = np.arange(n_vec)
    best_metric = np.full(n_vec, np.inf)
    best_idx = np.zeros(n_vec, dtype=np.int64)
    min_by_bit = np.full((2, n_vec, n_bits), np.inf)
    weights = size ** np.arange(m - 1, -1, -1, dtype=np.int64)
    step = max(1, _ML_CHUNK // n_vec)
    for start in range(0, total, _ML_CHUNK):
        idx = np.arange(start, min(start + _ML_CHUNK, total), dtype=np.int64)
        sym = (idx[:, None] // weights) % size
        images = cons.points[sym] @ h.T
        if soft:
            bits = cons.bit_patterns[sym].reshape(idx.size, n_bits)
        for lo in range(0, idx.size, step):
            part = slice(lo, lo + step)
            metrics = np.sum(np.abs(y[:, None, :] - images[part]) ** 2, axis=-1)
            j = np.argmin(metrics, axis=1)
            low = metrics[rows, j]
            better = low < best_metric
            best_metric = np.where(better, low, best_metric)
            best_idx = np.where(better, idx[lo + j], best_idx)
            if soft:
                for hyp in (0, 1):
                    masked = np.where(bits[part] == hyp, metrics[:, :, None], np.inf)
                    np.minimum(min_by_bit[hyp], masked.min(axis=1), out=min_by_bit[hyp])
    hard = (best_idx[:, None] // weights) % size
    llr = np.clip(min_by_bit[1] - min_by_bit[0], -LLR_MAX, LLR_MAX) if soft else None
    if single:
        llr = None if llr is None else llr[0]
        return DetectorOutput(hard=hard[0], llr=llr, metric=float(best_metric[0]))
    return DetectorOutput(hard=hard, llr=llr, metric=best_metric)


# ---------------------------------------------------------------------------
# robust whitening chain


def robust_plan(h_hat, r_uu) -> RobustPlan:
    """Pre-compute the received-vector-independent part of the robust chain.

    Whitens the channel, factorizes it, builds the second-stage matrix
    ``h2 = inv(r1') + r1`` and its sorted QR. One plan serves every
    received vector of a resource block.
    """
    h_hat = as_complex_matrix(h_hat, "h_hat")
    w = inv_sqrt(r_uu)
    if w.shape[0] != h_hat.shape[0]:
        raise DimensionMismatchError("r_uu dimension must equal n_rx")
    h1 = w @ h_hat
    q1, r1 = qr_decompose(h1)
    m = r1.shape[0]
    r1_hinv = np.linalg.solve(r1.conj().T, np.eye(m, dtype=complex))
    h2 = r1_hinv + r1
    sq2 = sorted_qr(h2)
    return RobustPlan(w=w, h1=h1, q1=q1, r1=r1, h2=h2, q2=sq2.q, r2=sq2.r, perm=sq2.perm)


def robust_apply(plan: RobustPlan, y) -> RobustState:
    """Run received vectors, ``(n_rx,)`` or ``(B, n_rx)``, through a
    pre-computed robust plan: ``y1 = w y``, ``y2 = q1' y1``, ``y3 = q2' y2``.
    The hard search runs over ``(r2, y3)`` and reads back through ``perm``."""
    y, single = _rows(y, plan.w.shape[0], "y")
    y1 = y @ plan.w.T
    y2 = y1 @ plan.q1.conj()
    y3 = y2 @ plan.q2.conj()
    if single:
        y1, y2, y3 = y1[0], y2[0], y3[0]
    factors = {f.name: getattr(plan, f.name) for f in fields(RobustPlan)}
    return RobustState(**factors, y1=y1, y2=y2, y3=y3)


def robust_soft_llrs(plan: RobustPlan, y_block, cons: Constellation) -> np.ndarray:
    """Exact log-MAP LLRs of the whitened model, one row per received vector.

    ``y_block`` is ``(n_vectors, n_rx)``, or one ``(n_rx,)`` vector whose
    LLRs come back unbatched. Each vector is whitened and rotated onto
    ``plan.soft_qr``; :func:`kbest_detect` of width ``SOFT_LIST_WIDTH``
    with full expansion then lists candidates whose accumulated metric is
    ``||y2 - r1 x||^2``, ties going to the lower survivor index, then the
    lower constellation index, and :func:`logmap_llrs` turns each list
    into LLRs at unit noise variance. Returns
    ``(n_vectors, n_users * bits_per_symbol)``, user-major.
    """
    y_block, single = _rows(y_block, plan.w.shape[0], "y_block")
    sq = plan.soft_qr
    rotate = sq.q.conj().T @ plan.q1.conj().T @ plan.w
    cands = kbest_detect(sq.r, y_block @ rotate.T, SOFT_LIST_WIDTH, cons).permuted(sq.perm)
    llr = logmap_llrs(cands.symbols, cands.metrics, cons)
    return llr[0] if single else llr


# ---------------------------------------------------------------------------
# soft output


def compute_llrs(cands: CandidateList, cons: Constellation, n_users: int) -> np.ndarray:
    """Max-log LLRs from a candidate list, positive favouring bit 0.

    For each coded bit (user-major order), the LLR is the minimum metric
    among candidates carrying bit 1 minus the minimum among those carrying
    bit 0; a missing hypothesis clamps the value to ``+/- LLR_MAX``. A
    batched list (leading axis ``B``) gives ``(B, n_bits)``.
    """
    if len(cands) == 0:
        raise ValueError("empty candidate list")
    if cands.symbols.shape[-1] != n_users:
        raise DimensionMismatchError("candidate width must equal n_users")
    n_bits = n_users * cons.bits_per_symbol
    bits = cons.bit_patterns[cands.symbols].reshape(*cands.metrics.shape, n_bits)
    metrics = cands.metrics[..., None]
    min0 = np.where(bits == 0, metrics, np.inf).min(axis=-2)
    min1 = np.where(bits == 1, metrics, np.inf).min(axis=-2)
    llr = np.where(np.isinf(min1), LLR_MAX, np.where(np.isinf(min0), -LLR_MAX, min1 - min0))
    return np.clip(llr, -LLR_MAX, LLR_MAX)


def logmap_llrs(symbols, metrics, cons: Constellation) -> np.ndarray:
    """Exact log-MAP LLRs over candidate lists, positive favouring bit 0.

    ``symbols[..., c, u]`` is the constellation index of user ``u`` in
    candidate ``c`` and ``metrics[..., c]`` its squared distance at unit
    noise variance, so the candidate's likelihood is ``exp(-metric)``. Each
    LLR is ``log`` of the summed likelihood of the candidates carrying bit
    0 minus that of those carrying bit 1; a bit with no hypothesis in the
    list gets ``+/- LLR_MAX``, as in :func:`compute_llrs`. Returns
    ``(..., n_users * bits_per_symbol)``, user-major.
    """
    symbols = np.asarray(symbols)
    metrics = np.asarray(metrics, dtype=float)
    if metrics.ndim == 0 or symbols.shape[:-1] != metrics.shape or metrics.size == 0:
        raise DimensionMismatchError("need one metric per candidate and a non-empty list")
    bits = cons.bit_patterns[symbols].reshape(*metrics.shape, -1)
    # shifted by the best metric, whose weight is then 1: a zero sum means
    # the hypothesis is absent (or over ~700 worse, past the clamp anyway),
    # and its log of -inf clips to -/+LLR_MAX
    weight = np.exp(metrics.min(axis=-1, keepdims=True) - metrics)
    sum1 = np.einsum("...c,...cb->...b", weight, bits)
    sum0 = np.einsum("...c,...cb->...b", weight, 1 - bits)
    with np.errstate(divide="ignore"):
        llr = np.log(sum0) - np.log(sum1)
    return np.clip(llr, -LLR_MAX, LLR_MAX)


def equalizer_llrs(x_eq, bias, noise_var, cons: Constellation) -> np.ndarray:
    """Per-user max-log LLRs for a linear equalizer output.

    ``x_eq[m]`` is modelled as ``bias[m] * x[m]`` plus residual noise of
    power ``noise_var[m]``; the per-symbol distances are scaled by the
    residual power so the LLRs are decoder-calibrated. Same sign
    convention and clamp as :func:`compute_llrs`. ``x_eq`` of shape
    ``(B, n_users)`` gives one row of LLRs per equalized vector.
    """
    bias = np.asarray(bias, dtype=complex)
    x_eq, single = _rows(x_eq, bias.size, "x_eq")
    noise_var = np.maximum(np.asarray(noise_var, dtype=float), 1e-30)
    d = np.abs(x_eq[:, :, None] - bias[:, None] * cons.points) ** 2
    d = d / noise_var[:, None]
    llr = np.empty(x_eq.shape + (cons.bits_per_symbol,))
    for b in range(cons.bits_per_symbol):
        mask1 = cons.bit_patterns[:, b] == 1
        llr[..., b] = d[..., mask1].min(axis=-1) - d[..., ~mask1].min(axis=-1)
    llr = np.clip(llr.reshape(x_eq.shape[0], -1), -LLR_MAX, LLR_MAX)
    return llr[0] if single else llr
