"""Multi-user uplink detectors.

Linear detection (the weight matrices of multi-user MMSE with
interference rejection and of white-noise MRC), three tree searches on an
upper-triangular system (ordered successive interference cancellation,
breadth-first K-best, and its sorting-reduced variant driven by a
``(k, s, p, v, q)`` schedule), exhaustive maximum likelihood, and the
interference-whitening plan (:func:`robust_plan`) that puts the tree
search on the whitened likelihood, robust to spatially coloured
interference. A detector is composed from these parts in ``mudet.bench``:
a plan per channel, a rotation of the received vectors, one search and,
on the coded path, LLRs.

LLR convention: positive favours bit 0. Magnitudes are clamped to
``LLR_MAX`` so a missing bit hypothesis in a candidate list stays finite
for the decoder.

Batching: :func:`build_extended`, the tree searches (:func:`osic_detect`,
:func:`kbest_detect`, :func:`sr_kbest_detect`), :func:`ml_bruteforce`
and :func:`equalizer_llrs` take a ``(B, ...)`` block
of received vectors that share one channel factorization, and nothing
else: a 1-D input raises ``ValueError`` (one vector is the block
``y[None]``). Every output carries the leading ``B`` axis. Given its
rotated input ``y_tilde``, every row is searched exactly as it would be
alone: each selection along the last axis
returns what a stable sort of that row would, so ties resolve the same way
at any batch size. Every selection of a search (the per-parent ranking of
a partial-expansion or scheduled layer, each survivor and pool cut, and
the final order) goes through :func:`_smallest`: a large input is ranked
by one value sort of packed (metric, index) keys, and the stable argsort
decides when two of the kept metrics lie within a few ulps of each other.
Rows of ``_PARTITION_MIN`` entries or more (the 1024-child cuts of a
width-64 QAM16 soft list) are partitioned in place at the cut and only
their head is sorted: the packed keys are unique, so the head holds the
same keys in the same order as a full sort. A full-expansion K-best
layer cuts its unsorted children, so its ties go to the lower survivor
index, then to the lower constellation index. A
scheduled sorting-reduced layer gathers only the children its schedule
reads. With ``best_only=True`` the K-best and sorting-reduced searches
return ``full[:, :1]`` of their list, bit for bit, without building the
last layer's list: its best leaf is one ``argmin`` (the first of tied
minima, as in the stable sort). A scheduled sorting-reduced last layer
takes that ``argmin`` over the children that can reach the list, and a
tied minimum there sends the block through the full layer. The uncoded
path reads nothing else. A child's distance in a layer is computed per
axis of the square constellation grid, from the ``levels`` and ``pairs``
tables of :class:`~mudet.airlink.Constellation` (:func:`_layer_increments`).
That needs the real diagonal of ``r`` that :mod:`mudet.numkit`'s
factorizations return; a search given a complex diagonal raises
``ValueError``. The rotations in front of a search (``y @ rotate.T``,
``y_ext @ q.conj()``) are matrix products and round a row differently
alone than inside a block, so a row's ``y_tilde``, and the LLRs computed
from it, match its row-alone values only to rounding; the records of the
batched path are pinned by ``tests/test_bench.py::test_golden_records``.

All functions are pure: they read their arguments and return fresh
arrays, so concurrent calls on distinct subcarrier instances are safe.
"""

from dataclasses import dataclass
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
    inv_sqrt,
    qr_decompose,
    solve_hermitian,
    sorted_qr,
)

LLR_MAX = 30.0

# Per-parent child budget of the sorting-reduced search.
SR_EXPAND_BUDGET = 4

# Largest exhaustive search space ml_bruteforce (and a scenario running it)
# accepts.
ML_GUARD = 10**6
_ML_CHUNK = 1 << 15


@dataclass(frozen=True)
class CandidateList:
    """Survivors of a tree search, ascending by accumulated squared distance.

    ``symbols[b, c, m]`` is the constellation index of candidate ``c`` of
    received vector ``b`` for the symbol solved at triangular row ``m``.
    """

    symbols: np.ndarray
    metrics: np.ndarray

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
    is ever sorted, which is the entire point of the structure. ``p``, ``v``
    and ``q`` take any 1-D integer sequence and are stored as tuples of
    ints, so two schedules compare and hash by value.
    """

    k: int
    s: int
    p: tuple
    v: tuple
    q: tuple

    def __post_init__(self):
        p, v, q = (np.asarray(getattr(self, name)) for name in "pvq")
        for name, entries in zip("pvq", (p, v, q)):
            if entries.ndim != 1 or (entries.size and entries.dtype.kind not in "iu"):
                raise InvalidSearchParamsError(f"{name} must be a 1-D list of integers")
            object.__setattr__(self, name, tuple(entries.tolist()))
        if self.k < 1 or self.s < 0 or self.s > self.k:
            raise InvalidSearchParamsError(f"need 0 <= s <= k, got k={self.k} s={self.s}")
        if p.size != self.k or v.size != self.k:
            raise InvalidSearchParamsError("p and v must have one entry per survivor slot")
        if np.any(p < 0) or np.any(v < 0):
            raise InvalidSearchParamsError("p and v entries must be >= 0")
        if int(p.sum()) != self.k - self.s:
            raise InvalidSearchParamsError(
                f"sum(p)={int(p.sum())} must equal k - s = {self.k - self.s}"
            )
        if q.size != self.s:
            raise InvalidSearchParamsError("q must list one position per sorted survivor")
        if self.s and (np.any(q < 1) or np.any(q > self.k) or np.any(np.diff(q) <= 0)):
            raise InvalidSearchParamsError("q must be strictly increasing within [1..k]")
        if np.any(p + v > SR_EXPAND_BUDGET):
            raise InvalidSearchParamsError(
                f"p[i] + v[i] must stay within the expansion budget {SR_EXPAND_BUDGET}"
            )
        if int(v.sum()) < self.s:
            raise InvalidSearchParamsError("sorting pool smaller than s")

    @cached_property
    def fill_indices(self):
        """Static gather table of one scheduled layer.

        ``((parent, rank), direct_slots, q_slots, max_rank)``: ``parent`` and
        ``rank`` name each child the schedule reads, the ``k - s`` direct
        children first (parent order) and the pool after them;
        ``direct_slots`` are the survivor slots outside ``q``, ``q_slots``
        the 0-based slots of ``q``, and ``max_rank`` is the number of
        children the schedule reads per parent.
        """
        max_rank = max(p + v for p, v in zip(self.p, self.v))
        direct = [(i, j) for i, p in enumerate(self.p) for j in range(p)]
        ranks = enumerate(zip(self.p, self.v))
        pool = [(i, p + j) for i, (p, v) in ranks for j in range(v)]
        parent, rank = np.ascontiguousarray(np.array(direct + pool, dtype=np.int64).T)
        q_slots = np.array(self.q, dtype=np.int64) - 1
        direct_slots = np.delete(np.arange(self.k), q_slots)  # setdiff1d imports numpy.ma
        return (parent, rank), direct_slots, q_slots, max_rank

    @cached_property
    def leaf_parents(self) -> np.ndarray:
        """Parents whose children can reach the search's final list: those
        with a direct child (``p[i] >= 1``) and, when the pool is cut
        (``s >= 1``), those with a pool member (``v[i] >= 1``)."""
        return np.flatnonzero((np.array(self.p) > 0) | ((np.array(self.v) > 0) & (self.s > 0)))

    @classmethod
    def default_16_4(cls) -> "SrKBestParams":
        """The optimized (16, 4) schedule used as the package default."""
        p = [2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        v = [2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2]
        return cls(k=16, s=4, p=p, v=v, q=[2, 4, 6, 8])


# ---------------------------------------------------------------------------
# linear detectors


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


def _rows(y, width: int, name: str) -> np.ndarray:
    """``y`` as a validated ``(B, width)`` complex block; one vector is ``y[None]``."""
    arr = np.asarray(y, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a (B, {width}) block, got ndim={arr.ndim}")
    if arr.shape[1] != width:
        raise DimensionMismatchError(f"{name} rows must have length {width}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _triangular_system(r, y_tilde):
    """Validated ``(r, y_tilde rows)`` of an upper-triangular search."""
    r = as_complex_matrix(r, "r")
    m = r.shape[0]
    if r.shape[1] != m:
        raise DimensionMismatchError("r must be m x m and y_tilde length m")
    if r.diagonal().imag.any():  # the per-axis distances of _layer_increments need it
        raise ValueError("r must have a real diagonal")
    return r, _rows(y_tilde, m, "y_tilde")


def build_extended(h_hat, y, sigma_n2: float, sigma_i2: float) -> ExtendedModel:
    """Stack ``sqrt(sigma_n2 + sigma_i2) * I`` under the channel.

    QR-based detection on the extended model implicitly applies MMSE-style
    regularization without explicit matrix inversion. ``y`` is a ``(B,
    n_rx)`` block; ``y_ext`` is ``(B, n_rx + n_users)``.
    """
    h_hat = as_complex_matrix(h_hat, "h_hat")
    rows = _rows(y, h_hat.shape[0], "y")
    total = sigma_n2 + sigma_i2
    if total <= 0.0:
        raise ValueError("sigma_n2 + sigma_i2 must be > 0")
    n_users = h_hat.shape[1]
    h_ext = np.concatenate([h_hat, np.sqrt(total) * np.eye(n_users)])
    y_ext = np.concatenate([rows, np.zeros((rows.shape[0], n_users), dtype=complex)], axis=1)
    return ExtendedModel(h_ext=h_ext, y_ext=y_ext)


def _layer_increments(r, y_tilde, layer, symbols, cons):
    """Squared per-layer distances of every child of every candidate.

    ``y_tilde (B, m)``, ``symbols (B, K, m)``; returns ``(B, K, size)``.
    The points form a square grid (see :class:`Constellation`) and ``r[layer,
    layer]`` is real, so a child's distance is the sum of two squared
    per-axis offsets. One real matmul with ``cons.pairs`` sums the ``2
    side`` squares of each parent pairwise; only two terms of each sum are
    nonzero, so every distance is ``x.real * x.real + x.imag * x.imag`` of
    the complex offset ``x`` bit for bit, at any batch size.
    """
    tail = cons.points[symbols[:, :, layer + 1 :]] @ r[layer, layer + 1 :]
    b = y_tilde[:, layer, None] - tail
    # axes[c, j, n]: part c (real, imaginary) of parent n's offset from level
    # j of that axis, laid out so each numpy loop runs over the B * K parents
    parts = b.view(np.float64).reshape(b.size, 2).T
    axes = parts[:, None, :] - (r[layer, layer].real * cons.levels)[:, :, None]
    axes *= axes
    return (axes.reshape(cons.pairs.shape[0], b.size).T @ cons.pairs).reshape(*b.shape, -1)


# Below this many entries one stable argsort is cheaper than building and
# sorting packed keys (measured on (B, 256) and (B, 16, 16) metrics).
_KEY_SORT_MIN = 2048

# From this row width on, an in-place partition at the cut and a sort of
# the head beat one sort of the whole row (measured at B = 18, count 64:
# the sort wins at 256, the partition from 384 on).
_PARTITION_MIN = 512

# Clears the sign bit, so -0.0 packs like +0.0.
_MAGNITUDE = np.uint64(0x7FFF_FFFF_FFFF_FFFF)


def _smallest(values, count):
    """Indices of the ``count`` smallest entries along the last axis, ascending.

    Always equal to ``np.argsort(values, kind="stable")[..., :count]`` for
    non-negative float64 ``values`` (``-0.0`` counts as ``0.0``). Inputs of
    at least ``_KEY_SORT_MIN`` entries are ranked by one value sort of
    packed keys: each value's bits, read as ``uint64`` (whose order is the
    float order for non-negative values), with the low ``ceil(log2 n)``
    bits replaced by the entry's index, so the indices come back from the
    sorted keys. Clearing those bits can only merge values within ``n``
    ulps of each other; when two of the first ``count + 1`` keys agree above
    the index bits the stable argsort decides instead, and otherwise every
    kept entry is strictly smaller than every entry after it.

    Rows of at least ``_PARTITION_MIN`` entries are not sorted whole: an
    in-place partition at ``count`` puts the ``count + 1`` smallest keys
    first, and only they are sorted. The packed keys are unique (their
    index bits differ), so that head is the head of the fully sorted row
    key for key, and the tie check reads the same keys.
    """
    if count == 1:  # argmin returns the first index of the minimum
        return values.argmin(axis=-1)[..., None]
    n = values.shape[-1]
    if values.size < _KEY_SORT_MIN:
        return values.argsort(axis=-1, kind="stable")[..., :count]
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    keys = values.view(np.uint64) & (_MAGNITUDE & ~low)
    keys |= np.arange(n, dtype=np.uint64)
    if n >= _PARTITION_MIN and count < n:
        keys.partition(count, axis=-1)  # in place: np.partition would copy
        keys[..., : count + 1].sort(axis=-1)
    else:
        keys.sort(axis=-1)
    head = keys[..., : count + 1]
    if np.any((head[..., 1:] ^ head[..., :-1]) <= low):
        return values.argsort(axis=-1, kind="stable")[..., :count]
    return (head[..., :count] & low).view(np.int64)


def _best_leaf(r, y_tilde, symbols, metrics, cons):
    """Best child of the last layer (layer 0) as a one-candidate list.

    One ``argmin`` over the accumulated metrics of every child of the given
    parents. Returns ``None`` when any row's minimum is attained twice: a
    search ranks tied children by its own rule, which the caller then runs
    in full.
    """
    n_vec = symbols.shape[0]
    rows = np.arange(n_vec)
    inc = _layer_increments(r, y_tilde, 0, symbols, cons)
    inc += metrics[:, :, None]
    flat = inc.reshape(n_vec, -1)
    best = flat.argmin(axis=-1)
    low = flat[rows, best]
    if np.count_nonzero(flat == low[:, None]) > n_vec:
        return None
    out = symbols[rows, best // cons.size]
    out[:, 0] = best % cons.size
    return CandidateList(symbols=out[:, None], metrics=low[:, None])


def _kbest_step(r, y_tilde, layer, symbols, metrics, cons, expand, keep):
    """One breadth-first layer: expand each parent, keep the best sorted.

    ``symbols (B, K, m)`` and ``metrics (B, K)`` in, the ``keep`` best
    children of each row out. Only a partial expansion sorts each parent's
    children; a full one cuts the unsorted children directly.
    """
    n_vec, _, m = symbols.shape
    inc = _layer_increments(r, y_tilde, layer, symbols, cons)
    full = expand == cons.size
    if not full:
        order = _smallest(inc, expand)
        inc = np.take_along_axis(inc, order, axis=-1)
    inc += metrics[:, :, None]
    flat = inc.reshape(n_vec, -1)
    # flat index of each kept child; its parent's flat index is that // expand
    child = _smallest(flat, keep) + np.arange(n_vec)[:, None] * flat.shape[1]
    parent = child // expand
    out = symbols.reshape(-1, m).take(parent, axis=0)
    out[:, :, layer] = child - parent * expand if full else order.take(child)
    return out, flat.take(child)


def kbest_detect(
    r, y_tilde, k: int, cons: Constellation, expand: int | None = None,
    best_only: bool = False,
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
    distances differ. Each row of ``y_tilde (B, m)`` is searched against
    the shared ``r``; the lists come back with the leading ``B`` axis.

    ``best_only=True`` returns only the first candidate, ``full[:, :1]``
    of the list above, symbols and metric bits alike: the last layer keeps
    one child, and :func:`_smallest` picks it with one ``argmin``, which
    returns the first of tied minima as the stable sort does.
    """
    r, y_tilde = _triangular_system(r, y_tilde)
    m = r.shape[0]
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
        keep = 1 if best_only and layer == 0 else k
        symbols, metrics = _kbest_step(r, y_tilde, layer, symbols, metrics, cons, eff, keep)
    return CandidateList(symbols=symbols, metrics=metrics)


def _sr_step(r, y_tilde, layer, symbols, metrics, cons, params):
    """One scheduled layer of the sorting-reduced search.

    Each parent's children are ranked by per-layer distance; direct
    children land at the non-``q`` slots in parent order without any
    comparison, and only the small pool is cut: its best ``s`` members
    occupy the ``q`` slots in ascending metric order. Only the children the
    schedule reads are gathered, the ``k - s`` direct ones and the ``sum(v)``
    pool members, each through its parent and rank
    (``params.fill_indices``); every survivor field is then read through
    one ``(B, k)`` index into them.
    """
    (parent, rank), direct_slots, q_slots, max_rank = params.fill_indices
    n_direct = direct_slots.size
    n_vec, n_par, m = symbols.shape
    rows = np.arange(n_vec)[:, None]
    inc = _layer_increments(r, y_tilde, layer, symbols, cons)
    # take where it measured faster than a fancy index (shared columns and
    # whole survivor rows); the per-row gathers stay fancy indices
    point = _smallest(inc, max_rank).reshape(n_vec, -1).take(parent * max_rank + rank, axis=1)
    read = metrics.take(parent, axis=1) + inc[rows, parent, point]
    src = np.empty((n_vec, params.k), dtype=np.int64)
    src[:, direct_slots] = np.arange(n_direct)
    if params.s:
        src[:, q_slots] = n_direct + _smallest(read[:, n_direct:], params.s)
    out_symbols = symbols.reshape(-1, m).take(parent[src] + rows * n_par, axis=0)
    out_symbols[:, :, layer] = point[rows, src]
    return out_symbols, read[rows, src]


def sr_kbest_detect(
    r, y_tilde, params: SrKBestParams, cons: Constellation, best_only: bool = False
) -> CandidateList:
    """Sorting-reduced K-best search.

    Layers run breadth-first as in :func:`kbest_detect`. While fewer than
    ``params.k`` candidates exist the search warms up by keeping every
    child (sorted); once the survivor list is full each layer applies the
    ``(p, v, q)`` schedule, whose positional placement replaces the full
    per-layer sort. The output is sorted ascending by metric. Searches the
    rows of ``y_tilde (B, m)`` as :func:`kbest_detect` does.

    ``best_only=True`` returns only the first candidate, ``full[:, :1]``
    of the list above, symbols and metric bits alike. A warm-up last layer
    keeps one child, picked by one ``argmin``. A scheduled last layer ranks
    nothing: one ``argmin`` runs over the children that can reach the final
    list, those of ``params.leaf_parents``. A unique minimum there is its
    parent's first child, so it is a direct survivor or the pool's best,
    and it beats every other survivor. When a row's minimum is tied, the
    scheduled layer runs in full instead and its best entry is kept.
    """
    r, y_tilde = _triangular_system(r, y_tilde)
    m = r.shape[0]
    if params.fill_indices[-1] > cons.size:
        raise InvalidSearchParamsError("schedule needs more children than the constellation has")
    n_vec = y_tilde.shape[0]
    symbols = np.zeros((n_vec, 1, m), dtype=np.int64)
    metrics = np.zeros((n_vec, 1))
    for layer in range(m - 1, -1, -1):
        last = best_only and layer == 0
        if symbols.shape[1] < params.k:
            symbols, metrics = _kbest_step(
                r, y_tilde, layer, symbols, metrics, cons, cons.size, 1 if last else params.k
            )
            continue
        if last:
            reach = params.leaf_parents
            best = _best_leaf(r, y_tilde, symbols[:, reach], metrics[:, reach], cons)
            if best is not None:
                return best
        symbols, metrics = _sr_step(r, y_tilde, layer, symbols, metrics, cons, params)
    final = _smallest(metrics, 1 if best_only else params.k)
    rows = np.arange(n_vec)[:, None]
    return CandidateList(symbols=symbols[rows, final], metrics=metrics[rows, final])


def osic_detect(r, y_tilde, cons: Constellation) -> CandidateList:
    """Ordered successive interference cancellation by back-substitution.

    Starts at the last (strongest) layer of the sorted triangular system,
    slices each residual to the nearest constellation point and cancels
    it: the list of :func:`kbest_detect` with ``k = 1`` and ``expand = 1``,
    one candidate in layer order with its squared distance. Searches the
    rows of ``y_tilde (B, m)`` as :func:`kbest_detect` does.
    """
    r, y_tilde = _triangular_system(r, y_tilde)
    m = r.shape[0]
    hard = np.empty((y_tilde.shape[0], m), dtype=np.int64)
    points = cons.points
    for layer in range(m - 1, -1, -1):
        resid = y_tilde[:, layer] - points[hard[:, layer + 1 :]] @ r[layer, layer + 1 :]
        hard[:, layer] = cons.nearest(resid / r[layer, layer])
    metric = (np.abs(y_tilde - points[hard] @ r.T) ** 2).sum(axis=-1)
    return CandidateList(symbols=hard[:, None, :], metrics=metric[:, None])


def ml_bruteforce(h, y, cons: Constellation, soft: bool = True) -> tuple:
    """Exhaustive minimum-distance search over every symbol vector.

    Returns ``(hard, llr, metric)``, one row per received vector: hard
    decisions (constellation indices per user), per-bit LLRs (None when
    ``soft=False``) and best metrics.

    Guarded to one million candidates. ``y`` is a ``(B, n)`` block; each chunk of ``_ML_CHUNK`` candidate images is
    computed once for the whole batch and scored in steps of at most
    ``max(_ML_CHUNK, B)`` (candidate, vector) pairs, so memory stays
    bounded. LLRs are exact max-log values over the full search space.
    Ties resolve to the lexicographically smallest index sequence.
    """
    h = as_complex_matrix(h, "h")
    n, m = h.shape
    y = _rows(y, n, "y")
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
    return hard, llr, best_metric


# ---------------------------------------------------------------------------
# robust whitening plan


def robust_plan(h_hat, r_uu) -> tuple[np.ndarray, SortedQR]:
    """The received-vector-independent part of the robust detector.

    Whitens the channel with ``w = inv_sqrt(r_uu)``, factorizes ``w h_hat =
    q1 r1`` and sorts ``r1``: ``sq = sorted_qr(r1)``, so ``(w h_hat)[:,
    sq.perm] = q1 sq.q sq.r``. Returns ``(rotate, sq)`` with ``rotate =
    sq.q' q1' w``: a block ``y`` becomes ``y_tilde = y @ rotate.T``, and
    ``||y_tilde - sq.r x||^2`` is the whitened log-likelihood ``||w (y -
    h_hat x)||^2`` up to a per-vector constant, with ``x`` in ``sq.perm``
    order. One plan serves every received vector of a resource block.
    """
    h_hat = as_complex_matrix(h_hat, "h_hat")
    w = inv_sqrt(r_uu)
    if w.shape[0] != h_hat.shape[0]:
        raise DimensionMismatchError("r_uu dimension must equal n_rx")
    q1, r1 = qr_decompose(w @ h_hat)
    sq = sorted_qr(r1)
    return sq.q.conj().T @ q1.conj().T @ w, sq


# ---------------------------------------------------------------------------
# soft output


def logmap_llrs(symbols, metrics, cons: Constellation) -> np.ndarray:
    """Exact log-MAP LLRs over candidate lists, positive favouring bit 0.

    ``symbols[..., c, u]`` is the constellation index of user ``u`` in
    candidate ``c`` and ``metrics[..., c]`` its negative log-likelihood up
    to a constant per list (a squared distance at unit noise variance), so
    the candidate's likelihood is proportional to ``exp(-metric)``. Each
    LLR is ``log`` of the summed likelihood of the candidates carrying bit
    0 minus that of those carrying bit 1; a bit with no hypothesis in the
    list gets ``+/- LLR_MAX``. Returns ``(..., n_users * bits_per_symbol)``,
    user-major.
    """
    symbols = np.asarray(symbols)
    metrics = np.asarray(metrics, dtype=float)
    if metrics.ndim == 0 or symbols.shape[:-1] != metrics.shape or metrics.size == 0:
        raise DimensionMismatchError("need one metric per candidate and a non-empty list")
    bits = cons.bit_patterns.take(symbols, axis=0).reshape(*metrics.shape, -1)
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
    convention and clamp as :func:`logmap_llrs`. ``x_eq (B, n_users)``
    gives one row of LLRs per equalized vector.
    """
    bias = np.asarray(bias, dtype=complex)
    x_eq = _rows(x_eq, bias.size, "x_eq")
    noise_var = np.maximum(np.asarray(noise_var, dtype=float), 1e-30)
    d = np.abs(x_eq[:, :, None] - bias[:, None] * cons.points) ** 2
    d = d / noise_var[:, None]
    llr = np.empty(x_eq.shape + (cons.bits_per_symbol,))
    for b in range(cons.bits_per_symbol):
        mask1 = cons.bit_patterns[:, b] == 1
        llr[..., b] = d[..., mask1].min(axis=-1) - d[..., ~mask1].min(axis=-1)
    return np.clip(llr.reshape(x_eq.shape[0], -1), -LLR_MAX, LLR_MAX)
