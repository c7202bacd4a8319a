"""Monte-Carlo link-level BER engine and its scenario-config plumbing.

Reproducibility contract
------------------------
Every (SNR, trial) cell owns a counter-based random stream::

    Generator(Philox(key=[master_seed, 0],
                     counter=[0, trial_index, snr_index, 0]))

``snr_index`` is the SNR's position in the ascending grid. Philox advances
only counter word 0, so no cell's stream runs into another's (Salmon et
al., SC 2011). Every detector of a cell sees the same draws (common random
numbers) and none draws from the stream, so results are bit-identical no
matter how trials are ordered, parallelized, or which detector subset
runs. Inside a trial the stream is consumed in a fixed documented order:

1. user channel matrix, then interferer matrix;
2. (``ls_pilot`` only) pilot symbols, pilot interferer symbols, pilot
   noise; covariance-slot symbols, interferer symbols, noise;
3. data bits (or the coded message), interferer data symbols, data noise.

Every received block, pilot, covariance or data, is formed by
:func:`~mudet.airlink.apply_channel`, which draws its noise as one
``(slots, n_rx)`` block.

SNR definition
--------------
``snr_db`` is the expected per-receive-antenna power of the target users
over the noise power: with unit-energy symbols and unit-variance channel
entries the expected signal power per antenna is ``n_users``, so
``sigma_n2 = n_users * 10**(-snr_db / 10)``. Interferers are excluded
from the numerator. SNRs whose noise power exceeds
:data:`MAX_NOISE_POWER` are rejected, and so are interferers whose power
summed over the array exceeds :data:`MAX_ARRAY_INR` times the highest
finite SNR's noise power (floored at :data:`NOISELESS_FLOOR`).

``snr_db = inf`` transmits with zero noise while the detectors are fed
the noise power :meth:`ScenarioConfig.noise_floor`, which rises with the
interferer power, and a matching covariance floor so every matrix stays
positive definite.

Coded path
----------
One (288, 144) codeword per trial rides a single channel realization
(the resource-block assumption); codeword bits fill users first, then
channel uses, zero-padded up to a whole number of uses. Decoding sees
the first 288 detector LLRs; errors are counted on the 144 message bits.
"""

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import fec
from .airlink import (
    CONSTELLATION_KINDS,
    ChannelConfig,
    apply_channel,
    build_constellation,
    estimate_channel,
    estimate_covariance,
    generate_channel,
)
from .detectors import (
    SrKBestParams,
    build_extended,
    kbest_detect,
    linear_weights,
    logmap_llrs,
    osic_detect,
    sr_kbest_detect,
    whiten,
)
from .errors import ConfigParseError, ConfigValidationError
from .numkit import as_complex_matrix, sorted_qr

DETECTOR_NAMES = ("mrc", "mmse-irc", "osic", "kbest", "sr-kbest", "robust-sr-kbest", "ml")

NOISELESS_FLOOR = 1e-12

# Highest noise power a scenario may ask for (an SNR of about -1000 dB per
# user). Covariances and norms square received samples, and a noise power
# near 1e154 overflows those squares; 1e100 leaves room for the sums over
# antennas and samples and for strong interferers on top.
MAX_NOISE_POWER = 1e100

# Highest interference-to-noise ratio over the whole array, ``n_rx *
# interferer_power_ratio / sigma_det``, a scenario may ask for. The ideal-CE
# covariance ``g g' + sigma_det I`` has about that ratio between its largest
# and smallest eigenvalues; from about 4e15 (1 / machine epsilon) rounding
# leaves it not positive definite in some draws. 1e14 keeps a margin over
# the lowest failure seen in probes at 4 to 128 antennas.
MAX_ARRAY_INR = 1e14

# Most points a ``lo:hi:step`` SNR range may expand to. A wider grid is
# almost surely a typo, and building it could exhaust memory.
MAX_SNR_POINTS = 10_000

CSV_HEADER = "detector,snr_db,trials,bits,bit_errors,ber,coded,ce_mode,seed"

_LDPC_CODE_SEED = 0

# Every constellation a scenario may name. Whatever the users send, pilot
# and covariance slots carry QPSK and interferers send QAM16.
_CONSTELLATIONS = {kind: build_constellation(kind) for kind in CONSTELLATION_KINDS}
_PILOT = _CONSTELLATIONS["qpsk"]
_INTERFERER = _CONSTELLATIONS["qam16"]

# Width of the robust detector's soft-output list. On 16 x 4 QAM16 with two
# interferers and LS channel estimates, log-MAP over a list this wide gives
# the coded BER of exhaustive log-MAP over all 65,536 hypotheses, within
# Monte-Carlo noise; widths 16 and 32 fall short of it.
SOFT_LIST_WIDTH = 64

# Decoder-input clip on every detector's LLR stream (coded path). A bit with
# no hypothesis in a candidate list reads +/-30 (LLR_MAX), which is
# over-confident for min-sum; every LLR of osic's one-candidate list is such
# a bit.
LLR_CLIP = 8.0

# Most symbol vectors the ml detector may search: a scenario with more
# rejects ml, and a kbest.k or sr.k above it is rejected too. Every tree
# search takes the uses of a trial in row chunks whose list entries number
# at most this many together, which bounds its memory. It is the 16 x 4
# QAM16 space.
ML_GUARD = 2**16


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully-validated simulation scenario; the desk-scale defaults run in
    seconds, and their 16 x 4 QAM16 space is the largest ``ml`` accepts
    (:data:`ML_GUARD`). Every construction validates,
    ``dataclasses.replace`` included, and raises
    :class:`~mudet.errors.ConfigValidationError` naming the offending key."""

    n_rx: int = 16
    n_users: int = 4
    n_interferers: int = 0
    constellation: str = "qam16"
    snr_grid_db: tuple = tuple(float(s) for s in range(0, 21, 2))
    trials_per_point: int = 10
    symbols_per_trial: int = 50
    master_seed: int = 1
    ce_mode: str = "ideal"
    pilot_count: int = 8
    covariance_samples: int = 168
    detectors: tuple = ("mrc", "mmse-irc", "osic", "kbest", "sr-kbest", "robust-sr-kbest")
    coded: bool = False
    rx_correlation: float = 0.0
    interferer_power_ratio: float = 1.0
    sr_params: SrKBestParams = field(default_factory=SrKBestParams.default_16_4)
    kbest_k: int = 16

    def __post_init__(self):
        self.channel  # ChannelConfig checks the channel ranges
        if self.constellation not in _CONSTELLATIONS:
            raise ConfigValidationError("constellation", f"unknown kind {self.constellation!r}")
        if len(self.snr_grid_db) == 0:
            raise ConfigValidationError("snr_db", "SNR grid must be non-empty")
        if any(math.isnan(s) or s == -math.inf for s in self.snr_grid_db):
            raise ConfigValidationError("snr_db", "SNR values must be numbers above -inf")
        if len(set(self.snr_grid_db)) < len(self.snr_grid_db):
            # each copy would draw its own snr_index stream and record
            raise ConfigValidationError("snr_db", "an SNR is named twice")
        try:
            top_noise = snr_to_noise_power(min(self.snr_grid_db), self.n_users)
        except OverflowError:
            top_noise = math.inf
        if not top_noise <= MAX_NOISE_POWER:
            raise ConfigValidationError(
                "snr_db", f"noise power of the lowest SNR exceeds {MAX_NOISE_POWER:g}"
            )
        if self.trials_per_point < 1:
            raise ConfigValidationError("trials_per_point", "must be >= 1")
        if self.symbols_per_trial < 1:
            raise ConfigValidationError("symbols_per_trial", "must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigValidationError("master_seed", "must be in [0, 2**64)")
        if self.ce_mode not in ("ideal", "ls_pilot"):
            raise ConfigValidationError("ce_mode", f"unknown mode {self.ce_mode!r}")
        if self.pilot_count < 1:
            raise ConfigValidationError("pilot_count", "must be >= 1")
        if self.covariance_samples < 1:
            raise ConfigValidationError("covariance_samples", "must be >= 1")
        if not self.detectors:
            raise ConfigValidationError("detectors", "detector list must be non-empty")
        for i, name in enumerate(self.detectors):
            if name not in DETECTOR_NAMES:
                raise ConfigValidationError(
                    "detectors", f"unknown detector {name!r}; choose from {DETECTOR_NAMES}"
                )
            if name in self.detectors[:i]:
                raise ConfigValidationError("detectors", f"{name!r} is named twice")
        if self.n_interferers and self.interferer_power_ratio > self.max_interferer_power():
            raise ConfigValidationError(
                "interferer_power_ratio",
                f"interference-to-noise ratio over the array exceeds {MAX_ARRAY_INR:g}",
            )
        if not 1 <= self.kbest_k <= ML_GUARD:
            raise ConfigValidationError("kbest.k", f"must be in [1, {ML_GUARD}]")
        if self.sr_params.k > ML_GUARD:
            raise ConfigValidationError("sr.k", f"must be <= {ML_GUARD}")
        cons_size = _CONSTELLATIONS[self.constellation].size
        if "ml" in self.detectors and cons_size**self.n_users > ML_GUARD:
            raise ConfigValidationError(
                "detectors", "ml is infeasible at this scale; drop it or shrink n_users"
            )

    @cached_property
    def channel(self) -> ChannelConfig:
        """The channel model every trial of this scenario draws from."""
        return ChannelConfig(**{f.name: getattr(self, f.name) for f in fields(ChannelConfig)})

    def max_interferer_power(self) -> float:
        """Largest ``interferer_power_ratio`` this scenario accepts: the one
        that reaches ``MAX_ARRAY_INR`` at the highest finite SNR's noise
        power, floored at ``NOISELESS_FLOOR``. At ``snr_db = inf`` the
        detectors' floor rises with the interference (:meth:`noise_floor`),
        so there the bound keeps that floor within ``MAX_NOISE_POWER``."""
        noises = (snr_to_noise_power(s, self.n_users) for s in self.snr_grid_db if s < math.inf)
        lowest = min((max(n, NOISELESS_FLOOR) for n in noises), default=MAX_NOISE_POWER)
        return MAX_ARRAY_INR * lowest / self.n_rx

    def noise_floor(self) -> float:
        """Lowest noise power the detectors see: ``NOISELESS_FLOOR``, or with
        interferers, if higher, the noise power at which their power over
        the array, ``n_rx * interferer_power_ratio``, reaches
        ``MAX_ARRAY_INR``. Up to :meth:`max_interferer_power` that is no
        higher than a finite SNR's noise power floored at ``NOISELESS_FLOOR``,
        so it raises the detectors' noise power only at ``snr_db = inf``."""
        if not self.n_interferers:
            return NOISELESS_FLOOR
        return max(NOISELESS_FLOOR, self.n_rx * self.interferer_power_ratio / MAX_ARRAY_INR)


@dataclass(frozen=True)
class BerRecord:
    """Aggregated error counts of one (detector, SNR) cell."""

    detector: str
    snr_db: float
    trials: int
    bits: int
    bit_errors: int
    ber: float
    coded: bool
    ce_mode: str
    seed: int


# ---------------------------------------------------------------------------
# configuration parsing


def parse_snr_spec(spec: str) -> tuple:
    """Parse ``lo:hi:step`` (inclusive of ``hi`` within half a step) or a
    comma list into an ascending SNR grid. A repeated value is kept, and
    :class:`ScenarioConfig` rejects it."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("SNR range must be lo:hi:step")
        lo, hi, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise ValueError("SNR range bounds and step must be finite")
        if step <= 0 or hi < lo:
            raise ValueError("need step > 0 and hi >= lo")
        # an overflowing quotient is inf and fails the bound too
        half_steps = (hi - lo) / step + 0.5
        if not half_steps < MAX_SNR_POINTS:
            raise ValueError(f"SNR range has more than {MAX_SNR_POINTS} points")
        count = int(math.floor(half_steps)) + 1
        values = [lo + i * step for i in range(count)]
    else:
        values = [float(p) for p in spec.split(",") if p.strip()]
        if not values:
            raise ValueError("empty SNR list")
    return tuple(sorted(values))


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _int_list(value: str) -> tuple:
    return tuple(int(p) for p in value.split(",")) if value else ()


def _str_list(value: str) -> tuple:
    return tuple(p.strip() for p in value.split(",") if p.strip())


# config key -> (field, converter); the fields of the ``sr.*`` keys belong
# to SrKBestParams, the others to ScenarioConfig
_KEYS = {
    "n_rx": ("n_rx", int),
    "n_users": ("n_users", int),
    "n_interferers": ("n_interferers", int),
    "constellation": ("constellation", str.lower),
    "snr_db": ("snr_grid_db", parse_snr_spec),
    "trials_per_point": ("trials_per_point", int),
    "symbols_per_trial": ("symbols_per_trial", int),
    "master_seed": ("master_seed", int),
    "ce_mode": ("ce_mode", str.lower),
    "pilot_count": ("pilot_count", int),
    "covariance_samples": ("covariance_samples", int),
    "detectors": ("detectors", _str_list),
    "coded": ("coded", _parse_bool),
    "rx_correlation": ("rx_correlation", float),
    "interferer_power_ratio": ("interferer_power_ratio", float),
    "sr.k": ("k", int),
    "sr.s": ("s", int),
    "sr.p": ("p", _int_list),
    "sr.v": ("v", _int_list),
    "sr.q": ("q", _int_list),
    "kbest.k": ("kbest_k", int),
}

# keys whose value is a comma list; an empty value is the empty list, so a
# schedule with s = 0 can state its empty q
_LIST_KEYS = {"sr.p", "sr.v", "sr.q"}


def parse_config(text: str) -> ScenarioConfig:
    """Parse ``key=value`` lines (``#`` comments) into a validated config.

    Omitted keys take the documented desk-scale defaults; an empty file is
    a valid scenario. A key set twice raises, naming both lines.
    """
    raw: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigParseError(line_no, f"expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or (not value and key not in _LIST_KEYS):
            raise ConfigParseError(line_no, "empty key or value")
        if key not in _KEYS:
            raise ConfigValidationError(key, "unknown configuration key")
        if key in raw:
            first = raw[key][1]
            raise ConfigParseError(line_no, f"{key} is set twice (lines {first} and {line_no})")
        raw[key] = (value, line_no)

    values: dict = {}
    sr_values: dict = {}
    for key, (value, line_no) in raw.items():
        name, convert = _KEYS[key]
        try:
            converted = convert(value)
        except ValueError as exc:
            raise ConfigParseError(line_no, f"{key}: {exc}") from exc
        (sr_values if key.startswith("sr.") else values)[name] = converted
    try:
        sr_params = replace(SrKBestParams.default_16_4(), **sr_values)
    except ValueError as exc:
        raise ConfigValidationError("sr", str(exc)) from exc
    return ScenarioConfig(sr_params=sr_params, **values)


# ---------------------------------------------------------------------------
# random streams


class _PhiloxKey(ISeedSequence):
    """Seed sequence whose state is a given Philox key.

    ``Philox(key=...)`` still builds an unused ``SeedSequence()`` from OS
    entropy; seeded with this instead, Philox reads its two key words from
    :meth:`generate_state` and draws nothing.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def trial_stream(
    master_seed: int, detector_index: int, snr_index: int, trial_index: int
) -> np.random.Generator:
    """Counter-based stream of one (SNR, trial) cell; see the module docstring.
    ``detector_index`` does not enter it; ``perfbench/tracer.py`` keys trials by it."""
    bits = np.random.Philox(
        _PhiloxKey(np.array([master_seed, 0], dtype=np.uint64)),
        counter=np.array([0, trial_index, snr_index, 0], dtype=np.uint64),
    )
    return np.random.Generator(bits)


def snr_to_noise_power(snr_db: float, n_users: int) -> float:
    return n_users * 10.0 ** (-snr_db / 10.0)


# ---------------------------------------------------------------------------
# per-trial engine


@dataclass(frozen=True)
class _TrialKnowledge:
    """Receiver-side knowledge shared by every detector in a trial."""

    h_hat: np.ndarray
    r_uu: np.ndarray
    sigma_det: float
    sigma_i2: float


def _acquire_knowledge(cfg, channel, rng) -> _TrialKnowledge:
    """The receiver's view of the channel: the truth under ``ideal``; under
    ``ls_pilot``, a least-squares ``h_hat`` from ``pilot_count`` slots per
    user, then the covariance of ``covariance_samples`` more slots' residuals,
    loaded at least to the noise floor (noise-free residuals can all be 0)."""
    sigma_det = max(channel.sigma_n2, cfg.noise_floor())
    n_rx = cfg.n_rx
    if cfg.ce_mode == "ideal":
        h_hat = channel.h
        r_uu = channel.g @ channel.g.conj().T + sigma_det * np.eye(n_rx)
    else:
        x, y = _reference_slots(cfg, channel, rng, cfg.pilot_count * cfg.n_users)
        h_hat = estimate_channel(x, y)
        x, y = _reference_slots(cfg, channel, rng, cfg.covariance_samples)
        r_uu = estimate_covariance(y - x @ h_hat.T, cfg.noise_floor())
    sigma_i2 = max(float(r_uu.trace().real) / n_rx - sigma_det, 0.0)
    return _TrialKnowledge(h_hat=h_hat, r_uu=r_uu, sigma_det=sigma_det, sigma_i2=sigma_i2)


def _interference(cfg, rng, n_slots):
    """``(n_slots, n_interferers)`` QAM16 interferer symbols; with no
    interferers the draw is empty and takes nothing from the stream."""
    return _INTERFERER.points[rng.integers(0, _INTERFERER.size, (n_slots, cfg.n_interferers))]


def _reference_slots(cfg, channel, rng, n_slots):
    """``(x, y)`` of round-robin reference slots: row ``t`` of the ``(n_slots,
    n_users)`` block ``x`` holds one QPSK symbol, user ``t % n_users``'s, and
    ``y`` is its ``(n_slots, n_rx)`` reception under interferers and noise."""
    x = np.zeros((n_slots, cfg.n_users), dtype=complex)
    slots = np.arange(n_slots)
    x[slots, slots % cfg.n_users] = _PILOT.points[rng.integers(0, _PILOT.size, n_slots)]
    return x, apply_channel(channel, x, _interference(cfg, rng, n_slots), rng)


def _detect_uses(cfg, name: str, cons, know: _TrialKnowledge, y_block, coded: bool):
    """Run one detector over every use of a trial in one batched call.

    Returns hard decisions ``(n_uses, n_users)`` when uncoded and LLRs
    ``(n_uses, n_users * bits_per_symbol)`` when coded; a 1-D or non-finite
    block raises ``ValueError``. Every use shares the trial's channel
    knowledge, so each detector plans once and searches all uses together.

    Each detector's noise model is chosen here and nowhere else: ``r_uu``
    for ``mmse-irc`` and ``robust-sr-kbest``, ``sigma_det`` for ``mrc``,
    and ``sigma_det + sigma_i2`` for ``osic``, ``kbest``, ``sr-kbest`` and
    ``ml``. :func:`whiten` turns it into a filter ``w`` and the whitened
    channel ``hw = w h_hat``, so ``mmse-irc`` differs from ``mrc``, and
    ``robust-sr-kbest`` from ``sr-kbest``, only in that model.

    ``mrc`` and ``mmse-irc`` take the MMSE weights ``W = np.dot(
    linear_weights(hw), w)`` (``mrc`` is not the matched filter, but keeps
    the name every CSV carries). Uncoded they slice ``x_eq / g``, ``g =
    diag(W h_hat)``; coded, each user's list is every point ``s`` at the
    metric ``|x_eq - g s|^2 / (g (1 - g))``, ``g (1 - g)`` being its
    residual power.

    Every tree search runs on the sorted QR ``sq`` of ``hw`` (``osic``: of
    its MMSE extension, :func:`build_extended`), onto which ``y @
    np.dot(sq.q[:n_rx]', w).T`` rotates every use, so its metric is the
    whitened ``||w (y - h_hat x)||^2``, a negative log-likelihood up to a
    per-vector constant. Uncoded, the K-best and sorting-reduced searches
    return only their best candidate (``best_only``); coded, every list
    becomes LLRs by list log-MAP (:func:`logmap_llrs`), and ``osic``'s one
    candidate gives every bit ``+/- LLR_MAX``. Every K-best list comes from
    :func:`kbest_detect` and its one tie rule: ``ml``'s, of width
    ``size**n_users``, which cuts no path, and the robust detector's coded
    list, of width ``SOFT_LIST_WIDTH``. Every tree search takes the uses in
    chunks of ``ML_GUARD // width`` rows, ``width`` being its list width,
    which bounds its memory at any block size.
    """
    h_hat = know.h_hat
    # rows checked before the product, which warns on an inf entry
    y_block = as_complex_matrix(y_block, "y_block")
    if name in ("mmse-irc", "robust-sr-kbest"):
        noise = know.r_uu
    elif name == "mrc":
        noise = know.sigma_det
    elif name in DETECTOR_NAMES:
        noise = know.sigma_det + know.sigma_i2
    else:
        raise ValueError(f"unknown detector {name!r}")
    w, hw = whiten(h_hat, noise)

    if name in ("mrc", "mmse-irc"):
        weights = np.dot(linear_weights(hw), w)
        x_eq = y_block @ weights.T
        gain = np.diag(weights @ h_hat).real
        if not coded:
            return cons.nearest(x_eq / gain)
        # every point is each user's list; the floor guards a gain of 0 or 1
        dist = np.abs(x_eq[:, :, None] - gain[:, None] * cons.points) ** 2
        dist = dist / np.maximum(gain * (1 - gain), 1e-30)[:, None]
        symbols = np.broadcast_to(np.arange(cons.size)[:, None], dist.shape + (1,))
        return logmap_llrs(symbols, dist, cons).reshape(len(x_eq), -1)

    sq = build_extended(hw) if name == "osic" else sorted_qr(hw)
    y_tilde = y_block @ np.dot(sq.q[: h_hat.shape[0]].conj().T, w).T
    robust = name == "robust-sr-kbest"
    if name == "osic":
        width = 1
    elif name == "kbest":
        width = cfg.kbest_k
    elif name == "ml":
        width = cons.size**cfg.n_users
    else:
        width = SOFT_LIST_WIDTH if robust and coded else cfg.sr_params.k
    step = ML_GUARD // width
    out = []
    for start in range(0, y_tilde.shape[0], step):
        rows = y_tilde[start : start + step]
        if name == "osic":
            cands = osic_detect(sq.r, rows, cons)
        elif name in ("kbest", "ml") or (robust and coded):
            cands = kbest_detect(sq.r, rows, width, cons, best_only=not coded)
        else:
            cands = sr_kbest_detect(sq.r, rows, cfg.sr_params, cons, best_only=not coded)
        cands = cands.permuted(sq.perm)
        if coded:
            out.append(logmap_llrs(cands.symbols, cands.metrics, cons))
        else:
            out.append(cands.symbols[:, 0])
    return out[0] if len(out) == 1 else np.concatenate(out)


def _run_trial(cfg, det_name: str, code, snr_db: float, rng) -> tuple[int, int]:
    """One independent trial; returns (bits counted, bit errors)."""
    cons = _CONSTELLATIONS[cfg.constellation]
    channel = generate_channel(cfg.channel, rng, snr_to_noise_power(snr_db, cfg.n_users))
    know = _acquire_knowledge(cfg, channel, rng)

    bits_per_use = cfg.n_users * cons.bits_per_symbol
    if cfg.coded:
        n_uses = math.ceil(code.n / bits_per_use)
        message = rng.integers(0, 2, code.k, dtype=np.uint8)
        codeword = fec.encode(code, message)
        tx_bits = np.zeros(n_uses * bits_per_use, dtype=np.uint8)
        tx_bits[: code.n] = codeword
        tx_bits = tx_bits.reshape(n_uses, bits_per_use)
    else:
        n_uses = cfg.symbols_per_trial
        tx_bits = rng.integers(0, 2, (n_uses, bits_per_use), dtype=np.uint8)

    tx_idx = cons.bits_to_indices(tx_bits.reshape(n_uses, cfg.n_users, cons.bits_per_symbol))
    y_block = apply_channel(channel, cons.points[tx_idx], _interference(cfg, rng, n_uses), rng)

    out = _detect_uses(cfg, det_name, cons, know, y_block, cfg.coded)

    if not cfg.coded:
        rx_bits = cons.indices_to_bits(out).reshape(n_uses, bits_per_use)
        return tx_bits.size, int(np.count_nonzero(rx_bits != tx_bits))
    llr_stream = np.clip(out.reshape(-1)[: code.n], -LLR_CLIP, LLR_CLIP)
    decoded, _, _ = fec.decode_min_sum(code, llr_stream)
    return code.k, int(np.sum(decoded != message))


def run_scenario(cfg: ScenarioConfig) -> list[BerRecord]:
    """Run every (detector, SNR) cell of a scenario.

    Trials are independent and aggregated by commutative integer sums, so
    any execution order produces identical records.
    """
    code = fec.build_code(seed=_LDPC_CODE_SEED) if cfg.coded else None
    snr_grid = tuple(sorted(cfg.snr_grid_db))
    records = []
    for det_name in cfg.detectors:
        det_index = DETECTOR_NAMES.index(det_name)
        for snr_index, snr_db in enumerate(snr_grid):
            bits = errors = 0
            for trial in range(cfg.trials_per_point):
                rng = trial_stream(cfg.master_seed, det_index, snr_index, trial)
                try:
                    b, e = _run_trial(cfg, det_name, code, snr_db, rng)
                except Exception as exc:
                    raise RuntimeError(
                        f"trial aborted (detector={det_name}, snr_db={snr_db:g}, "
                        f"trial={trial}): {exc}"
                    ) from exc
                bits += b
                errors += e
            records.append(
                BerRecord(
                    detector=det_name,
                    snr_db=snr_db,
                    trials=cfg.trials_per_point,
                    bits=bits,
                    bit_errors=errors,
                    ber=errors / bits,
                    coded=cfg.coded,
                    ce_mode=cfg.ce_mode,
                    seed=cfg.master_seed,
                )
            )
    return records


# ---------------------------------------------------------------------------
# output sinks


def _ordered(records):
    first_seen: dict[str, int] = {}
    for rec in records:
        first_seen.setdefault(rec.detector, len(first_seen))
    return sorted(records, key=lambda r: (first_seen[r.detector], r.snr_db))


def _open_sink(sink):
    if hasattr(sink, "write"):
        return sink, False
    return open(sink, "w", encoding="utf-8", newline=""), True


def format_record(rec: BerRecord) -> str:
    return (
        f"{rec.detector},{rec.snr_db:g},{rec.trials},{rec.bits},{rec.bit_errors},"
        f"{rec.ber:.6g},{'true' if rec.coded else 'false'},{rec.ce_mode},{rec.seed}"
    )


def write_csv(records, sink) -> None:
    """Write records as CSV: fixed header, detector order then ascending SNR."""
    fh, close = _open_sink(sink)
    try:
        fh.write(CSV_HEADER + "\n")
        for rec in _ordered(records):
            fh.write(format_record(rec) + "\n")
    finally:
        if close:
            fh.close()


def emit_plot_data(records, sink) -> None:
    """Write whitespace-separated (snr_db, ber) blocks, one per detector,
    separated by blank lines; digestible by gnuplot and friends."""
    fh, close = _open_sink(sink)
    try:
        ordered = _ordered(records)
        current = None
        for rec in ordered:
            if rec.detector != current:
                if current is not None:
                    fh.write("\n")
                fh.write(f"# {rec.detector}\n")
                current = rec.detector
            fh.write(f"{rec.snr_db:g} {rec.ber:.6g}\n")
    finally:
        if close:
            fh.close()
