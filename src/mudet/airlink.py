"""Air-interface signal model.

Gray-mapped constellations, a correlated Rayleigh channel with external
interferers, pilot-based least-squares channel estimation, and sample
estimation of the interference+noise covariance.

The channel uses a Kronecker receive-side correlation model: antenna ``j``
and ``k`` are correlated by ``rho ** |j - k|``, applied to i.i.d. unit
variance complex Gaussian entries. Interferer columns are drawn the same
way and scaled by the square root of the interferer power ratio.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptySampleSetError,
    InsufficientPilotsError,
    NotPositiveDefiniteError,
)
from .numkit import as_complex_matrix, cholesky

CONSTELLATION_KINDS = ("qpsk", "qam16")

# Diagonal loading of a covariance estimate: 1e-6 of its average diagonal power.
COV_LOADING_REL = 1e-6


def _gray_codes(n_bits: int) -> np.ndarray:
    i = np.arange(1 << n_bits)
    return i ^ (i >> 1)


@dataclass(frozen=True, eq=False)
class Constellation:
    """Unit-energy Gray-mapped constellation.

    ``points[i]`` is the complex symbol whose bit pattern is row ``i`` of
    ``bit_patterns`` (most significant bit first, so index == packed bits).

    Every kind is a square grid of ``side x side`` points, described by two
    read-only tables. Point ``i * side + q`` is ``levels[0, i] + 1j *
    levels[1, q]`` bit for bit; ``levels`` is ``(2, side)``, one row of
    levels per axis. Column ``i * side + q`` of the ``(2 side, size)`` 0/1
    matrix ``pairs`` has its ones in rows ``i`` and ``side + q``, so it adds
    in-phase term ``i`` to quadrature term ``q``. The tree searches of
    :mod:`mudet.detectors` compute their child distances per axis from
    these tables.

    Two constellations compare and hash by identity, so one can key a dict
    or sit in a list that ``in`` searches; build each kind once and share it.
    """

    points: np.ndarray
    bits_per_symbol: int
    bit_patterns: np.ndarray
    levels: np.ndarray
    pairs: np.ndarray

    @property
    def size(self) -> int:
        return self.points.size

    def bits_to_indices(self, bits: np.ndarray) -> np.ndarray:
        """Pack bit groups (last axis of length ``bits_per_symbol``) to indices."""
        bits = np.asarray(bits)
        if bits.shape[-1] != self.bits_per_symbol:
            raise DimensionMismatchError(
                f"expected groups of {self.bits_per_symbol} bits, got {bits.shape[-1]}"
            )
        weights = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)
        return bits @ weights

    def indices_to_bits(self, indices: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`bits_to_indices`; appends a bit axis."""
        return self.bit_patterns.take(indices, axis=0)

    def nearest(self, values: np.ndarray) -> np.ndarray:
        """Slice complex values to nearest-point indices (ties: lowest index)."""
        values = np.asarray(values, dtype=complex)
        d = np.abs(values[..., None] - self.points)
        return d.argmin(axis=-1)


def _gray_pam(n_bits: int) -> np.ndarray:
    """Amplitude levels indexed by bit pattern, Gray-mapped along the axis."""
    n = 1 << n_bits
    levels = np.arange(-(n - 1), n, 2, dtype=float)
    out = np.empty(n)
    out[_gray_codes(n_bits)] = levels
    return out


def build_constellation(kind: str) -> Constellation:
    """Build a QPSK or QAM16 constellation with unit average symbol energy.

    QAM16 uses per-axis levels ``{-3, -1, 1, 3} / sqrt(10)``; the first half
    of each symbol's bits selects the in-phase level, the second half the
    quadrature level, each axis independently Gray coded so lattice
    neighbours differ in exactly one bit.
    """
    kind = kind.lower()
    if kind not in CONSTELLATION_KINDS:
        raise ValueError(f"unsupported constellation kind: {kind!r}")
    if kind == "qpsk":
        bits_per_axis = 1
        scale = np.sqrt(2.0)
    else:
        bits_per_axis = 2
        scale = np.sqrt(10.0)
    axis = _gray_pam(bits_per_axis) / scale
    n_axis = axis.size
    bps = 2 * bits_per_axis
    idx = np.arange(n_axis * n_axis)
    i_idx = idx >> bits_per_axis
    q_idx = idx & (n_axis - 1)
    points = axis[i_idx] + 1j * axis[q_idx]
    bit_patterns = (
        (idx[:, None] >> np.arange(bps - 1, -1, -1)) & 1
    ).astype(np.uint8)
    levels = np.stack((axis, axis))
    pairs = np.zeros((2 * n_axis, idx.size))
    pairs[i_idx, idx] = pairs[n_axis + q_idx, idx] = 1.0
    levels.flags.writeable = pairs.flags.writeable = False
    return Constellation(
        points=points, bits_per_symbol=bps, bit_patterns=bit_patterns, levels=levels, pairs=pairs
    )


@dataclass(frozen=True)
class ChannelConfig:
    """Dimensions and statistics of the synthetic uplink channel."""

    n_rx: int
    n_users: int
    n_interferers: int = 0
    rx_correlation: float = 0.0
    interferer_power_ratio: float = 1.0

    def __post_init__(self):
        if self.n_users < 1 or self.n_rx < self.n_users:
            raise ValueError("need n_rx >= n_users >= 1")
        if self.n_interferers < 0:
            raise ValueError("n_interferers must be >= 0")
        if not 0.0 <= self.rx_correlation < 1.0:
            raise ValueError("rx_correlation must be in [0, 1)")
        if not 0.0 < self.interferer_power_ratio < np.inf:
            raise ValueError("interferer_power_ratio must be finite and > 0")


@dataclass(frozen=True)
class ChannelRealization:
    """One channel draw: user matrix ``h``, interferer matrix ``g``, noise power.

    ``sigma_n2 == 0`` is the noiseless limit used by exactness tests.
    """

    h: np.ndarray
    g: np.ndarray
    sigma_n2: float


@dataclass(frozen=True)
class ChannelEstimate:
    """Least-squares user channel estimate with its mean residual power."""

    h_hat: np.ndarray
    error_var: float


@lru_cache(maxsize=16)
def rx_correlation_root(n_rx: int, rho: float) -> np.ndarray:
    """Lower Cholesky factor of the exponential antenna correlation matrix.

    Every trial of a scenario asks for the same factor, so it is computed
    once per ``(n_rx, rho)`` and returned read-only.
    """
    if rho == 0.0:
        root = np.eye(n_rx)
    else:
        c = rho ** np.abs(np.subtract.outer(np.arange(n_rx), np.arange(n_rx)))
        root = np.linalg.cholesky(c)
    root.flags.writeable = False
    return root


def complex_randn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian draws."""
    out = np.empty(shape, dtype=complex)
    # the same two draws as ``(re + 1j * im) / sqrt(2)``, bit for bit (``1j * im``
    # only adds signed zeros), without its complex temporaries
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out /= np.sqrt(2.0)
    return out


def generate_channel(
    cfg: ChannelConfig, rng: np.random.Generator, sigma_n2: float
) -> ChannelRealization:
    """Draw one correlated channel realization.

    The user matrix is drawn first, then the interferer matrix, so a given
    generator state maps to exactly one realization.
    """
    if not 0.0 <= sigma_n2 < np.inf:
        raise ValueError("sigma_n2 must be finite and >= 0")
    root = rx_correlation_root(cfg.n_rx, cfg.rx_correlation)
    h = root @ complex_randn(rng, cfg.n_rx, cfg.n_users)
    g = np.zeros((cfg.n_rx, cfg.n_interferers), dtype=complex)
    if cfg.n_interferers:
        g = np.sqrt(cfg.interferer_power_ratio) * (
            root @ complex_randn(rng, cfg.n_rx, cfg.n_interferers)
        )
    return ChannelRealization(h=h, g=g, sigma_n2=float(sigma_n2))


def apply_channel(
    real: ChannelRealization,
    x: np.ndarray,
    s_interf: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received block ``x h^T + s g^T + n`` with fresh noise from ``rng``.

    ``x`` is a ``(B, n_users)`` block of user symbols (one vector is
    ``x[None]``) and ``s_interf`` the ``(B, n_interferers)`` block of
    interferer symbols; the result is ``(B, n_rx)``. The noise draw is
    consumed even at ``sigma_n2 == 0`` so generator consumption does not
    depend on the noise power.
    """
    x = np.asarray(x, dtype=complex)
    s_interf = np.asarray(s_interf, dtype=complex)
    n_rx, n_users = real.h.shape
    n_interf = real.g.shape[1]
    if x.ndim != 2 or x.shape[1] != n_users:
        raise DimensionMismatchError(f"x must be a (B, {n_users}) block, got shape {x.shape}")
    if s_interf.shape != (x.shape[0], n_interf):
        raise DimensionMismatchError(
            f"s_interf has shape {s_interf.shape}, channel has {n_interf} interferers"
        )
    y = x @ real.h.T
    if n_interf:
        y = y + s_interf @ real.g.T
    noise = complex_randn(rng, x.shape[0], n_rx)
    return y + np.sqrt(real.sigma_n2) * noise


def estimate_channel(pilot_users, pilot_symbols, y_pilots, n_users: int) -> ChannelEstimate:
    """Least-squares channel estimate from per-user orthogonal (time-division) pilots.

    ``pilot_users[t]`` names the single user of ``range(n_users)`` that
    transmits the known symbol ``pilot_symbols[t]`` in slot ``t``, and
    ``y_pilots[:, t]`` is the received vector. Each user's column is the
    least-squares fit over its own slots; ``error_var`` is the mean
    per-antenna residual power over all pilot slots.
    """
    pilot_users = np.asarray(pilot_users)
    pilot_symbols = np.asarray(pilot_symbols, dtype=complex)
    y_pilots = as_complex_matrix(y_pilots, "y_pilots")
    if y_pilots.shape[1] != pilot_users.size or pilot_symbols.shape != pilot_users.shape:
        raise DimensionMismatchError("need one pilot user, symbol and y_pilots column per slot")
    h_hat = np.zeros((y_pilots.shape[0], n_users), dtype=complex)
    for u in range(n_users):
        slots = np.flatnonzero(pilot_users == u)
        if slots.size == 0:
            raise InsufficientPilotsError(f"user {u} has no pilot observations")
        s = pilot_symbols[slots]
        h_hat[:, u] = (y_pilots[:, slots] @ s.conj()) / np.sum(np.abs(s) ** 2)
    resid = y_pilots - h_hat[:, pilot_users] * pilot_symbols
    error_var = float(np.mean(np.abs(resid) ** 2))
    return ChannelEstimate(h_hat=h_hat, error_var=error_var)


def estimate_covariance(residuals, floor: float = 0.0) -> np.ndarray:
    """Sample interference+noise covariance with diagonal loading.

    ``residuals`` holds reference-signal residuals ``y - h_hat * x``, one
    per row, ``(n_samples, n_rx)``; a 1-D input raises. Returns the
    Hermitian ``(n_rx, n_rx)`` estimate with ``COV_LOADING_REL * trace /
    n_rx``, or ``floor`` if that is larger, added to its diagonal after
    averaging. That keeps it positive definite even with fewer samples than
    antennas, and a ``floor > 0`` even when every residual is 0.
    """
    res = np.asarray(residuals, dtype=complex)
    if res.ndim != 2:
        raise DimensionMismatchError(f"residuals must be (n_samples, n_rx), got ndim={res.ndim}")
    if res.shape[0] == 0:
        raise EmptySampleSetError("no residual samples")
    t, n_rx = res.shape
    r_uu = (res.T @ res.conj()) / t
    r_uu = 0.5 * (r_uu + r_uu.conj().T)
    loading = max(COV_LOADING_REL * float(np.real(np.trace(r_uu))) / n_rx, floor)
    r_uu = r_uu + loading * np.eye(n_rx)
    try:
        cholesky(r_uu)
    except NotPositiveDefiniteError:
        raise NotPositiveDefiniteError(
            "covariance not PD after loading; increase the sample count"
        ) from None
    return r_uu
