"""Multi-user MIMO uplink detection and link-level simulation.

Submodules
----------
numkit
    Sorted complex QR, Cholesky, whitening, Hermitian solves.
airlink
    Constellations, correlated channel with interferers, pilot channel
    estimation, interference+noise covariance estimation.
detectors
    Whitening by each detector's noise model, linear MMSE (white-noise and
    IRC), sorted-QR OSIC, K-best and sorting-reduced K-best tree searches.
fec
    Seeded (288, 144) regular LDPC code with normalized min-sum decoding.
bench
    Scenario configs, the deterministic Monte-Carlo BER engine, and CSV /
    plot-data output.
"""

from . import airlink, bench, detectors, errors, fec, numkit

__version__ = "0.1.0"

__all__ = ["airlink", "bench", "detectors", "errors", "fec", "numkit", "__version__"]
