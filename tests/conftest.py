import io
import os
from pathlib import Path

import numpy as np
import pytest

from mudet import bench
from mudet.airlink import build_constellation

# pyproject's pytest `pythonpath` puts src/ on this interpreter's path only;
# a test that starts a fresh interpreter finds the package through this
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def qpsk():
    return build_constellation("qpsk")


@pytest.fixture(scope="session")
def qam16():
    return build_constellation("qam16")


def csv_bytes(records) -> bytes:
    """The exact bytes ``bench.write_csv`` writes for ``records``."""
    buf = io.StringIO()
    bench.write_csv(records, buf)
    return buf.getvalue().encode("utf-8")


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def every_vector(cons, m):
    """Every symbol vector of ``m`` users as constellation indices,
    ``(size**m, m)`` in lexicographic order."""
    grids = np.meshgrid(*[np.arange(cons.size)] * m, indexing="ij")
    return np.stack(grids, -1).reshape(-1, m)


def exhaustive_search(h, y, cons):
    """``(hard, metric)`` of maximum likelihood by enumeration, for every
    row of ``y (B, n)``: the symbol vector minimizing ``||y - h x||^2``
    (the lexicographically smallest of exact ties) and that minimum."""
    every = every_vector(cons, h.shape[1])
    metrics = np.sum(np.abs(y[:, None, :] - cons.points[every] @ h.T) ** 2, axis=-1)
    best = metrics.argmin(axis=1)
    return every[best], metrics[np.arange(y.shape[0]), best]
