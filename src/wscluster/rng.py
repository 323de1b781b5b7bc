"""Deterministic random substreams.

Every random choice in the package flows from one integer seed. A substream
is obtained by hashing the seed together with a stage name and optional
indices, and feeding the digest as the key of a counter-based Philox
generator. Two properties follow:

* the same (seed, labels) pair always yields the same stream, on any
  platform and regardless of how many other streams were consumed;
* streams for different labels are independent, so per-entity or
  per-restart work can run in parallel without changing results.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import _integer_in

__all__ = ["stream_key", "substream"]


def stream_key(seed: int, *labels) -> np.ndarray:
    """Hash a seed and a label path into a 2-word Philox key.

    Labels may be strings or integers; they are joined with ``/`` so that
    ("a", 1) and ("a1",) produce different keys. A seed that is not an
    integer raises :class:`~wscluster.errors.ArgumentOutOfRange`.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(str(_integer_in("seed", seed, None)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return np.frombuffer(h.digest(), dtype=np.uint64).copy()


def substream(seed: int, *labels) -> np.random.Generator:
    """Return an independent generator for the given seed and label path."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *labels)))
