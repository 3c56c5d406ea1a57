"""Deterministic random-number plumbing.

Every stochastic quantity in the package is drawn from an ``RngStream``, a
thin wrapper around numpy's counter-based Philox generator seeded through
``SeedSequence(seed, spawn_key=key)``.  Determinism contract:

* identical ``(seed, key)`` -> bit-identical draw sequence, on every
  platform and numpy >= 1.24;
* ``split(*ids)`` derives a child stream whose key is the parent key
  extended by ``ids``; children with distinct keys are statistically
  independent and never overlap (Philox has a 2^128 counter per key).

Experiment code derives one stream per trial as
``RngStream(master_seed).split(trial_index)`` and then splits that into
fixed, documented substreams so that changing one consumer (say, the
noise draw) can never shift the draws seen by another:

====  =========================================
 id    consumer
====  =========================================
 0     train/test split permutation
 1     channel realization H(0)
 2     training-time AWGN
 3     test-time AWGN
 4     digital-baseline hidden weights
 5     online mini-batch index sampling
 6     AR(1) channel innovations
 7     synthetic dataset generation
 8     retired (the row subsample); never reuse
====  =========================================
"""

from __future__ import annotations

import functools

import numpy as np

# Documented substream ids (see table above).
SUB_SPLIT = 0
SUB_CHANNEL = 1
SUB_TRAIN_NOISE = 2
SUB_TEST_NOISE = 3
SUB_DIGITAL = 4
SUB_MINIBATCH = 5
SUB_AR = 6
SUB_SYNTH = 7


class RngStream:
    """A named, splittable, deterministic random stream.

    Parameters
    ----------
    seed : int
        64-bit master seed.
    key : tuple of int, optional
        Hierarchical stream id; leave empty for the root stream.
    """

    def __init__(self, seed: int, key: tuple = ()):
        seed = int(seed)
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.seed = seed
        self.key = tuple(int(k) for k in key)

    @functools.cached_property
    def _gen(self):
        # built on the first draw: root and per-trial streams are only split
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence(self.seed,
                                                    spawn_key=self.key)))

    def split(self, *ids: int) -> "RngStream":
        """Child stream with this stream's key extended by ``ids``."""
        if not ids:
            raise ValueError("split() needs at least one stream id")
        return RngStream(self.seed, self.key + tuple(ids))

    # -- draw helpers (thin passthroughs to the underlying Generator) --

    def normal(self, mean=0.0, std=1.0, size=None):
        return self._gen.normal(mean, std, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def choice(self, n, size, replace=True):
        return self._gen.choice(n, size=size, replace=replace)
