"""Named deterministic random substreams derived from one integer seed.

Every source of randomness in the package (parameter init, batch shuffling,
dropout masks, the synthetic generator, fold assignment, config sampling)
draws from its own named stream so components can be perturbed independently
while the whole pipeline stays reproducible from a single seed.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError


def _key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def check_seed(seed: int) -> int:
    """seed as an int; ConfigError if it is negative."""
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


def seed_sequence(seed: int, *names: str) -> np.random.SeedSequence:
    """SeedSequence for the stream addressed by (seed, *names); seed must be non-negative."""
    return np.random.SeedSequence(entropy=check_seed(seed),
                                  spawn_key=tuple(_key(n) for n in names))


def generator(seed: int, *names: str) -> np.random.Generator:
    """Independent PCG64 stream; the same (seed, names) always gives the same stream."""
    return np.random.default_rng(seed_sequence(seed, *names))
