"""Deterministic random-number streams.

Every stochastic component of the reproduction draws from a named stream
derived from a single experiment seed.  Deriving streams by *name* (rather
than by call order) means adding a new consumer never perturbs the draws
seen by existing consumers, which keeps benchmark outputs stable as the
code base evolves.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

import numpy as np

#: Seed used throughout the benchmarks and examples.  Chosen once; any
#: value works, determinism is what matters.
DEFAULT_SEED = 20151231


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 over the root seed and the name so that distinct names
    give statistically independent child seeds.
    """
    payload = f"{root_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def stream(name: str, root_seed: int = DEFAULT_SEED) -> np.random.Generator:
    """Return a fresh :class:`numpy.random.Generator` for stream ``name``."""
    return np.random.default_rng(derive_seed(root_seed, name))


class RngRegistry:
    """A registry of named random streams sharing one root seed.

    The registry hands out one generator per name and caches it, so two
    components asking for the same stream share state (useful when a
    simulation is split across modules but conceptually one process).

    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.get("auction")
    >>> a is rngs.get("auction")
    True
    >>> rngs.get("auction") is rngs.get("browsing")
    False
    """

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for stream ``name``."""
        if name not in self._streams:
            self._streams[name] = stream(name, self.seed)
        return self._streams[name]

    def spawn(self, name: str) -> "RngRegistry":
        """Return a child registry whose root seed is derived from ``name``.

        Lets a subsystem own an isolated namespace of streams.
        """
        return RngRegistry(derive_seed(self.seed, name))

    def reset(self) -> None:
        """Drop all cached streams so draws restart from the beginning."""
        self._streams.clear()


class WeightedDraw:
    """Scalar weighted index draws, bit-identical to ``Generator.choice``.

    ``WeightedDraw(p)(rng)`` returns ``int(rng.choice(len(p), p=p))`` and
    leaves ``rng`` in the same state: numpy builds the CDF as
    ``p.cumsum()`` divided by its last element, draws one
    ``rng.random()`` and takes its right-side ``searchsorted`` position.
    Doing the CDF once, at construction, and bisecting a plain list of
    floats per draw skips the per-call argument checks and array set-up
    that dominate scalar ``choice`` calls in per-auction loops.
    """

    __slots__ = ("_cdf",)

    def __init__(self, p) -> None:
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if not (p >= 0).all():
            raise ValueError("weights must be non-negative")
        cdf = p.cumsum()
        if not (np.isfinite(cdf[-1]) and cdf[-1] > 0):
            raise ValueError("weights must have a finite, positive sum")
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()

    def __call__(self, rng: np.random.Generator) -> int:
        return bisect_right(self._cdf, rng.random())
