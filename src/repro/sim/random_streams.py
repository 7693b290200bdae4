"""Named, seeded random streams.

A single master seed fans out to independent ``random.Random`` instances,
one per named purpose ("overlay-ids", "latency-jitter", "workload", ...).
Components that draw randomness never share a stream, so adding draws in one
subsystem cannot perturb another — a prerequisite for reproducible
experiments and meaningful A/B ablations.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """Factory of deterministic, independently seeded RNG streams."""

    def __init__(self, master_seed: int = 0):
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self._master_seed}:{name}".encode("utf-8")
            ).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]
