"""Reproducible random streams.

Streams are addressed by (seed, stream_id, lane); identical addresses
reproduce identical draws.  Child streams extend the spawn key with a new
coordinate instead of shifting the stream id, so children of distinct
streams can never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scalars import _integer


@dataclass(frozen=True)
class RngStream:
    """The stream (seed, stream_id, lane): the seed, the stream id and each
    lane index are non-negative integers, stored as ints."""

    seed: int
    stream_id: int = 0
    lane: tuple[int, ...] = field(default=())

    def __post_init__(self):
        lane = tuple(_integer(i, "lane index must be a non-negative integer") for i in self.lane)
        self.__dict__.update(
            seed=_integer(self.seed, "seed must be a non-negative integer"),
            stream_id=_integer(self.stream_id, "stream_id must be a non-negative integer"),
            lane=lane,
        )

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, *self.lane)
        )
        return np.random.default_rng(ss)

    def child(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, (*self.lane, index))
