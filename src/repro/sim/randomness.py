"""Deterministic named random streams.

Experiments need independent random decisions (arrival times, file
popularity, client locality, replica placement, ECMP hashing) that stay
stable when one concern changes.  :class:`RandomStreams` derives an
independent ``random.Random`` per name from a single root seed, so adding a
draw to one stream never perturbs another.

This module is the **only** place the reproduction is allowed to construct
raw generators (simlint rule DET002): every other module receives an
injected stream, or derives an isolated generator through
:func:`seeded_rng`.  Generators are :class:`CountingRandom` instances — a
drop-in ``random.Random`` producing bit-identical sequences — whose draw
counter lets the SimSanitizer verify stream isolation at runtime.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Tuple

from repro.sim import instrument

#: Canonical stream name for fault injection.  Fault plans draw all of
#: their randomness (target choice, event spacing) from this stream and
#: nothing else, so enabling faults never perturbs the arrival, placement,
#: popularity, locality or ECMP streams — the determinism guarantee of
#: DESIGN §6 extends to chaos experiments.
FAULTS_STREAM = "faults"

#: The C implementations :class:`CountingRandom` counts, bound once so a
#: draw pays no ``super()`` lookup.
_RANDOM = random.Random.random
_GETRANDBITS = random.Random.getrandbits


class CountingRandom(random.Random):
    """``random.Random`` that counts its draws.

    Overriding both ``random()`` and ``getrandbits()`` keeps CPython's
    ``_randbelow`` on the default getrandbits path, so sequences are
    bit-identical to a plain ``random.Random`` with the same seed.  The
    ``draws`` counter is the accounting the SimSanitizer uses to prove a
    stream's state only ever changes through its own draws.
    """

    def __init__(self, seed: int) -> None:
        self.draws = 0
        super().__init__(seed)

    def random(self) -> float:
        self.draws += 1
        return _RANDOM(self)

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return _GETRANDBITS(self, k)


def seeded_rng(seed: int) -> CountingRandom:
    """The blessed constructor for an isolated, explicitly seeded RNG.

    Components that cannot take a :class:`RandomStreams` stream (e.g. an
    RPC fabric built before the streams exist) derive their generator
    here so DET002 can keep ``random.Random(...)`` construction banned
    everywhere else.  Same seed, same sequence as ``random.Random(seed)``.
    """
    return CountingRandom(seed)


class RandomStreams:
    """A family of named, independently seeded random generators.

    Parameters
    ----------
    seed:
        Root seed.  Two :class:`RandomStreams` with the same root seed
        produce identical streams for identical names.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: Dict[str, CountingRandom] = {}
        instrument.notify_component("streams", self)

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream for ``name``."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        child_seed = int.from_bytes(digest[:8], "big")
        stream = CountingRandom(child_seed)
        self._streams[name] = stream
        return stream

    def faults(self) -> random.Random:
        """The dedicated fault-injection stream (see :data:`FAULTS_STREAM`)."""
        return self.stream(FAULTS_STREAM)

    def stream_snapshot(self) -> List[Tuple[str, random.Random, int]]:
        """(name, generator, draw count) for every materialized stream.

        Consumed by the SimSanitizer's stream-isolation check; sorted so
        the sweep itself is deterministic.
        """
        return [
            (name, rng, rng.draws) for name, rng in sorted(self._streams.items())
        ]
