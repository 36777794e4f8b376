"""Per-set replacement policies.

The paper's caches use LRU; the alternatives exist for the ablation
benches (and because a reusable cache substrate should offer them).  Each
policy instance manages exactly one set and is driven by three events:

* ``touch(way)``   - the way was referenced (hit or fill)
* ``fill(way)``    - a new block was installed in the way
* ``victim()``     - choose a way to evict (only called when the set is full)

Invalid ways are handled by the cache set itself (fills prefer invalid
ways), so ``victim`` may assume all ways are valid.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.utils.rng import DeterministicRng


class ReplacementPolicy:
    """Interface for per-set replacement state."""

    def __init__(self, associativity: int) -> None:
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        self.associativity = associativity

    def touch(self, way: int) -> None:
        """Record a reference to ``way``."""
        raise NotImplementedError

    def fill(self, way: int) -> None:
        """Record installation of a new block in ``way``."""
        raise NotImplementedError

    def victim(self) -> int:
        """Return the way to evict."""
        raise NotImplementedError


class LruReplacement(ReplacementPolicy):
    """True least-recently-used order, the paper's default.

    Maintains ways in recency order: index 0 is MRU, the tail is LRU.
    """

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._order: List[int] = list(range(associativity))

    def touch(self, way: int) -> None:
        self._order.remove(way)
        self._order.insert(0, way)

    def fill(self, way: int) -> None:
        self.touch(way)

    def victim(self) -> int:
        return self._order[-1]

    def recency_order(self) -> List[int]:
        """Return ways MRU-first (exposed for tests)."""
        return list(self._order)


class FifoReplacement(ReplacementPolicy):
    """First-in-first-out: eviction order follows fill order."""

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._queue: List[int] = list(range(associativity))

    def touch(self, way: int) -> None:
        # References do not affect FIFO order.
        return None

    def fill(self, way: int) -> None:
        self._queue.remove(way)
        self._queue.append(way)

    def victim(self) -> int:
        return self._queue[0]


class RandomReplacement(ReplacementPolicy):
    """Uniform random victim selection (deterministic stream)."""

    def __init__(self, associativity: int, rng: Optional[DeterministicRng] = None) -> None:
        super().__init__(associativity)
        self._rng = rng if rng is not None else DeterministicRng("random-replacement")

    def touch(self, way: int) -> None:
        return None

    def fill(self, way: int) -> None:
        return None

    def victim(self) -> int:
        return self._rng.randint(0, self.associativity - 1)


class PlruTreeReplacement(ReplacementPolicy):
    """Tree pseudo-LRU, the common hardware approximation of LRU.

    A binary tree of one-bit pointers; each bit points *away* from the
    most recently used side.  Requires power-of-two associativity.
    """

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        if associativity & (associativity - 1):
            raise ValueError("PLRU tree requires power-of-two associativity")
        # Internal nodes of a complete binary tree with `associativity` leaves.
        self._bits: List[int] = [0] * max(associativity - 1, 1)

    def touch(self, way: int) -> None:
        if self.associativity == 1:
            return None
        node = 0
        span = self.associativity
        base = 0
        while span > 1:
            span //= 2
            if way < base + span:
                self._bits[node] = 1  # point right (away from the used left side)
                node = 2 * node + 1
            else:
                self._bits[node] = 0  # point left
                node = 2 * node + 2
                base += span
        return None

    def fill(self, way: int) -> None:
        self.touch(way)

    def victim(self) -> int:
        if self.associativity == 1:
            return 0
        node = 0
        span = self.associativity
        base = 0
        while span > 1:
            span //= 2
            if self._bits[node] == 0:
                node = 2 * node + 1
            else:
                node = 2 * node + 2
                base += span
        return base


_FACTORIES: Dict[str, Callable[[int], ReplacementPolicy]] = {
    "lru": LruReplacement,
    "fifo": FifoReplacement,
    "random": RandomReplacement,
    "plru": PlruTreeReplacement,
}


def make_replacement(name: str, associativity: int) -> ReplacementPolicy:
    """Construct a replacement policy by name (``lru``/``fifo``/``random``/``plru``)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_FACTORIES)}"
        ) from None
    return factory(associativity)
