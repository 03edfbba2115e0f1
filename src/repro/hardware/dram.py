"""DRAM byte accounting (the $M side of the paper's storage costs).

Every resident structure (cached pages, mapping table, MassTree nodes, TC
version store, read cache) registers its footprint here under a tag, so the
cost model can price main-memory rental per component and the MassTree
memory-expansion factor Mx can be *measured* rather than assumed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict


class DramModel:
    """Tracks current resident bytes per tag."""

    def __init__(self) -> None:
        self._by_tag: Dict[str, int] = defaultdict(int)
        self._current = 0

    def allocate(self, nbytes: int, tag: str = "untagged") -> None:
        """Account ``nbytes`` as newly resident under ``tag``."""
        if nbytes < 0:
            raise ValueError(f"cannot allocate negative bytes: {nbytes}")
        self._by_tag[tag] += nbytes
        self._current += nbytes

    def free(self, nbytes: int, tag: str = "untagged") -> None:
        """Account ``nbytes`` under ``tag`` as released."""
        if nbytes < 0:
            raise ValueError(f"cannot free negative bytes: {nbytes}")
        if self._by_tag[tag] < nbytes:
            raise ValueError(
                f"freeing {nbytes} bytes from tag {tag!r} which holds "
                f"{self._by_tag[tag]}"
            )
        self._by_tag[tag] -= nbytes
        self._current -= nbytes

    @property
    def current_bytes(self) -> int:
        return self._current

    def bytes_for(self, tag: str) -> int:
        """Currently resident bytes under ``tag``."""
        return self._by_tag.get(tag, 0)

    def by_tag(self) -> Dict[str, int]:
        """Snapshot of resident bytes per tag (zero-byte tags omitted)."""
        return {tag: n for tag, n in self._by_tag.items() if n > 0}

    def wipe(self) -> None:
        """Model a power loss: every resident byte is gone.

        Components rebuilt by recovery re-allocate their footprints; any
        component sharing this DRAM that is *not* recovered must be
        discarded by the caller.
        """
        self._by_tag.clear()
        self._current = 0
