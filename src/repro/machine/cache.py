"""Trace-driven cache and TLB simulation.

The paper explains most push/pull performance differences through
cache behaviour (Section 6.1): pull variants issue *random* reads of
neighbor state while push variants stream through contiguous adjacency
arrays; Partition-Awareness trades atomics for a second pass over the
data.  To reproduce Table 1 we simulate an inclusive three-level
set-associative data-cache hierarchy plus a data TLB, fed with the
actual addresses that the instrumented algorithms touch.

The simulator is deliberately simple (LRU, inclusive, write-allocate)
but exact with respect to the configured geometry.  Every level keeps
one dict per set whose keys are the resident lines in LRU order; the
TLB is the same structure with a single set.  It accepts *batches* of
addresses as NumPy arrays so the instrumentation layer can report one
vectorized access per adjacency list instead of one Python call per
element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _require_positive(spec, *fields: str) -> None:
    for name in fields:
        value = getattr(spec, name)
        if value < 1:
            raise ValueError(f"{type(spec).__name__}.{name} must be >= 1, "
                             f"got {value}")


@dataclass(frozen=True)
class CacheLevelSpec:
    """Geometry of one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        _require_positive(self, "ways", "line_bytes")

    @property
    def n_sets(self) -> int:
        n = self.size_bytes // (self.ways * self.line_bytes)
        if n <= 0:
            raise ValueError("cache too small for its associativity/line size")
        return n


@dataclass(frozen=True)
class TLBSpec:
    """Geometry of a fully-associative LRU TLB."""

    entries: int = 64
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        _require_positive(self, "entries", "page_bytes")


@dataclass(frozen=True)
class CacheHierarchySpec:
    """Three data-cache levels plus a data TLB.

    The defaults model a Sandy-Bridge-class core (the paper's XC30):
    32 KiB 8-way L1, 256 KiB 8-way L2 and a shared L3 of which each of
    the node's threads effectively sees a slice.
    """

    l1: CacheLevelSpec = CacheLevelSpec(32 * 1024, 8)
    l2: CacheLevelSpec = CacheLevelSpec(256 * 1024, 8)
    l3: CacheLevelSpec = CacheLevelSpec(2 * 1024 * 1024, 16)
    tlb: TLBSpec = TLBSpec(64, 4096)


class _SetAssocLevel:
    """One set-associative LRU cache level over line addresses.

    Each set is a dict whose keys are the resident lines in LRU order:
    the first key is the least recently used, the last the most
    recently used (dicts keep insertion order).
    """

    __slots__ = ("n_sets", "ways", "sets", "misses")

    def __init__(self, spec: CacheLevelSpec) -> None:
        self.n_sets = spec.n_sets
        self.ways = spec.ways
        self.sets: list[dict[int, None]] = [{} for _ in range(self.n_sets)]
        self.misses = 0

    def access(self, line: int) -> bool:
        """Access one line address; return True on hit."""
        s = self.sets[line % self.n_sets]
        if line in s:
            # move to the MRU end
            del s[line]
            s[line] = None
            return True
        self.misses += 1
        if len(s) >= self.ways:
            # evict the LRU line (first key)
            del s[next(iter(s))]
        s[line] = None
        return False


class _TLB(_SetAssocLevel):
    """Fully-associative LRU TLB over page numbers: a one-set level
    with ``entries`` ways whose "lines" are pages."""

    __slots__ = ()

    def __init__(self, spec: TLBSpec) -> None:
        super().__init__(CacheLevelSpec(spec.entries * spec.page_bytes,
                                        spec.entries, spec.page_bytes))


class CacheSim:
    """An inclusive L1/L2/L3 + D-TLB simulator fed with byte addresses.

    Addresses are grouped into cache lines before simulation, so a
    sequential scan over an array costs one simulated access per line,
    matching how a hardware prefetch-friendly stream behaves.
    """

    def __init__(self, spec: CacheHierarchySpec | None = None) -> None:
        self.spec = spec or CacheHierarchySpec()
        self.line_bytes = self.spec.l1.line_bytes
        self.l1 = _SetAssocLevel(self.spec.l1)
        self.l2 = _SetAssocLevel(self.spec.l2)
        self.l3 = _SetAssocLevel(self.spec.l3)
        self.tlb = _TLB(self.spec.tlb)
        self.accesses = 0

    # -- single access ------------------------------------------------------
    def access_line(self, line: int, page: int) -> None:
        self.accesses += 1
        self.tlb.access(page)
        if self.l1.access(line):
            return
        if self.l2.access(line):
            return
        self.l3.access(line)

    # -- batched access ------------------------------------------------------
    def access(self, addrs: np.ndarray | int) -> None:
        """Simulate accesses for a batch of byte addresses (in order).

        Consecutive duplicate lines are collapsed (they would hit in L1
        anyway and collapsing keeps the Python loop short for streaming
        scans).
        """
        if np.isscalar(addrs):
            a = int(addrs)
            self.access_line(a // self.line_bytes, a // self.spec.tlb.page_bytes)
            return
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return
        lines = addrs // self.line_bytes
        # collapse runs of identical lines (streaming accesses)
        keep = np.empty(lines.shape, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        lines = lines[keep]
        pages = (addrs[keep]) // self.spec.tlb.page_bytes
        for line, page in zip(lines.tolist(), pages.tolist()):
            self.access_line(line, page)

    # -- results --------------------------------------------------------------
    @property
    def l1_misses(self) -> int:
        return self.l1.misses

    @property
    def l2_misses(self) -> int:
        return self.l2.misses

    @property
    def l3_misses(self) -> int:
        return self.l3.misses

    @property
    def tlb_misses(self) -> int:
        return self.tlb.misses

    def snapshot(self) -> dict:
        return {
            "accesses": self.accesses,
            "l1_misses": self.l1.misses,
            "l2_misses": self.l2.misses,
            "l3_misses": self.l3.misses,
            "tlb_misses": self.tlb.misses,
        }
