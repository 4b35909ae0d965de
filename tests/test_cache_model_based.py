"""Model-based testing of the cache simulator against a reference LRU."""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.machine.cache import (
    CacheHierarchySpec, CacheLevelSpec, CacheSim, TLBSpec, _SetAssocLevel,
)
from repro.machine.memory import CacheSimMemory


class _ReferenceLRU:
    """Dead-simple per-set LRU model to check the array implementation."""

    def __init__(self, n_sets: int, ways: int) -> None:
        self.n_sets = n_sets
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(n_sets)]
        self.misses = 0

    def access(self, line: int) -> bool:
        s = self.sets[line % self.n_sets]
        if line in s:
            s.move_to_end(line)
            return True
        self.misses += 1
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[line] = None
        return False


class CacheAgainstModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        spec = CacheLevelSpec(1024, 2, 64)   # 8 sets x 2 ways
        self.impl = _SetAssocLevel(spec)
        self.model = _ReferenceLRU(spec.n_sets, spec.ways)

    @rule(line=st.integers(0, 255))
    def access(self, line):
        assert self.impl.access(line) == self.model.access(line)
        assert self.impl.misses == self.model.misses


TestCacheAgainstModel = CacheAgainstModel.TestCase


class TestSweeps:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 511), min_size=1, max_size=300),
           st.sampled_from([1, 2, 4]))
    def test_random_traces_match_model(self, trace, ways):
        spec = CacheLevelSpec(64 * ways * 4, ways, 64)  # 4 sets
        impl = _SetAssocLevel(spec)
        model = _ReferenceLRU(spec.n_sets, ways)
        for line in trace:
            assert impl.access(line) == model.access(line)
        assert impl.misses == model.misses

    def test_capacity_scaling_reduces_misses_on_cyclic_trace(self):
        """A cyclic working set that thrashes a small cache fits a big one."""
        trace = list(range(12)) * 20
        misses = {}
        for ways in (1, 2, 16):
            impl = _SetAssocLevel(CacheLevelSpec(ways * 4 * 64, ways, 64))
            for line in trace:
                impl.access(line)
            misses[ways] = impl.misses
        # 16 ways x 4 sets holds all 12 lines: only cold misses remain
        assert misses[16] == 12
        assert misses[1] > misses[16]


# -- the whole hierarchy ------------------------------------------------------

LINE = 64


class _ReferenceHierarchy:
    """The TLB + L1 -> L2 -> L3 lookup chain of one core, built from
    reference LRUs.  ``l3`` may be another core's, as in a shared L3."""

    def __init__(self, spec: CacheHierarchySpec, l3=None) -> None:
        self.page_bytes = spec.tlb.page_bytes
        self.tlb = _ReferenceLRU(1, spec.tlb.entries)
        self.l1 = _ReferenceLRU(spec.l1.n_sets, spec.l1.ways)
        self.l2 = _ReferenceLRU(spec.l2.n_sets, spec.l2.ways)
        self.l3 = l3 or _ReferenceLRU(spec.l3.n_sets, spec.l3.ways)
        self.accesses = 0

    def access(self, addr: int) -> None:
        line = addr // LINE
        self.accesses += 1
        self.tlb.access(addr // self.page_bytes)
        self.l1.access(line) or self.l2.access(line) or self.l3.access(line)

    def snapshot(self) -> dict:
        return {"accesses": self.accesses, "l1_misses": self.l1.misses,
                "l2_misses": self.l2.misses, "l3_misses": self.l3.misses,
                "tlb_misses": self.tlb.misses}


def _level(sets: int, ways: int) -> CacheLevelSpec:
    return CacheLevelSpec(sets * ways * LINE, ways, LINE)


level_specs = st.builds(_level, st.sampled_from([1, 2, 4]), st.integers(1, 4))
hierarchies = st.builds(
    CacheHierarchySpec, l1=level_specs, l2=level_specs, l3=level_specs,
    tlb=st.builds(TLBSpec, st.integers(1, 4), st.sampled_from([128, 512])))
# 24 lines: enough to conflict in every set of every generated geometry,
# few enough that lines get reused while resident
addresses = st.integers(0, 24 * LINE - 1)


def _collapse(addrs: list[int]) -> list[int]:
    """The batch path's rule: drop an address whose line equals the
    previous address's line."""
    return [a for i, a in enumerate(addrs)
            if i == 0 or a // LINE != addrs[i - 1] // LINE]


class TestHierarchyAgainstModel:
    @settings(max_examples=60, deadline=None)
    @given(hierarchies, st.lists(addresses, min_size=50, max_size=200))
    def test_scalar_accesses_match_model(self, spec, trace):
        sim, model = CacheSim(spec), _ReferenceHierarchy(spec)
        for addr in trace:
            sim.access(addr)
            model.access(addr)
        assert sim.snapshot() == model.snapshot()

    @settings(max_examples=60, deadline=None)
    @given(hierarchies,
           st.lists(st.tuples(st.integers(0, 1), addresses), min_size=50,
                    max_size=200))
    def test_shared_l3_interleaved_matches_model(self, spec, trace):
        # CacheSimMemory's own per-thread sims, shared L3 and all
        sims = CacheSimMemory(spec, n_threads=2)._sims
        first = _ReferenceHierarchy(spec)
        models = [first, _ReferenceHierarchy(spec, l3=first.l3)]
        for core, addr in trace:
            sims[core].access(addr)
            models[core].access(addr)
        for sim, model in zip(sims, models):
            assert sim.snapshot() == model.snapshot()

    @settings(max_examples=60, deadline=None)
    @given(hierarchies,
           st.lists(st.lists(st.tuples(addresses, st.integers(1, 3)),
                             min_size=1, max_size=40), max_size=6))
    def test_batch_equals_collapsed_scalars(self, spec, batches):
        batched, scalar = CacheSim(spec), CacheSim(spec)
        model = _ReferenceHierarchy(spec)
        for runs in batches:
            # repeated addresses and same-line neighbours exercise the
            # consecutive-duplicate collapse
            addrs = [a + k * 8 for a, reps in runs for k in range(reps)]
            batched.access(np.asarray(addrs, dtype=np.int64))
            for addr in _collapse(addrs):
                scalar.access(addr)
                model.access(addr)
        assert batched.snapshot() == scalar.snapshot() == model.snapshot()
