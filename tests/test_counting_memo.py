"""Differential test of CountingMemory's memoized per-call accounting.

``FrozenPerCall`` keeps the per-call miss accounting that computed the
four analytic increments afresh on every access (``np.rint`` formulas,
accumulator looked up by ``id(counters)``).  Random verb sequences are
issued to both models in lockstep; every counter block must be equal
after every call.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.machine import memory
from repro.machine.cache import CacheHierarchySpec, CacheLevelSpec, TLBSpec
from repro.machine.counters import PerfCounters
from repro.machine.memory import CountingMemory

_PAGE = 4096


def frozen_count(idx, count) -> int:
    if count is not None:
        return int(count)
    if idx is None:
        return 1
    if np.isscalar(idx):
        return 1
    return int(np.asarray(idx).size)


class FrozenPerCall(CountingMemory):
    """The per-call accounting before memoization, kept verbatim."""

    def _touch(self, handle, idx, n, mode, start=None):
        nbytes = handle.nbytes
        if mode == "rand" and idx is not None and not np.isscalar(idx):
            arr = np.asarray(idx)
            if arr.size > 1:
                span = int(arr.max() - arr.min() + 1) * handle.itemsize
                nbytes = min(nbytes, max(span, handle.itemsize))
        acc = self._acc_for(self.counters)
        q = self._QUANTUM
        if mode == "seq":
            lines = n * handle.itemsize / self._line
            ql = int(np.rint(lines * q))
            if nbytes > self.hier.l1.size_bytes:
                acc[0] += ql
            if nbytes > self.hier.l2.size_bytes:
                acc[1] += ql
            if nbytes > self.hier.l3.size_bytes:
                acc[2] += ql
            pages = n * handle.itemsize / _PAGE
            if nbytes > self.hier.tlb.entries * self.hier.tlb.page_bytes:
                acc[3] += int(np.rint(pages * q))
        else:
            acc[0] += int(np.rint(
                n * max(0.0, 1.0 - self.hier.l1.size_bytes / nbytes) * q))
            acc[1] += int(np.rint(
                n * max(0.0, 1.0 - self.hier.l2.size_bytes / nbytes) * q))
            acc[2] += int(np.rint(
                n * max(0.0, 1.0 - self.hier.l3.size_bytes / nbytes) * q))
            tlb_reach = self.hier.tlb.entries * self.hier.tlb.page_bytes
            acc[3] += int(np.rint(
                n * max(0.0, 1.0 - tlb_reach / nbytes) * q))
        self._flush(acc)


def hierarchy() -> CacheHierarchySpec:
    return CacheHierarchySpec(
        l1=CacheLevelSpec(1024, 2), l2=CacheLevelSpec(4096, 4),
        l3=CacheLevelSpec(16384, 4), tlb=TLBSpec(4, 4096))


N_BLOCKS = 3

#: item counts that put a 1-, 4- or 8-byte array exactly at (or one
#: item past) a cache or TLB-reach capacity of ``hierarchy()``
EDGE_SIZES = [k << s for k in (1, 4, 16) for s in (7, 8, 10)]
EDGE_SIZES += [size + 1 for size in EDGE_SIZES]

handle_specs = st.lists(
    st.tuples(st.integers(1, 60_000) | st.sampled_from(EDGE_SIZES),
              st.sampled_from([1, 4, 8])),
    min_size=1, max_size=4)


@st.composite
def index(draw, size):
    kind = draw(st.sampled_from(
        ["none", "int", "npint", "0d", "size1", "array", "list"]))
    item = st.integers(0, size - 1)
    if kind == "none":
        return None
    if kind == "int":
        return draw(item)
    if kind == "npint":
        return np.int64(draw(item))
    if kind == "0d":
        return np.array(draw(item))
    if kind == "size1":
        return np.array([draw(item)])
    items = draw(st.lists(item, min_size=0 if kind == "list" else 2,
                          max_size=40))
    return items if kind == "list" else np.array(items)


@st.composite
def op(draw, n_handles, sizes):
    what = draw(st.sampled_from(
        ["read", "write", "faa", "cas", "lock", "switch", "batch"]))
    if what == "switch":
        return ("switch", draw(st.integers(0, N_BLOCKS - 1)))
    h = draw(st.integers(0, n_handles - 1))
    size = sizes[h]
    mode = draw(st.sampled_from(["seq", "rand", "cached"]))
    if what == "batch":
        counts = draw(st.lists(st.integers(0, 3000), min_size=0, max_size=6))
        idx = seg = None
        if counts and draw(st.booleans()):
            idx = np.array(draw(st.lists(st.integers(0, size - 1),
                                         min_size=1, max_size=30)))
            cuts = sorted(draw(st.lists(st.integers(0, idx.size),
                                        min_size=len(counts) - 1,
                                        max_size=len(counts) - 1)))
            seg = np.array([0, *cuts, idx.size])
        return ("batch", h, mode, np.array(counts, dtype=np.int64), idx, seg)
    idx = draw(index(size))
    count = draw(st.none() | st.integers(0, 5000))
    start = None
    if idx is None and count is not None and draw(st.booleans()):
        start = draw(st.integers(0, size - 1))
    kwargs = {"idx": idx, "count": count, "mode": mode, "start": start}
    if what in ("faa", "cas"):
        kwargs["batched"] = draw(st.booleans())
    if what == "cas":
        kwargs["successes"] = draw(st.none() | st.integers(0, 5))
    return (what, h, kwargs)


@st.composite
def scenario(draw):
    specs = draw(handle_specs)
    sizes = [size for size, _ in specs]
    ops = draw(st.lists(op(len(specs), sizes), min_size=1, max_size=60))
    return specs, ops


def _setup(cls, specs):
    mem = cls(hierarchy())
    handles = [mem.register(f"a{k}", size, itemsize)
               for k, (size, itemsize) in enumerate(specs)]
    blocks = [PerfCounters() for _ in range(N_BLOCKS)]
    mem.set_counters(blocks[0])
    return mem, handles, blocks


@settings(max_examples=200, deadline=None)
@given(scenario())
def test_memoized_accounting_matches_per_call_formula(case):
    specs, ops = case
    new, new_h, new_blocks = _setup(CountingMemory, specs)
    ref, ref_h, ref_blocks = _setup(FrozenPerCall, specs)
    for step in ops:
        if step[0] == "switch":
            new.set_counters(new_blocks[step[1]])
            ref.set_counters(ref_blocks[step[1]])
        elif step[0] == "batch":
            _, h, mode, counts, idx, seg = step
            new.touch_batch(new_h[h], mode=mode, counts=counts, idx=idx,
                            seg=seg)
            ref.touch_batch(ref_h[h], mode=mode, counts=counts, idx=idx,
                            seg=seg)
        else:
            verb, h, kwargs = step
            assert (memory._count(kwargs["idx"], kwargs["count"])
                    == frozen_count(kwargs["idx"], kwargs["count"]))
            getattr(new, verb)(new_h[h], **kwargs)
            getattr(ref, verb)(ref_h[h], **kwargs)
        assert ([b.to_dict() for b in new_blocks]
                == [b.to_dict() for b in ref_blocks]), step


def test_memo_holds_one_entry_per_key_and_skips_zero_increments():
    mem = CountingMemory(hierarchy())
    small = mem.register("small", 16, 8)        # 128 B: fits in L1
    big = mem.register("big", 60_000, 8)        # 480 kB: misses everywhere
    for _ in range(5):
        mem.read(small, idx=3, mode="rand")
        mem.read(big, idx=7, mode="rand")
    assert mem._memo[(small.base, 8, 16, 1, "rand")] == ()
    assert all(mem._memo[(big.base, 8, 60_000, 1, "rand")])
    assert len(mem._memo) == 2
