"""Stream-emitting (batched) SM kernels.

The batched engine's entry points, one per algorithm of the kernel
table's batched rows (:mod:`repro.kernels`).  Two of them are stream
ports: BFS and SSSP-Δ pull, whose interpreted kernels walk vertices one
at a time, evaluate whole vertex blocks with numpy and report each
phase's memory traffic as :class:`~repro.streams.ops.StreamOp` batches
through :class:`~repro.streams.memory.StreamMemory` instead of one
``MemoryModel`` call per element.  Section 7.1's observation is what
makes this a *substrate* rather than a reformulation: iterating a CSR
row block *is* pulling and iterating a CSC column block *is* pushing,
so pull BFS is a blocked CSR SpMSpV with an early exit
(:func:`masked_first_hit`) and push BFS a blocked CSC one whose
winning CAS claims are :func:`first_claim`.

PageRank, CC and SSSP-Δ push already work on a whole thread block per
call in :mod:`repro.algorithms`, so their batched entry points run the
interpreted kernel: a port would repeat the same event script with no
speed gained.  They stay functions (not aliases) so a caller that
wraps either name by identity sees two distinct kernels.

The differential suite (tests/test_streams_differential.py) certifies
byte-identical counter totals, per-phase trace deltas, and final
states against the interpreted kernels; keep both sides of a stream
port in lockstep when editing either.

The DM kernels already emit their communication as per-superstep verb
batches (``alltoallv``, staged RMA), so the batched engine treats DM
cells as an (exact) passthrough -- see docs/streams.md.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import BFSResult, BFSState
from repro.algorithms.common import (
    PULL, PUSH, GraphArrays, check_direction, gather_edge_positions,
)
from repro.algorithms.connected_components import (
    CCResult, connected_components,
)
from repro.algorithms.pagerank import PageRankResult, pagerank
from repro.algorithms.sssp_delta import _NO_BUCKET, SSSPResult, sssp_delta
from repro.graph.csr import CSRGraph
from repro.la.semiring import MIN_PLUS
from repro.la.spmv import first_claim, masked_first_hit
from repro.runtime.frontier import ThreadLocalFrontiers
from repro.runtime.sm import SMRuntime
from repro.streams.memory import StreamMemory
from repro.streams.ops import concat_ranges, rand_op, seq_op


# -- PageRank ------------------------------------------------------------------

def pagerank_batched(g: CSRGraph, rt: SMRuntime, direction: str = PULL,
                     iterations: int = 20, damping: float = 0.85,
                     tol: float | None = None) -> PageRankResult:
    """Batched PageRank: the interpreted kernel, which already updates a
    whole thread block per call.  ``push-pa`` has no batched row."""
    check_direction(direction, (PUSH, PULL))
    return pagerank(g, rt, direction, iterations=iterations,
                    damping=damping, tol=tol)


# -- BFS -----------------------------------------------------------------------

class BatchedBFSState(BFSState):
    """BFSState whose level explorations emit op streams.

    Push levels are blocked CSC SpMSpV evaluations over the boolean
    semiring (with :func:`first_claim` as the write-once combining
    rule); pull levels are blocked CSR products with
    :func:`masked_first_hit` modelling the early-exit scan.
    """

    def __init__(self, g: CSRGraph, rt: SMRuntime, root: int) -> None:
        super().__init__(g, rt, root)
        self.streams = StreamMemory(rt.mem)

    def _step_push(self) -> np.ndarray:
        g, rt, mem = self.g, self.rt, self.mem
        st = self.streams
        my_f = ThreadLocalFrontiers(rt.P)
        parent, level = self.parent, self.level
        nxt_level = self.cur_level + 1

        def body(t: int, vs: np.ndarray) -> None:
            if len(vs) == 0:
                return
            deg = (g.offsets[vs + 1] - g.offsets[vs]).astype(np.int64)
            pos = gather_edge_positions(g.offsets, vs)
            nbrs = g.adj[pos]
            seg = np.r_[0, np.cumsum(deg)]
            # the first edge-order occurrence of each unvisited target is
            # the CAS that wins when the block's vertices run in turn
            fresh_pos = first_claim(nbrs, parent[nbrs] < 0)
            fresh_w = nbrs[fresh_pos].astype(np.int64)
            fresh_src = np.repeat(vs, deg)[fresh_pos]
            owner = np.searchsorted(seg, fresh_pos, side="right") - 1
            per_v = np.bincount(owner, minlength=len(vs)).astype(np.int64)
            seg_f = np.r_[0, np.cumsum(per_v)]
            st.replay([
                rand_op("read", self.ga.off, idx=vs,
                        seg=np.arange(len(vs) + 1, dtype=np.int64),
                        counts=np.full(len(vs), 2, dtype=np.int64)),
                seq_op("read", self.ga.adj, counts=deg,
                       starts=g.offsets[vs].astype(np.int64)),
                rand_op("read", self.parent_h, idx=nbrs, seg=seg),
                rand_op("cas", self.parent_h, idx=fresh_w, seg=seg_f,
                        batched=True, covers=[(self.level_h, fresh_w)]),
                rand_op("write", self.level_h, idx=fresh_w, seg=seg_f),
            ], interleave=True)
            mem.branch_cond(int(deg.sum()))
            parent[fresh_w] = fresh_src
            level[fresh_w] = nxt_level
            my_f.extend(t, fresh_w)

        rt.parallel_for(self.frontier, body, by_owner=True, barrier=False)
        nxt = np.empty(0, dtype=np.int64)

        def kfilter() -> None:
            nonlocal nxt
            nxt = my_f.merge(mem, handle=self.front_h)
            if len(nxt):
                mem.write(self.front_h, idx=nxt, mode="rand")

        rt.annotate("bfs.kfilter")
        rt.sequential(kfilter, barrier=False)
        rt.barrier()
        return nxt

    def _step_pull(self) -> np.ndarray:
        g, rt, mem = self.gin, self.rt, self.mem
        st = self.streams
        my_f = ThreadLocalFrontiers(rt.P)
        parent, level, in_front = self.parent, self.level, self.in_front
        nxt_level = self.cur_level + 1

        def body(t: int, vs: np.ndarray) -> None:
            unvisited = vs[parent[vs] < 0]
            mem.read(self.parent_h, start=int(vs[0]) if len(vs) else 0,
                     count=len(vs))
            mem.branch_cond(len(vs))
            if len(unvisited) == 0:
                return
            deg = (g.offsets[unvisited + 1]
                   - g.offsets[unvisited]).astype(np.int64)
            pos = gather_edge_positions(g.offsets, unvisited)
            nbrs = g.adj[pos]
            seg = np.r_[0, np.cumsum(deg)]
            hit_rel = masked_first_hit(in_front[nbrs], seg)
            # early exit: only the prefix up to the first hit is scanned
            scanned = np.where(hit_rel >= 0, hit_rel + 1, deg)
            pre = concat_ranges(seg[:-1], scanned)
            hits = hit_rel >= 0
            hit_vs = unvisited[hits]
            hit_w = nbrs[seg[:-1][hits] + hit_rel[hits]].astype(np.int64)
            seg_h = np.r_[0, np.cumsum(hits.astype(np.int64))]
            st.replay([
                rand_op("read", self.ga_in.off, idx=unvisited,
                        seg=np.arange(len(unvisited) + 1, dtype=np.int64),
                        counts=np.full(len(unvisited), 2, dtype=np.int64)),
                seq_op("read", self.ga_in.adj, counts=scanned,
                       starts=g.offsets[unvisited].astype(np.int64)),
                rand_op("read", self.front_h, idx=nbrs[pre],
                        seg=np.r_[0, np.cumsum(scanned)]),
                rand_op("write", self.parent_h, idx=hit_vs, seg=seg_h),
                rand_op("write", self.level_h, idx=hit_vs, seg=seg_h),
            ], interleave=True)
            mem.branch_cond(int(scanned.sum()))
            rt.owned_write_check(hit_vs)
            parent[hit_vs] = hit_w
            level[hit_vs] = nxt_level
            my_f.extend(t, hit_vs)

        rt.for_each_thread(body)
        return my_f.merge(dedup=False)


def bfs_batched(g: CSRGraph, rt: SMRuntime, root: int,
                direction: str = PUSH) -> BFSResult:
    """Single-direction batched BFS from ``root``."""
    check_direction(direction)
    state = BatchedBFSState(g, rt, root)
    while state.frontier_nonempty():
        state.step(direction)
    return state.result(direction)


# -- Δ-Stepping SSSP -----------------------------------------------------------

def sssp_delta_batched(g: CSRGraph, rt: SMRuntime, source: int,
                       delta: float | None = None, direction: str = PUSH,
                       max_epochs: int | None = None) -> SSSPResult:
    """Batched Δ-Stepping.  Push is the interpreted kernel, whose
    relaxations already run per thread block; pull gathers each block's
    bucket-masked in-edges over the tropical (MIN_PLUS) semiring."""
    check_direction(direction)
    if direction == PUSH:
        return sssp_delta(g, rt, source, delta=delta, direction=direction,
                          max_epochs=max_epochs)
    if not (0 <= source < g.n):
        raise ValueError("source out of range")
    mem = rt.mem
    st = StreamMemory(mem)
    ga = GraphArrays(mem, g)
    n = g.n
    weights = g.weights if g.weights is not None else np.ones(len(g.adj))
    if delta is None:
        delta = float(weights.mean()) if len(weights) else 1.0
    if delta <= 0:
        raise ValueError("delta must be positive")

    dist = np.full(n, np.inf)
    bidx = np.full(n, _NO_BUCKET, dtype=np.int64)
    dist[source] = 0.0
    bidx[source] = 0

    dist_h = mem.register("sssp.dist", dist)
    bidx_h = mem.register("sssp.bidx", bidx)
    wgt_h = ga.wgt or mem.register("sssp.unit_weights", weights)

    start_time = rt.time
    start_counters = rt.total_counters()
    epoch_times: list[float] = []
    inner_total = 0

    b = 0
    epochs = 0
    limit = max_epochs if max_epochs is not None else 4 * n + 16
    while epochs < limit:
        pending = bidx[bidx < _NO_BUCKET]
        pending = pending[pending >= b]
        if len(pending) == 0:
            break
        b = int(pending.min())
        epochs += 1
        t0 = rt.time
        inner_total += _epoch_pull_batched(
            g, rt, mem, st, ga, wgt_h, dist, bidx, dist_h, bidx_h, b, delta)
        epoch_times.append(rt.time - t0)
        b += 1

    return SSSPResult(
        direction=direction,
        time=rt.time - start_time,
        counters=rt.total_counters() - start_counters,
        iterations=inner_total,
        dist=dist,
        epochs=epochs,
        epoch_times=epoch_times,
        inner_iterations=inner_total,
    )


def _epoch_pull_batched(g, rt, mem, st, ga, wgt_h, dist, bidx, dist_h,
                        bidx_h, b, delta) -> int:
    sr = MIN_PLUS
    prev_active = np.zeros(g.n, dtype=bool)
    prev_active[bidx == b] = True
    active_h = mem.register("sssp.active", g.n, 1)
    itr = 0
    threshold = b * delta
    while True:
        itr += 1
        newly_active: list[np.ndarray] = []
        first = itr == 1

        def body(t: int, vs: np.ndarray) -> None:
            if len(vs) == 0:
                return
            mem.read(dist_h, start=int(vs[0]), count=len(vs))
            mem.branch_cond(len(vs))
            unsettled = vs[dist[vs] > threshold]
            if len(unsettled) == 0:
                return
            pos = gather_edge_positions(g.offsets, unsettled)
            if len(pos) == 0:
                return
            nbrs = g.adj[pos]
            w = (g.weights if g.weights is not None
                 else np.ones(len(g.adj)))[pos]
            owners = np.repeat(unsettled,
                               g.offsets[unsettled + 1] - g.offsets[unsettled])
            st.replay([
                rand_op("read", ga.off, idx=unsettled,
                        counts=[len(unsettled) + 1]),
                seq_op("read", ga.adj, counts=[len(nbrs)]),
                rand_op("read", bidx_h, idx=nbrs),
            ])
            mem.branch_cond(len(nbrs))
            in_bucket = bidx[nbrs] == b
            if not first:
                st.replay([rand_op("read", active_h, idx=nbrs[in_bucket])])
                in_bucket &= prev_active[nbrs]
            if not in_bucket.any():
                return
            cpos = np.flatnonzero(in_bucket)
            st.replay([
                rand_op("lock", dist_h, idx=nbrs[cpos]),
                seq_op("read", wgt_h, counts=[len(cpos)]),
            ])
            cand = sr.mul(dist[nbrs[cpos]], w[cpos])
            mem.flop(len(cpos))
            own = owners[cpos]
            order = np.argsort(own, kind="stable")
            own_s, cand_s = own[order], cand[order]
            cut = np.flatnonzero(np.diff(own_s)) + 1
            uniq = own_s[np.r_[0, cut]] if len(own_s) else own_s
            mem.branch_cond(len(cpos))
            # per-owned-vertex tropical reduction (local combining)
            best = (sr.add.reduceat(cand_s, np.r_[0, cut])
                    if len(cand_s) else cand_s)
            improved = best < dist[uniq]
            imp = uniq[improved].astype(np.int64)
            if len(imp) == 0:
                return
            rt.owned_write_check(imp)
            bestv = best[improved]
            dist[imp] = bestv
            new_b = (bestv // delta).astype(np.int64)
            bidx[imp] = new_b
            ones = np.arange(len(imp) + 1, dtype=np.int64)
            st.replay([
                rand_op("write", dist_h, idx=imp, seg=ones),
                rand_op("write", bidx_h, idx=imp, seg=ones),
            ], interleave=True)
            back = imp[new_b == b]
            if len(back):
                newly_active.append(back)

        rt.for_each_thread(body)
        if not newly_active:
            break
        prev_active[:] = False
        fresh = np.unique(np.concatenate(newly_active))
        prev_active[fresh] = True
    return itr


# -- Connected components ------------------------------------------------------

def cc_batched(g: CSRGraph, rt: SMRuntime, direction: str = PUSH,
               pointer_jumping: bool = False,
               max_rounds: int | None = None) -> CCResult:
    """Batched label propagation: the interpreted kernel, which already
    propagates a whole thread block's labels per call."""
    return connected_components(g, rt, direction,
                                pointer_jumping=pointer_jumping,
                                max_rounds=max_rounds)
