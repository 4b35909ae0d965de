"""Cross-check observed conflicts against the PRAM k-relaxation bounds.

The detector's per-epoch statistics (addresses plain-written / read /
atomically touched by >= 2 threads) are the measured counterparts of
the ``read_conflicts`` / ``write_conflicts`` terms the Section-4
analyses predict.  Those analyses are Θ-bounds, so the check is
directional, not exact:

* **pull** variants must show **zero** plain-write conflicts (and an
  empty race list) -- this is the hard half, the paper's ownership
  discipline made operational.
* **push** variants must keep their observed write-side conflicts
  (plain + atomic overlap) within ``slack ×`` the predicted
  ``write_conflicts`` bound, and likewise for reads.  Instance
  parameters the bounds need (iteration counts L, diameter D, Δ-epoch
  counts) are proxied by the run's own observed iteration counts, so
  the comparison is per-instance rather than worst-case.

A small additive allowance absorbs overlap the bounds do not model:
offset-array reads at partition block boundaries, frontier-array scans,
and similar O(P)-per-epoch shared-structure touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.race import RaceReport
from repro.kernels import select
from repro.machine.counters import PerfCounters
from repro.pram import costs
from repro.pram.costs import AlgorithmCost
from repro.pram.models import PRAM


@dataclass(frozen=True)
class CrossCheckResult:
    """Verdict of one (algorithm, direction) run against its bound."""

    algorithm: str
    direction: str
    ok: bool
    observed_write: int      #: plain-write + atomic overlapped addresses
    observed_read: int
    predicted_write: float   #: Θ-bound evaluated at the instance
    predicted_read: float
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        return (f"[{mark}] {self.algorithm}/{self.direction}: "
                f"W {self.observed_write} <= ~{self.predicted_write:.0f}, "
                f"R {self.observed_read} <= ~{self.predicted_read:.0f}"
                + (f" -- {self.detail}" if self.detail else ""))


def predicted_cost(algorithm: str, direction: str, *, n: int, m: int,
                   d_hat: int, P: int, iterations: int = 1,
                   inner_iterations: int = 1, sources: int | None = None,
                   model: PRAM = PRAM.CRCW_CB) -> AlgorithmCost:
    """Evaluate the Section-4 bound with observed instance parameters.

    ``iterations`` proxies the analysis's L / D / (L/Δ) round counts
    (the run's own superstep count); ``inner_iterations`` is Δ-
    Stepping's total inner-loop count, ``sources`` BC's source count.
    """
    bounded = [s for s in select(algorithm, runtime="sm") if s.cost]
    if not bounded:
        raise ValueError(
            f"no PRAM bound registered for algorithm {algorithm!r}")
    name, rounds = bounded[0].cost
    it = max(1, iterations)
    return getattr(costs, name)(direction, model, n, m, d_hat, P,
                                **rounds(it, inner_iterations, sources))


def crosscheck(algorithm: str, direction: str, report: RaceReport, *,
               n: int, m: int, d_hat: int, P: int, iterations: int = 1,
               inner_iterations: int = 1, sources: int | None = None,
               slack: float = 4.0) -> CrossCheckResult:
    """Compare one run's :class:`RaceReport` to its PRAM bound."""
    cost = predicted_cost(algorithm, direction, n=n, m=m, d_hat=d_hat, P=P,
                          iterations=iterations,
                          inner_iterations=inner_iterations, sources=sources)
    observed_w = report.write_conflicts + report.atomic_conflicts
    observed_r = report.read_conflicts
    # shared-structure touches the Θ-bounds ignore: offsets straddling
    # block boundaries, frontier scans -- O(P) addresses per epoch
    allowance = 8 * P * max(1, report.epochs)

    problems = []
    if not report.clean:
        problems.append(f"{len(report.races)} race(s) recorded")
    if direction == "pull":
        if report.write_conflicts:
            problems.append(
                f"pull variant shows {report.write_conflicts} plain-write "
                f"conflict(s); ownership discipline requires zero")
    else:
        bound_w = slack * cost.write_conflicts + allowance
        if observed_w > bound_w:
            problems.append(
                f"write-side conflicts {observed_w} exceed "
                f"{slack}x predicted {cost.write_conflicts:.0f} + {allowance}")
    # push relaxations pre-read the remote addresses they then update
    # atomically; Section 4 books those accesses under the write-
    # conflict term, so the read bound inherits it for push
    pred_r = cost.read_conflicts + (cost.write_conflicts
                                    if direction != "pull" else 0.0)
    bound_r = slack * pred_r + allowance
    if observed_r > bound_r:
        problems.append(
            f"read conflicts {observed_r} exceed "
            f"{slack}x predicted {cost.read_conflicts:.0f} + {allowance}")

    return CrossCheckResult(
        algorithm=algorithm, direction=direction, ok=not problems,
        observed_write=observed_w, observed_read=observed_r,
        predicted_write=cost.write_conflicts, predicted_read=cost.read_conflicts,
        detail="; ".join(problems))


@dataclass(frozen=True)
class DMCommCheckResult:
    """Verdict of one DM run's communication volume against its bound.

    The Section 6.3 kernels communicate only across partition cuts:
    every remote get/put/accumulate and every point-to-point message is
    chargeable to a directed cross-partition edge, examined at most
    once per *round* (an iteration, a BFS level, a Δ-stepping inner
    iteration), plus O(P²) per-superstep bookkeeping traffic (request
    skeletons, frontier bitmap fragments).  The check is directional
    with a ``slack`` factor, like :func:`crosscheck`.
    """

    algorithm: str
    variant: str
    ok: bool
    observed_remote: int      #: gets + puts + float/int accumulates
    observed_messages: int
    bound_remote: float
    bound_messages: float
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        return (f"[{mark}] {self.algorithm}/{self.variant}: "
                f"rma {self.observed_remote} <= ~{self.bound_remote:.0f}, "
                f"msg {self.observed_messages} <= ~{self.bound_messages:.0f}"
                + (f" -- {self.detail}" if self.detail else ""))


def dm_crosscheck(algorithm: str, variant: str, counters: PerfCounters, *,
                  m_cross: int, P: int, supersteps: int, rounds: int = 1,
                  slack: float = 4.0) -> DMCommCheckResult:
    """Compare one DM run's counters to the cut-based communication bound.

    ``m_cross`` is the number of directed edges whose endpoints live on
    different processes; ``rounds`` is how many times each such edge may
    legitimately be re-examined (PR: iterations; BFS: levels; SSSP-Δ:
    total inner iterations; TC: ``1 + d_hat``, because each witness of a
    cross edge costs one accumulate).  Remote one-sided traffic per
    round is at most two operations per cut edge (the pull variants get
    both rank and degree); messaging is at most one batched message per
    cut edge per round plus the per-rank-pair skeletons.
    """
    observed_remote = int(counters.remote_gets + counters.remote_puts
                          + counters.remote_acc_float
                          + counters.remote_acc_int)
    observed_messages = int(counters.messages)
    base = max(1, int(m_cross)) * max(1, int(rounds))
    skeleton = P * P * max(1, int(supersteps))
    bound_remote = slack * 2 * base + skeleton
    bound_messages = slack * base + skeleton
    steps = max(1, math.ceil(math.log2(max(P, 2))))
    bound_collectives = slack * P * steps * max(1, int(supersteps))

    problems = []
    if observed_remote > bound_remote:
        problems.append(
            f"remote ops {observed_remote} exceed {slack}x 2x{base} cut "
            f"traffic + {skeleton}")
    if observed_messages > bound_messages:
        problems.append(
            f"messages {observed_messages} exceed {slack}x {base} cut "
            f"traffic + {skeleton}")
    if counters.collectives > bound_collectives:
        problems.append(
            f"collective steps {counters.collectives} exceed "
            f"{bound_collectives:.0f}")

    return DMCommCheckResult(
        algorithm=algorithm, variant=variant, ok=not problems,
        observed_remote=observed_remote, observed_messages=observed_messages,
        bound_remote=bound_remote, bound_messages=bound_messages,
        detail="; ".join(problems))
