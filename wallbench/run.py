"""Wall-clock benchmark of the repro program: one command, named workloads.

    python3 wallbench/run.py --workload large-batched --seed 7 \
        --seconds 30 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a
fresh single-threaded process (``worker.py``) that imports the program,
builds the workload's graphs and runs its cells; passes repeat until
``--seconds`` is used up (at least three, or two untraced+traced pairs
with ``--trace 1``).  The first pass checks every
answer against the reference oracles; every pass must then reproduce
the first pass's answers and simulated counters, and at the default
seed the simulated time and counters of every cell must match the
digests committed in ``digests.json``.

``--trace 0`` prints the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced and traced passes -- the traced ones
time calls into each layer (``spans.py``) -- and prints the per-layer
metrics (medians over traced passes) plus the tracing overhead.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` cells, and ``metrics``.

``--record-digests`` runs one checked pass at the default seed and
rewrites the workload's entry in ``digests.json``; use it only when a
change to the simulated clock is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

DIGESTS = os.path.join(HERE, "digests.json")

#: fewest untraced passes a ``--trace 0`` run makes, whatever
#: ``--seconds`` says
MIN_PASSES = 3

#: fewest untraced+traced pass pairs a ``--trace 1`` run makes
MIN_PAIRS = 2

#: no pass starts after this many seconds, so a run ends well within 180
LATEST_START_S = 120.0

#: a worker still running this many seconds into the run is killed
DEADLINE_S = 170.0

#: the end-to-end metrics and their units (``--trace 0``)
END_TO_END = {"wall_s": "s", "setup_s": "s", "sim_events_per_s": "1/s",
              "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def fingerprint() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


class Worker:
    """Starts passes as fresh processes and collects their summaries."""

    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + DEADLINE_S
        self.out = os.path.join(root, ".wallbench", workload)
        src = os.path.join(root, "src")
        self.env = dict(os.environ, OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                        PYTHONPATH=os.pathsep.join(
                            [src] + [p for p in [os.environ.get(
                                "PYTHONPATH")] if p]))

    def run(self, check: bool, trace: bool) -> dict | None:
        """One pass; ``None`` when the worker failed."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--check", str(int(check)), "--trace", str(int(trace)),
               "--out", self.out]
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=max(self.deadline - time.perf_counter(), 1))
        except subprocess.TimeoutExpired:
            print(f"worker killed at the {DEADLINE_S:.0f}s deadline",
                  file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        return json.loads(lines[-1])


def load_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


def judge(passes: list, n_cells: int, committed: dict | None) -> tuple:
    """Count attempted and failed cells over all passes.

    A cell fails when its pass crashed, it reported a problem (oracle,
    reconciliation, exception), its answer or simulated counters differ
    from the first pass's, or -- when ``committed`` digests are given --
    its simulated counters differ from the committed ones.
    """
    attempted = failed = 0
    first = next((p for p in passes if p is not None), None)
    reference = {c["id"]: c for c in first["cells"]} if first else {}
    problems = []
    for p in passes:
        attempted += n_cells
        if p is None:
            failed += n_cells
            continue
        for c in p["cells"]:
            why = list(c["problems"])
            ref = reference.get(c["id"], {})
            if (c["sim_digest"], c["result_digest"]) != (
                    ref.get("sim_digest"), ref.get("result_digest")):
                why.append("differs from the first pass")
            if committed is not None and \
                    c["sim_digest"] != committed.get(c["id"]):
                why.append("simulated time/counters differ from the "
                           "committed digest")
            if why:
                failed += 1
                problems.append(f"{c['id']}: {'; '.join(why)}")
    return attempted, failed, problems


def end_to_end(p: dict) -> dict:
    return {"wall_s": p["wall_s"], "setup_s": p["setup_s"],
            "sim_events_per_s": p["events"] / p["kernel_s"],
            "peak_rss_mb": p["peak_rss_mb"]}


def median_of(rows: list, key: str) -> float:
    return statistics.median(r[key] for r in rows)


def _progress(n: int, kind: str, p: dict | None) -> None:
    if p is not None:
        print(f"pass {n} {kind}: wall {p['wall_s']:.3f}s "
              f"setup {p['setup_s']:.3f}s kernel {p['kernel_s']:.3f}s "
              f"rss {p['peak_rss_mb']:.1f}MB", file=sys.stderr)


def measure(worker: Worker, seconds: float, trace: bool) -> tuple:
    """Run passes for ``seconds`` (at least :data:`MIN_PASSES`, or
    :data:`MIN_PAIRS` with ``trace``); returns ``(untraced, traced)``
    pass lists, ``None`` marking a pass whose worker failed.  The first
    pass that completes is the one whose answers meet the oracles."""
    least = MIN_PAIRS if trace else MIN_PASSES
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        checked = any(p is not None for p in untraced)
        untraced.append(worker.run(check=not checked, trace=False))
        _progress(len(untraced), "untraced", untraced[-1])
        if trace:
            traced.append(worker.run(check=False, trace=True))
            _progress(len(traced), "traced", traced[-1])
        end = time.perf_counter()
        projected = end - t0 + (end - start)
        if projected > LATEST_START_S or (
                len(untraced) >= least and projected > seconds):
            break
    return untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Wall-clock benchmark of the repro program.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a repro checkout (src/repro "
              "not found)", file=sys.stderr)
        return 2
    worker = Worker(root, args.workload, args.seed)
    n_cells = len(WORKLOADS[args.workload].cells)

    if args.record_digests:
        p = worker.run(check=True, trace=False)
        if p is None or any(c["problems"] for c in p["cells"]):
            print("error: a cell failed; digests not recorded",
                  file=sys.stderr)
            return 1
        doc = load_digests()
        doc[args.workload] = {c["id"]: c["sim_digest"] for c in p["cells"]}
        with open(DIGESTS, "w") as fh:
            json.dump(dict(sorted(doc.items())), fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        print(f"recorded {n_cells} digests for {args.workload}")
        return 0

    untraced, traced = measure(worker, args.seconds, bool(args.trace))
    committed = None
    if args.seed == DEFAULT_SEED:
        committed = load_digests().get(args.workload, {})
    attempted, failed, problems = judge(untraced + traced, n_cells,
                                        committed)
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    ok_untraced = [p for p in untraced if p is not None]
    ok_traced = [p for p in traced if p is not None]
    if not ok_untraced or (args.trace and not ok_traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    if args.trace:
        layers = [p["layers"] for p in ok_traced]
        values = {k: median_of(layers, k) for k in layers[0]}
        values["bench.trace_overhead_s"] = (
            median_of(ok_traced, "wall_s") - median_of(ok_untraced, "wall_s"))
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in values.items()}
    else:
        rows = [end_to_end(p) for p in ok_untraced]
        metrics = {k: {"value": median_of(rows, k), "unit": unit}
                   for k, unit in END_TO_END.items()}

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace,
              "passes": [end_to_end(p) for p in ok_untraced],
              "traced_passes": len(ok_traced),
              "fingerprint": fingerprint(), "metrics": metrics,
              "attempted": attempted, "failed": failed}
    os.makedirs(worker.out, exist_ok=True)
    with open(os.path.join(root, ".wallbench", "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"wallbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ok_untraced)} untraced + {len(ok_traced)} traced passes, "
          f"{attempted} cells, {failed} failed")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    print("fingerprint: " + json.dumps(record["fingerprint"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
