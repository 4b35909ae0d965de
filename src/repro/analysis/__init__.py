"""Correctness tooling for the push/pull contract (Section 3.8).

Two layers:

* :mod:`repro.analysis.race` -- "repro-tsan", a dynamic race detector
  that wraps any memory model and reports unprotected conflicting
  writes per barrier-delimited epoch.
* :mod:`repro.analysis.lint` -- a static AST pass over the kernels
  flagging stores that bypass the instrumented memory, push stores
  without atomics, push-side ownership checks, and missing barriers.

* :mod:`repro.analysis.dm_race` -- the distributed-memory counterpart:
  an epoch checker for the MPI-3-style one-sided/message discipline of
  :class:`repro.runtime.dm.DMRuntime`.
* :mod:`repro.analysis.effects` -- static effect inference (ANL1xx):
  per-phase effect signatures (arrays read/written, index provenance,
  push/pull direction, atomic necessity verdicts, DM verb footprints)
  over the 17-kernel matrix, with certified direction/ownership/
  atomicity/barrier-elision facts; :mod:`repro.analysis.effect_report`
  renders them and maintains the committed golden ``EFFECTS.json``.

:mod:`repro.analysis.runner` drives the seven paper algorithms under
the detector, :mod:`repro.analysis.dm_runner` drives the four DM
kernels under the epoch checker, and :mod:`repro.analysis.crosscheck`
compares the observed conflict/communication counts against the
Section-4 PRAM bounds.  The CLI surface is ``python -m repro analyze``.
"""

from repro.analysis.crosscheck import (
    CrossCheckResult, DMCommCheckResult, crosscheck, dm_crosscheck,
    predicted_cost,
)
from repro.analysis.dm_race import DMRaceDetector, attach_dm_race_detector
from repro.analysis.dm_runner import DMAnalysisRun, analyze_dm, run_one_dm
from repro.analysis.effect_report import render_json, render_text, write_report
from repro.analysis.effects import (
    EffectFinding, EffectReport, KernelEffects, PhaseSignature,
    analyze_effects, effects_source,
)
from repro.analysis.lint import LintFinding, lint_file, lint_paths, lint_source
from repro.analysis.race import (
    Race, RaceDetectingMemory, RaceError, RaceReport, attach_race_detector,
)
from repro.analysis.runner import ALGORITHMS, AnalysisRun, analyze_algorithms, run_one

__all__ = [
    "ALGORITHMS", "AnalysisRun", "CrossCheckResult", "DMAnalysisRun",
    "DMCommCheckResult", "DMRaceDetector", "EffectFinding", "EffectReport",
    "KernelEffects", "LintFinding", "PhaseSignature", "Race",
    "RaceDetectingMemory", "RaceError", "RaceReport", "analyze_algorithms",
    "analyze_dm", "analyze_effects", "attach_dm_race_detector",
    "attach_race_detector", "crosscheck", "dm_crosscheck",
    "effects_source", "lint_file", "lint_paths", "lint_source",
    "predicted_cost", "render_json", "render_text", "run_one", "run_one_dm",
    "write_report",
]
