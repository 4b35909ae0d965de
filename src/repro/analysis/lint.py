"""Static lint pass over push/pull kernels (the "analyze --lint" half).

The instrumented-algorithm convention is that every mutation of shared
state inside a parallel region is *declared* to the memory model, and
that remote writes in push kernels go through the atomic/lock
primitives (Section 3.8).  These properties are checkable from the AST
without running anything; six rules are enforced:

``ANL001`` (unaccounted-store)
    A parallel-region body stores into a shared array (subscript
    assignment or ``np.<ufunc>.at``) but declares **no** store at all to
    the memory model (no ``.write``/``.cas``/``.faa``/``.lock``): the
    mutation is invisible to every counter, cache and conflict model.
``ANL002`` (push-raw-store)
    A push-classified body stores into shared arrays without a single
    atomic/lock declaration on its push path -- the missing-atomics bug
    class the race detector catches dynamically.
``ANL003`` (push-ownership-check)
    A push-classified body calls ``owned_write_check``: the ownership
    assertion is the *pull* half of the contract; push code reaching it
    indicates a confused variant.
``ANL004`` (missing-barrier)
    A function launches a region with ``barrier=False`` but neither it
    nor its callers close the epoch: the function never calls
    ``.barrier()`` itself, and -- mirroring ANL005's one-level helper
    expansion -- no module-local caller of the function issues one
    either (the fused-phases idiom, where a helper runs several
    barrier-less regions and the caller barriers once, is clean).  With
    no barrier at either level the region's accesses bleed into the
    next epoch with no synchronization point.
``ANL006`` (unrecoverable-store)
    A function calls a store verb (``mem.write``/``cas``/``faa``/
    ``lock``) on the instrumented memory but is neither a traced
    region/superstep body nor a helper called from one (one-level
    expansion, as in ANL004/ANL005).  Such stores execute outside every
    region boundary, so the fault layer's region-granular
    checkpoint/rollback cannot undo them (unrecoverable by
    construction) and the tracer's counter reconciliation cannot see
    them -- the bug class PR 4 fixed in BFS's k-filter by moving it
    into a traced sequential region.
``ANL005`` (untyped-channel)
    A superstep body (the distributed-memory analogue of a parallel
    region) calls ``rt.send`` without ``tag=`` or a data-carrying RMA
    verb (``rt.put`` / ``rt.accumulate`` / ``rt.rma_put`` /
    ``rt.rma_accumulate``) without ``window=``.  Untagged messages
    cannot be matched by ``inbox(tag)`` (the epoch checker's early-inbox
    rule keys on tags), and window-less RMA is invisible to the
    write-vs-accumulate epoch discipline and to crash rollback.
    Superstep bodies are resolved through ``rt.superstep(body)`` call
    sites, including one level of local helper calls (buffered-flush
    idiom).

Direction classification is heuristic but matches the repo's idiom: a
body (or an enclosing function) named ``*push*``/``*pull*``, or a body
defined/storing under an ``if direction == PUSH:``-style branch.  The
``else`` of a two-way branch is the opposite direction; the trailing
``else`` of a multi-way chain (``if PULL ... elif PUSH ... else``) is
neither.  Unclassifiable bodies only get the direction-agnostic rules.

Lint has no AST index of its own: it reads the effect pass's module
index (:class:`repro.analysis.effects._ModuleInfo` -- launches with
per-launch scope snapshots, barriers, call edges, function defs) and
shares its body resolution and direction rules, so both passes see the
same region bodies with the same directions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analysis.effects import (
    ATOMIC_DECLS, RUNTIME_NAMES, STORE_DECLS, _body_identity,
    _DirectionVisitor, _Launch, _mem_receiver, _ModuleInfo, _resolve_fn,
    _trailing,
)

RMA_VERBS = {"put", "accumulate", "rma_put", "rma_accumulate"}
SCATTER_UFUNCS = {"add", "subtract", "minimum", "maximum", "multiply",
                  "bitwise_or", "bitwise_and", "logical_or", "logical_and"}


@dataclass(frozen=True)
class LintFinding:
    rule: str
    path: str
    line: int
    func: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.func}] {self.message}"


def _store_target(node: ast.AST) -> str | None:
    """Base array name of a subscript store target, if recognizable."""
    if isinstance(node, ast.Subscript):
        return _trailing(node.value)
    return None


def _scatter_target(call: ast.Call) -> str | None:
    """Array name mutated by an ``np.<ufunc>.at(arr, ...)`` call."""
    f = call.func
    if (isinstance(f, ast.Attribute) and f.attr == "at"
            and isinstance(f.value, ast.Attribute)
            and f.value.attr in SCATTER_UFUNCS and call.args):
        return _trailing(call.args[0])
    return None


class _BodyScan(_DirectionVisitor):
    """Collect stores/declarations/ownership-checks of one region body,
    each tagged with the direction branch it sits under (or None)."""

    def __init__(self) -> None:
        self.stores: list[tuple] = []        # (name, line, ctx)
        self.decls: list[tuple] = []         # (kind, line, ctx)
        self.ownership_checks: list[tuple] = []  # (line, ctx)
        self.local_names: set[str] = set()
        self.params: set[str] = set()

    def scan(self, fn: ast.AST, params: Iterable[str]) -> "_BodyScan":
        self.params.update(params)
        self.local_names.update(params)
        body = fn.body if isinstance(body := getattr(fn, "body", None), list) \
            else [ast.Expr(value=body)]
        for stmt in body:
            self.visit(stmt)
        return self

    # stores ------------------------------------------------------------------
    def _note_targets(self, targets: Iterable[ast.AST], line: int) -> None:
        for tgt in targets:
            if isinstance(tgt, ast.Tuple):
                self._note_targets(tgt.elts, line)
                continue
            name = _store_target(tgt)
            if name is not None:
                # arr[t] / arr[vs] with a bare region-body parameter as
                # the index is thread-private by the runtime's contract
                # (disjoint chunks, per-thread slots)
                sl = tgt.slice if isinstance(tgt, ast.Subscript) else None
                if isinstance(sl, ast.Name) and sl.id in self.params:
                    continue
                self.stores.append((name, line, self._ctx))
            elif isinstance(tgt, ast.Name):
                self.local_names.add(tgt.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._note_targets(node.targets, node.lineno)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_targets([node.target], node.lineno)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._note_targets([node.target], node.lineno)
            self.visit(node.value)

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.target, ast.Name):
            self.local_names.add(node.target.id)
        elif isinstance(node.target, ast.Tuple):
            for e in node.target.elts:
                if isinstance(e, ast.Name):
                    self.local_names.add(e.id)
        self.generic_visit(node)

    # calls -------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        scatter = _scatter_target(node)
        if scatter is not None:
            self.stores.append((scatter, node.lineno, self._ctx))
        f = node.func
        if isinstance(f, ast.Attribute):
            if f.attr in STORE_DECLS:
                self.decls.append((f.attr, node.lineno, self._ctx))
            elif f.attr == "owned_write_check":
                self.ownership_checks.append((node.lineno, self._ctx))
        elif isinstance(f, ast.Name) and f.id in ("rand_op", "seq_op"):
            # stream-op constructors (repro.streams.ops): the verb is
            # the first positional arg; a store verb declares the store
            # just like the equivalent mem.<verb> call would
            if (node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value in STORE_DECLS):
                self.decls.append((node.args[0].value, node.lineno,
                                   self._ctx))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # nested defs: their stores belong to their own region (if any)
        self.local_names.add(node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def shared_stores(self) -> list[tuple]:
        return [(n, ln, ctx) for n, ln, ctx in self.stores
                if n not in self.local_names]


class _DirectStoreScan(ast.NodeVisitor):
    """Store-verb calls on the instrumented memory in one function's
    *direct* body -- nested defs and lambdas are their own (possibly
    region-covered) scopes and are skipped."""

    def __init__(self) -> None:
        self.stores: list[tuple] = []        # (verb, line)

    def scan(self, fn: ast.AST) -> "_DirectStoreScan":
        for stmt in getattr(fn, "body", []) or []:
            self.visit(stmt)
        return self

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in STORE_DECLS
                and _mem_receiver(f)):
            self.stores.append((f.attr, node.lineno))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


class _CommScan(ast.NodeVisitor):
    """Collect a superstep body's comm-verb calls and local helper calls
    (for ANL005's one-level helper expansion)."""

    def __init__(self) -> None:
        self.violations: list[tuple] = []    # (verb, line, missing kw)
        self.helper_calls: list[str] = []    # local functions invoked

    def scan(self, fn: ast.AST) -> "_CommScan":
        body = getattr(fn, "body", None)
        for stmt in (body if isinstance(body, list) else [ast.Expr(body)]):
            self.visit(stmt)
        return self

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if isinstance(f, ast.Name):
            self.helper_calls.append(f.id)
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and f.value.id in RUNTIME_NAMES):
            kwargs = {kw.arg for kw in node.keywords}
            if f.attr == "send" and "tag" not in kwargs:
                self.violations.append(("send", node.lineno, "tag"))
            elif f.attr in RMA_VERBS and "window" not in kwargs:
                self.violations.append((f.attr, node.lineno, "window"))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass                     # nested defs are their own bodies

    visit_AsyncFunctionDef = visit_FunctionDef


def _resolved(info: _ModuleInfo, superstep: bool):
    """(launch, body) per launch of one kind whose body resolves, each
    body once (the first launch that resolves to it)."""
    seen: set[int] = set()
    for la in info.launches:
        if (la.method == "superstep") != superstep:
            continue
        fn = _resolve_fn(la.body_expr, la.scopes)
        if fn is not None and id(fn) not in seen:
            seen.add(id(fn))
            yield la, fn


def _missing_barrier(info: _ModuleInfo, la: _Launch) -> bool:
    """ANL004: ``barrier=False`` with no barrier in the launching function
    AND none guaranteed by its callers (one-level caller expansion: a
    helper running barrier-less regions is clean when every module-local
    caller issues the closing ``.barrier()`` itself)."""
    enc = la.enclosing
    if la.barrier or info.barrier_lines.get(id(enc)):
        return False
    name = getattr(enc, "name", None)
    callers = [g for g in info.funcs
               if g is not enc and name is not None
               and name in info.calls_from.get(id(g), ())]
    return not (callers and all(info.barrier_lines.get(id(g))
                                for g in callers))


def lint_source(source: str, path: str = "<string>") -> list[LintFinding]:
    """Lint one module's source; returns findings (empty = clean)."""
    try:
        info = _ModuleInfo(path, source)
    except SyntaxError as exc:
        return [LintFinding("ANL000", path, exc.lineno or 0, "<module>",
                            f"syntax error: {exc.msg}")]
    findings: list[LintFinding] = []

    for la in info.launches:
        if la.method != "superstep" and _missing_barrier(info, la):
            findings.append(LintFinding(
                "ANL004", path, la.line,
                ".".join(reversed(la.chain)) or "<module>",
                "region launched with barrier=False but neither the "
                "function nor all of its callers call .barrier(): "
                "accesses leak into the next epoch unsynchronized"))

    for la, fn in _resolved(info, superstep=False):
        qual, direction = _body_identity(info, la, fn)
        scan = _BodyScan().scan(fn, [a.arg for a in fn.args.args])
        shared = scan.shared_stores()

        if shared and not scan.decls:
            lines = sorted({ln for _, ln, _ in shared})
            names = sorted({n for n, _, _ in shared})
            findings.append(LintFinding(
                "ANL001", path, lines[0], qual,
                f"stores to shared array(s) {names} bypass the "
                f"instrumented memory (no write/cas/faa/lock declared "
                f"in the region body; store lines {lines})"))

        push_stores = [(n, ln) for n, ln, ctx in shared
                       if (ctx or direction) == "push"]
        # an atomic/lock protects the push path unless it sits in an
        # explicit pull branch
        push_atomics = [d for d in scan.decls
                        if d[0] in ATOMIC_DECLS and d[2] != "pull"]
        if push_stores and not push_atomics:
            names = sorted({n for n, _ in push_stores})
            findings.append(LintFinding(
                "ANL002", path, push_stores[0][1], qual,
                f"push kernel stores to shared array(s) {names} "
                f"without any atomic/lock declaration: remote "
                f"writes must go through cas/faa/lock (Section 3.8)"))

        for ln, ctx in scan.ownership_checks:
            if (ctx or direction) == "push":
                findings.append(LintFinding(
                    "ANL003", path, ln, qual,
                    "push kernel calls owned_write_check: the ownership "
                    "assertion is the pull contract; push variants "
                    "declare remote writes with atomics/locks instead"))

    # ANL005: untyped channels inside superstep bodies
    for la, fn in _resolved(info, superstep=True):
        qual, _ = _body_identity(info, la, fn)
        scan = _CommScan().scan(fn)
        expanded: set[int] = {id(fn)}
        for helper in scan.helper_calls:
            h = _resolve_fn(ast.Name(id=helper), la.scopes)
            if h is not None and id(h) not in expanded:
                expanded.add(id(h))
                scan.scan(h)
        for verb, ln, missing in scan.violations:
            what = ("messages cannot be matched by inbox(tag) and evade "
                    "the epoch checker's channel discipline"
                    if missing == "tag" else
                    "the operation is invisible to the write-vs-accumulate "
                    "epoch rules and to crash rollback")
            findings.append(LintFinding(
                "ANL005", path, ln, qual,
                f"superstep body calls rt.{verb}(...) without "
                f"{missing}=: {what}"))

    # ANL006: store verbs on the instrumented memory outside every
    # region/superstep boundary -- unreachable by region-granular
    # checkpoint/rollback (and invisible to counter reconciliation).
    # Covered = a resolved region/superstep body, or a module-local
    # function called from one (one-level helper expansion).  A resolved
    # body covers every same-named def: the if/else two-branch idiom
    # defines ``body`` once per direction branch in the *same* scope and
    # launches it after both defs, so the launch's scope snapshot only
    # resolves the later def -- every same-named def is a region body
    # somewhere, which is exactly what this rule needs.
    by_name: dict[str, list[int]] = {}
    for fn in info.funcs:
        by_name.setdefault(fn.name, []).append(id(fn))
    covered: set[int] = set()
    for la in info.launches:
        fn = _resolve_fn(la.body_expr, la.scopes)
        covered.update(by_name.get(getattr(fn, "name", None), ()))
    helper_ids: set[int] = set()
    for fn in info.funcs:
        if id(fn) in covered:
            for callee in info.calls_from.get(id(fn), ()):
                helper_ids.update(by_name.get(callee, ()))
    covered |= helper_ids
    for fn in info.funcs:
        if id(fn) in covered:
            continue
        stores = _DirectStoreScan().scan(fn).stores
        if not stores:
            continue
        qual = ".".join(reversed(info.defs_chain[id(fn)]))
        verbs = sorted({v for v, _ in stores})
        findings.append(LintFinding(
            "ANL006", path, stores[0][1], qual,
            f"mem.{'/'.join(verbs)} outside any traced region or "
            f"superstep body: the store has no region boundary for the "
            f"fault layer to checkpoint, so a crash cannot roll it "
            f"back (and counter reconciliation cannot see it)"))

    return findings


def lint_file(path: str | Path) -> list[LintFinding]:
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def lint_paths(paths: Iterable[str | Path]) -> list[LintFinding]:
    """Lint files and/or directories (recursing into ``*.py``)."""
    findings: list[LintFinding] = []
    for raw in paths:
        p = Path(raw)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            findings.extend(lint_file(f))
    return findings
