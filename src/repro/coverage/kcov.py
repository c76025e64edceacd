"""Line-coverage collection for the simulated hypervisors (kcov analogue).

The paper measures coverage with KCOV on KVM and gcov on Xen, restricted
to the nested-virtualization source files (``nested.c`` etc.). We do the
same thing for the simulated hypervisors, restricted to the
nested-virtualization *Python modules* and counting executable statement
lines the way gcov counts instrumented lines.

Only statements inside function bodies count as instrumented: module and
class bodies run at import time, before any fuzzing, and would dilute
the denominator the way unreachable boilerplate would in C.

Collection is compiled in, like KCOV: the target modules' function
code objects are rewritten in place with a ``__kcov_rec__((file, line))``
marker call before every traceable statement. The marker is a bound
``list.append`` (a C call, no Python frame), so recording one line costs
nanoseconds and ``sys.settrace`` is never installed. While no tracer is
active the markers append into a shared ``deque(maxlen=0)`` null sink,
so instrumented modules are almost free to run untraced.

The marker placement reproduces what a ``sys.settrace`` line tracer
reports over the same code: the same covered *line* set over the
instrumented universe. That tracer survives only as a test reference
(``tests.reference.SettraceTracer``), and
tests/integration/test_tracer_equivalence.py pins the two equal. Edge
sets differ between them: settrace observes per-iteration loop-header
transitions and generator re-entries that statement markers summarise
differently, so AFL bitmaps and campaign trajectories are defined by
the markers alone.
"""

from __future__ import annotations

import ast
import collections
from itertools import islice
from types import FunctionType, ModuleType
from typing import Iterable

Line = tuple[str, int]


#: Memoized per-file analysis results. Source files do not change while
#: the interpreter runs, so re-parsing a target module for every
#: Agent/campaign construction is pure waste (visible in short-campaign
#: benchmarks and in per-worker startup of parallel campaigns).
_EXEC_LINES_CACHE: dict[str, frozenset[Line]] = {}

#: Shared null sink: ``_NULL_SINK.append`` discards its argument in O(1)
#: without retaining memory, which is what ``__kcov_rec__`` points at
#: whenever no tracer is active.
_NULL_SINK: collections.deque = collections.deque(maxlen=0)

#: Files whose modules have been instrumented, mapped to the qualnames
#: of functions that could not be swapped (empty in the normal case).
_INSTRUMENTED: dict[str, tuple[str, ...]] = {}

#: The tracer currently collecting (at most one process-wide).
_ACTIVE_TRACER: "KcovTracer | None" = None


def event_sink() -> "list[Line] | None":
    """The active tracer's event list, or ``None``.

    Consumers that skip instrumented code use this to record the event
    slice a computation emitted and to replay it in place of running it
    again, keeping line and edge coverage identical between the two
    paths. There are two: :func:`repro.perf.memoized_check` replays on
    cache hits, and the harness's vmwrite storm
    (``VmExecutionHarness._write_vmcs_fields``) replays the first
    vmwrite's slice for the writes it makes directly.
    """
    tracer = _ACTIVE_TRACER
    return tracer._events if tracer is not None else None


# --- AST analysis and marker insertion ----------------------------------------


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _is_untraceable(stmt: ast.stmt) -> bool:
    """Statements that compile to no traceable bytecode of their own."""
    if isinstance(stmt, (ast.Global, ast.Nonlocal)):
        return True
    # Constant expression statements (docstrings, bare ``...``) are
    # optimized away by the compiler and never produce a line event.
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


def _marker(filename: str, lineno: int) -> ast.Expr:
    """Build ``__kcov_rec__((filename, lineno))`` attributed to *lineno*.

    The marker carries the line number of the statement it records, so
    a settrace tracer running over instrumented code sees no alien
    lines (the marker bytecode merges into the statement's line).
    """
    node = ast.Expr(value=ast.Call(
        func=ast.Name(id="__kcov_rec__", ctx=ast.Load()),
        args=[ast.Constant(value=(filename, lineno))],
        keywords=[],
    ))
    for sub in ast.walk(node):
        sub.lineno = sub.end_lineno = lineno
        sub.col_offset = sub.end_col_offset = 0
    return node


def _process_tree(tree: ast.Module, filename: str) -> set[int]:
    """Insert markers into every function body; return statement linenos.

    The returned set *is* the instrumented-line universe for the file:
    the walker is the single source of truth shared by
    :func:`executable_lines` and :func:`instrument_module`, so the
    denominator and what the markers can record always agree.
    """
    lines: set[int] = set()

    def entry_lineno(fn) -> int:
        # settrace 'call' events report co_firstlineno, which for a
        # decorated function is the first decorator's line.
        if fn.decorator_list:
            return fn.decorator_list[0].lineno
        return fn.lineno

    def do_container(body: list[ast.stmt]) -> None:
        # Module or class body: never instrumented (runs at import),
        # but walk it to reach the function definitions inside.
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                do_function(stmt)
            elif isinstance(stmt, ast.ClassDef):
                do_container(stmt.body)
            elif isinstance(stmt, (ast.If, ast.Try)):
                for sub in (getattr(stmt, "body", []),
                            getattr(stmt, "orelse", []),
                            getattr(stmt, "finalbody", [])):
                    do_container(sub)
                for handler in getattr(stmt, "handlers", []):
                    do_container(handler.body)
            elif isinstance(stmt, (ast.With, ast.For, ast.While)):
                do_container(stmt.body)

    def do_function(fn) -> None:
        entry = entry_lineno(fn)
        lines.add(entry)
        body = list(fn.body)
        head: list[ast.stmt] = []
        if body and _is_docstring(body[0]):
            # Keep the docstring first so __doc__ survives.
            head.append(body.pop(0))
        fn.body = head + [_marker(filename, entry)] + do_stmts(body)

    def do_stmts(stmts: list[ast.stmt]) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # The ``def`` statement itself executes in this scope;
                # the body becomes its own instrumented unit.
                lines.add(stmt.lineno)
                out.append(_marker(filename, stmt.lineno))
                do_function(stmt)
                out.append(stmt)
                continue
            if isinstance(stmt, ast.ClassDef):
                lines.add(stmt.lineno)
                out.append(_marker(filename, stmt.lineno))
                do_container(stmt.body)
                out.append(stmt)
                continue
            if _is_untraceable(stmt):
                out.append(stmt)
                continue
            lines.add(stmt.lineno)
            out.append(_marker(filename, stmt.lineno))
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                # Loop headers re-fire per iteration under settrace; a
                # body-top marker with the header's line reproduces the
                # loop-back transition for the edge bitmap.
                stmt.body = [_marker(filename, stmt.lineno)] + do_stmts(stmt.body)
                stmt.orelse = do_stmts(stmt.orelse)
            elif isinstance(stmt, ast.If):
                stmt.body = do_stmts(stmt.body)
                stmt.orelse = do_stmts(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                stmt.body = do_stmts(stmt.body)
            elif isinstance(stmt, ast.Try):
                stmt.body = do_stmts(stmt.body)
                for handler in stmt.handlers:
                    lines.add(handler.lineno)
                    handler.body = ([_marker(filename, handler.lineno)]
                                    + do_stmts(handler.body))
                stmt.orelse = do_stmts(stmt.orelse)
                stmt.finalbody = do_stmts(stmt.finalbody)
            elif isinstance(stmt, ast.Match):
                for case in stmt.cases:
                    case.body = do_stmts(case.body)
            out.append(stmt)
        return out

    do_container(tree.body)
    return lines


def _parse(filename: str) -> ast.Module:
    with open(filename, encoding="utf-8") as f:
        return ast.parse(f.read(), filename)


def executable_lines(module: ModuleType) -> frozenset[Line]:
    """All instrumentable (file, line) pairs of *module*'s function bodies.

    The universe is the set of statement lines inside functions — the
    exact lines the markers can record, and a subset of what
    settrace reports (settrace additionally sees continuation lines of
    multi-line statements; those are clipped by the intersection both
    :class:`repro.coverage.report.CoverageReport` and
    :meth:`KcovTracer.coverage_fraction` apply).

    Results are memoized per source file; the returned set is immutable.
    """
    filename = module.__file__
    if filename is None:
        raise ValueError(f"module {module.__name__} has no source file")
    cached = _EXEC_LINES_CACHE.get(filename)
    if cached is not None:
        return cached
    linenos = _process_tree(_parse(filename), filename)
    result = frozenset((filename, n) for n in linenos)
    _EXEC_LINES_CACHE[filename] = result
    return result


# --- in-place code instrumentation --------------------------------------------


def _collect_code(code, table: dict) -> None:
    table[code.co_qualname] = code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            _collect_code(const, table)


def instrument_module(module: ModuleType) -> tuple[str, ...]:
    """Compile marker-instrumented code for *module* and swap it in.

    Every function/method whose code lives in the module's source file
    gets its ``__code__`` replaced by the instrumented equivalent —
    in-place, so aliases created by ``from x import f`` or method
    references taken earlier all see the markers. The module gains a
    ``__kcov_rec__`` global pointing at the null sink until a tracer
    activates it.

    Idempotent; returns the qualnames that could not be swapped (normally
    empty — e.g. a decorator-hidden function without ``__wrapped__``).
    """
    filename = module.__file__
    if filename is None:
        return ()
    done = _INSTRUMENTED.get(filename)
    if done is not None:
        return done

    tree = _parse(filename)
    linenos = _process_tree(tree, filename)
    _EXEC_LINES_CACHE.setdefault(
        filename, frozenset((filename, n) for n in linenos))
    table: dict[str, object] = {}
    _collect_code(compile(tree, filename, "exec"), table)

    failed: list[str] = []
    seen: set[int] = set()

    def swap(fn: FunctionType) -> None:
        if id(fn) in seen or fn.__code__.co_filename != filename:
            return
        seen.add(id(fn))
        new = table.get(fn.__code__.co_qualname)
        if new is None or new.co_freevars != fn.__code__.co_freevars:
            failed.append(fn.__qualname__)
            return
        fn.__code__ = new

    def visit(obj) -> None:
        if isinstance(obj, FunctionType):
            swap(obj)
            wrapped = getattr(obj, "__wrapped__", None)
            if isinstance(wrapped, FunctionType):
                swap(wrapped)
        elif isinstance(obj, (staticmethod, classmethod)):
            visit(obj.__func__)
        elif isinstance(obj, property):
            for accessor in (obj.fget, obj.fset, obj.fdel):
                if accessor is not None:
                    visit(accessor)

    for obj in list(vars(module).values()):
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            for member in list(vars(obj).values()):
                visit(member)
        else:
            visit(obj)

    module.__kcov_rec__ = _NULL_SINK.append  # type: ignore[attr-defined]
    result = tuple(failed)
    _INSTRUMENTED[filename] = result
    return result


class KcovTracer:
    """Record executed lines in a fixed set of target modules.

    :meth:`drain` harvests the current test case's line set and edge set
    (consecutive-line transitions, the raw material for the AFL bitmap);
    the caller (the agent) merges them into campaign-cumulative state.
    The target modules are instrumented with inline marker calls on
    construction; see the module docstring.
    """

    def __init__(self, modules: Iterable[ModuleType]) -> None:
        self.modules = tuple(modules)
        self.instrumented: set[Line] = set()
        self.unswapped: tuple[str, ...] = ()
        for module in self.modules:
            self.instrumented |= executable_lines(module)
            self.unswapped += instrument_module(module)
        #: Markers append (file, line) tuples here in execution order
        #: while the tracer is active.
        self._events: list[Line] = []
        self._active = False

    # --- pickling (campaign checkpoints) -----------------------------------

    def __getstate__(self) -> dict:
        """Pickle by module *name*: module objects cannot be pickled.

        Campaign checkpoints snapshot whole workers (agent included);
        the tracer re-imports and re-instruments its targets on
        restore — both idempotent per process.
        """
        state = self.__dict__.copy()
        state["modules"] = tuple(m.__name__ for m in self.modules)
        state["_events"] = list(self._events)
        state["_active"] = False
        return state

    def __setstate__(self, state: dict) -> None:
        import importlib

        names = state.pop("modules")
        self.__dict__.update(state)
        self.modules = tuple(importlib.import_module(n) for n in names)
        unswapped: tuple[str, ...] = ()
        for module in self.modules:
            unswapped += instrument_module(module)
        self.unswapped = unswapped

    # --- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin collecting (nested/concurrent tracers are rejected)."""
        global _ACTIVE_TRACER
        if self._active:
            raise RuntimeError("tracer already active")
        if _ACTIVE_TRACER is not None:
            raise RuntimeError("another KcovTracer is already active")
        self._active = True
        _ACTIVE_TRACER = self
        record = self._events.append
        for module in self.modules:
            module.__kcov_rec__ = record  # type: ignore[attr-defined]

    def stop(self) -> None:
        """Stop collecting."""
        global _ACTIVE_TRACER
        for module in self.modules:
            module.__kcov_rec__ = _NULL_SINK.append  # type: ignore[attr-defined]
        if _ACTIVE_TRACER is self:
            _ACTIVE_TRACER = None
        self._active = False

    def __enter__(self) -> "KcovTracer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def drain(self) -> tuple[set[Line], set[tuple[Line, Line]]]:
        """Harvest and reset the current run's lines and edges."""
        events = self._events
        lines = set(events)
        edges = set(zip(events, islice(events, 1, None)))
        # Clear in place: active markers hold a reference to the bound
        # append of this exact list.
        events.clear()
        return lines, edges

    # --- reporting helpers ---------------------------------------------------

    def coverage_fraction(self, covered: set[Line]) -> float:
        """Covered fraction of the instrumented lines."""
        if not self.instrumented:
            return 0.0
        return len(covered & self.instrumented) / len(self.instrumented)
