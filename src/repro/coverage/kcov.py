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
code objects are rewritten in place with a ``__kcov_rec__(<id>)``
marker call before every traceable statement. The marker is a bound
``list.append`` (a C call, no Python frame), so recording one line costs
nanoseconds and ``sys.settrace`` is never installed. While no tracer is
active the markers append into a shared ``deque(maxlen=0)`` null sink,
so instrumented modules are almost free to run untraced.

Each id is a small int fixed at instrumentation time, like AFL's
compile-time location ids: a file owns the range ``base .. base +
line count`` and a line's id is ``base + lineno``. Files under
``repro/hypervisors`` get their bases from their sorted package-relative
paths, so the hypervisor models' ids do not depend on which modules a
process instrumented first (a checkpointed agent resumes in a fresh
process with the same ids). Any other file gets the next free range
when it is first instrumented. :func:`lines_of` and :func:`line_ids`
convert between ids and ``(file, line)`` pairs at the boundaries that
read lines (reports, sync records, the instrumented universe).

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
import os
import sys
from array import array
from types import FunctionType, ModuleType
from typing import Iterable

Line = tuple[str, int]

#: Edge keys hold two ids as 16-bit halves, so the id space ends here.
ID_LIMIT = 0xFFFF

#: The tree whose files get fixed id ranges (see the module docstring).
_FIXED_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "hypervisors")

#: Absolute path -> (base, line count) of every file under
#: :data:`_FIXED_ROOT`; filled on first use.
_FIXED_RANGES: dict[str, tuple[int, int]] = {}

#: (base, line count) of every file whose range is open, keyed by the
#: filename the markers carry (the module's ``__file__``).
_RANGES: dict[str, tuple[int, int]] = {}

#: ``(file, line)`` of every id of an open range, indexed by id.
_ID_LINES: list["Line | None"] = []

#: One past the highest id handed out so far.
_next_base = 0

#: Bit offsets of the first and the second id in a packed edge key:
#: two 16-bit event items read as one native 32-bit word.
_PREV_SHIFT, _CUR_SHIFT = (0, 16) if sys.byteorder == "little" else (16, 0)

#: The low 16-bit halves of native 32-bit items.
_LOW_HALVES = slice(0 if sys.byteorder == "little" else 1, None, 2)


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


def event_sink() -> "list[int] | None":
    """The active tracer's event list of line ids, or ``None``.

    Consumers that skip instrumented code use this to record the event
    slice a computation emitted and to replay it in place of running it
    again, keeping line and edge coverage identical between the two
    paths. There are three: :func:`repro.perf.memoized_check` replays on
    cache hits, :func:`repro.perf.merge_state` replays the build and
    control slices of a merge section it skips, and the harness's
    vmwrite storm (``VmExecutionHarness._write_vmcs_fields``) replays
    the first vmwrite's slice for the rest of the storm, whether that
    write succeeded or failed.
    """
    tracer = _ACTIVE_TRACER
    return tracer._events if tracer is not None else None


# --- line ids -----------------------------------------------------------------


def _line_count(filename: str) -> int:
    with open(filename, "rb") as f:
        return f.read().count(b"\n") + 1


def _fixed_ranges() -> dict[str, tuple[int, int]]:
    """The fixed ranges of the files under :data:`_FIXED_ROOT`, laid
    out in sorted path order from id 0."""
    global _next_base
    if not _FIXED_RANGES:
        paths = sorted(
            os.path.join(root, name)
            for root, _, names in os.walk(_FIXED_ROOT)
            for name in names if name.endswith(".py"))
        base = 0
        for path in paths:
            count = _line_count(path)
            _FIXED_RANGES[path] = (base, count)
            base += count + 1
        _next_base = base
    return _FIXED_RANGES


def _open_range(filename: str) -> int:
    """The first id of *filename*'s range, opening the range on first
    use: a fixed one for a file under :data:`_FIXED_ROOT`, the next free
    one for any other file."""
    global _next_base
    opened = _RANGES.get(filename)
    if opened is not None:
        return opened[0]
    fixed = _fixed_ranges().get(os.path.abspath(filename))
    if fixed is not None:
        base, count = fixed
    else:
        base, count = _next_base, _line_count(filename)
    end = base + count + 1
    if end > ID_LIMIT:
        raise RuntimeError(
            f"kcov line-id space exhausted: {filename} needs ids up to "
            f"{end - 1}, but ids must stay below {ID_LIMIT}")
    _next_base = max(_next_base, end)
    if len(_ID_LINES) < end:
        _ID_LINES.extend([None] * (end - len(_ID_LINES)))
    _ID_LINES[base:end] = [(filename, n) for n in range(count + 1)]
    _RANGES[filename] = (base, count)
    return base


def line_id(filename: str, lineno: int) -> int:
    """The id the markers record for ``(filename, lineno)``."""
    return _open_range(filename) + lineno


def line_of(ident: int) -> Line:
    """The ``(file, line)`` an id stands for."""
    line = _ID_LINES[ident]
    if line is None:
        raise KeyError(ident)
    return line


def lines_of(ids: Iterable[int]) -> frozenset[Line]:
    """The ``(file, line)`` pairs a set of ids stands for."""
    table = _ID_LINES
    # Copying a set sizes the frozenset's table to fit; building it
    # from a generator would leave it up to twice as large.
    return frozenset({table[i] for i in ids})


def line_ids(lines: Iterable[Line]) -> set[int]:
    """The ids of *lines* whose file has an open range; other lines
    cannot have been recorded here and are dropped."""
    ranges = _RANGES
    out = set()
    for filename, lineno in lines:
        opened = ranges.get(filename)
        if opened is not None and 0 <= lineno <= opened[1]:
            out.add(opened[0] + lineno)
    return out


def split_edge(key: int) -> tuple[int, int]:
    """The ``(prev, cur)`` ids of a packed edge key (see
    :meth:`KcovTracer.drain`)."""
    return key >> _PREV_SHIFT & 0xFFFF, key >> _CUR_SHIFT & 0xFFFF


def edge_key(prev: int, cur: int) -> int:
    """The packed key :meth:`KcovTracer.drain` reports for the
    ``prev -> cur`` transition."""
    return prev << _PREV_SHIFT | cur << _CUR_SHIFT


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


def _marker(base: int, lineno: int) -> ast.Expr:
    """Build ``__kcov_rec__(base + lineno)`` attributed to *lineno*.

    The marker carries the line number of the statement it records, so
    a settrace tracer running over instrumented code sees no alien
    lines (the marker bytecode merges into the statement's line).
    """
    node = ast.Expr(value=ast.Call(
        func=ast.Name(id="__kcov_rec__", ctx=ast.Load()),
        args=[ast.Constant(value=base + lineno)],
        keywords=[],
    ))
    for sub in ast.walk(node):
        sub.lineno = sub.end_lineno = lineno
        sub.col_offset = sub.end_col_offset = 0
    return node


def _process_tree(tree: ast.Module, base: int) -> set[int]:
    """Insert markers into every function body; return statement linenos.

    Each marker records ``base + lineno``, the line's id when *base* is
    the first id of the file's range.

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
        fn.body = head + [_marker(base, entry)] + do_stmts(body)

    def do_stmts(stmts: list[ast.stmt]) -> list[ast.stmt]:
        out: list[ast.stmt] = []
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # The ``def`` statement itself executes in this scope;
                # the body becomes its own instrumented unit.
                lines.add(stmt.lineno)
                out.append(_marker(base, stmt.lineno))
                do_function(stmt)
                out.append(stmt)
                continue
            if isinstance(stmt, ast.ClassDef):
                lines.add(stmt.lineno)
                out.append(_marker(base, stmt.lineno))
                do_container(stmt.body)
                out.append(stmt)
                continue
            if _is_untraceable(stmt):
                out.append(stmt)
                continue
            lines.add(stmt.lineno)
            out.append(_marker(base, stmt.lineno))
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                # Loop headers re-fire per iteration under settrace; a
                # body-top marker with the header's line reproduces the
                # loop-back transition for the edge bitmap.
                stmt.body = [_marker(base, stmt.lineno)] + do_stmts(stmt.body)
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
                    handler.body = ([_marker(base, handler.lineno)]
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
    linenos = _process_tree(_parse(filename), 0)
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
    linenos = _process_tree(tree, _open_range(filename))
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

    :meth:`drain` harvests the current test case's line-id set and edge
    set (consecutive-line transitions, the raw material for the AFL
    bitmap); the caller (the agent) merges them into campaign-cumulative
    state. The target modules are instrumented with inline marker calls
    on construction; see the module docstring.
    """

    def __init__(self, modules: Iterable[ModuleType]) -> None:
        self.modules = tuple(modules)
        self.instrumented: set[Line] = set()
        self.unswapped: tuple[str, ...] = ()
        for module in self.modules:
            # Instrumenting parses the file and fills the universe cache
            # executable_lines reads, so each file is parsed once.
            self.unswapped += instrument_module(module)
            self.instrumented |= executable_lines(module)
        #: :attr:`instrumented` as line ids.
        self.instrumented_ids = frozenset(line_ids(self.instrumented))
        #: Markers append line ids here in execution order while the
        #: tracer is active.
        self._events: list[int] = []
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

    def drain(self) -> tuple[set[int], set[int]]:
        """Harvest and reset the current run's line ids and edge keys.

        An edge key packs two consecutive ids into one 32-bit word
        (:func:`edge_key`, :func:`split_edge`). The events as 16-bit
        items, read as 32-bit words from byte offset 0, give the pairs
        that start at even positions; read from offset 2, the pairs that
        start at odd ones. Together they are every consecutive pair,
        found without building a tuple per pair. Every event but the
        last starts a pair, so the line ids are the edges' first ids
        plus the last event: a few hundred edges to visit instead of
        every event.
        """
        events = self._events
        # array("I") converts a list several times faster than
        # array("H"). Ids stay below ID_LIMIT, so the low halves of its
        # items are the events as 16-bit items.
        halves = memoryview(array("I", events)).cast("B").cast("H")
        view = memoryview(halves[_LOW_HALVES].tobytes())
        size = len(view)
        edges = set(view[:size & ~3].cast("I"))
        if size > 4:
            edges.update(view[2:2 + ((size - 2) & ~3)].cast("I"))
        shift = _PREV_SHIFT
        lines = {key >> shift & 0xFFFF for key in edges}
        if events:
            lines.add(events[-1])
        # Clear in place: active markers hold a reference to the bound
        # append of this exact list.
        events.clear()
        return lines, edges

    # --- reporting helpers ---------------------------------------------------

    def coverage_fraction(self, covered: set[int]) -> float:
        """Covered fraction of the instrumented lines, from line ids."""
        instrumented = self.instrumented_ids
        if not instrumented:
            return 0.0
        return len(covered & instrumented) / len(instrumented)

    def covered_lines(self, covered: set[int]) -> set[Line]:
        """The instrumented ``(file, line)`` pairs among line ids."""
        return set(lines_of(covered & self.instrumented_ids))
