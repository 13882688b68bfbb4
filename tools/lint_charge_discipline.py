#!/usr/bin/env python
"""AST lint for the charge-accounting discipline of the runtime.

The simulated machine's counters are the repository's ground truth: the cost
model predicts them, the static verifier proves them, and the benchmarks pin
them.  That only works while every byte of file traffic flows through the
charged engines and no charge depends on the host.  This linter enforces the
discipline statically (stdlib ``ast`` only, no third-party dependencies):

``io-confinement``
    Raw file access (``open``, ``os.open``, ``np.memmap``, ``np.save``,
    ``np.load``, ``Path.read_bytes``/``write_bytes``) inside
    ``src/repro/runtime/`` is allowed only in ``io_engine.py`` and ``laf.py``
    — anywhere else it would move bytes the machine never charges.

``wall-clock``
    Charge paths must be deterministic: nothing in ``src/repro/runtime/``
    may *read* the host clock (``time.time``, ``time.perf_counter``,
    ``time.monotonic``, ``datetime.now`` ...).  ``time.sleep`` is fine — the
    retry backoff delays the host without touching a counter.

``retry-charge``
    Inside a retry loop (a ``while``/``for`` whose ``except`` handler catches
    ``TransientIOError`` or ``OSError``), no ``charge_*`` call may appear:
    a retried attempt would charge the machine once per failure, making the
    counters depend on the injected fault schedule.  Charges belong outside
    ``_attempt``-style loops (or must snapshot/restore around them).

``frozen-mutation``
    ``object.__setattr__`` is the frozen-dataclass escape hatch and is legal
    only inside the owning class's own ``__init__`` / ``__post_init__`` /
    ``__setstate__``.  Foreign mutation of a frozen plan object would let
    code quietly edit an already-verified plan.

``estimate-parity``
    Every engine in ``src/repro/runtime/`` drives the same slab loops in
    both modes, so a ``store_slab`` call with a real (non-``None``) payload
    must be gated on the VM's ``perform_io`` flag (an enclosing
    ``if vm.perform_io:`` / ``if perform:`` branch, or a
    ``data if perform_io else None`` payload).  An ungated real store would
    materialize data in ESTIMATE mode — the fused elementwise engine depends
    on this to keep its resident intermediate EXECUTE-only while both modes
    charge identical counters.

``loop-index-translation``
    In ``src/repro/runtime/executor.py`` no ``owner_of_dim`` /
    ``global_to_local`` / ``local_to_global`` / ``local_index_ranges`` call
    may sit lexically inside a ``for`` body or a comprehension: the engines
    look ownership up in tables and slices built once per statement
    (``owner_table``, ``local_slices``), so host time does not grow with one
    checked Python call per column per slab.  Host-side only — no charge
    depends on it — but it guards the measured data-plane speed-up without
    reading a clock.

``per-column-charge``
    In ``run_reduction_column`` / ``run_reduction_row`` /
    ``run_reduction_incore`` no ``charge_compute`` / ``charge_fetch`` /
    ``global_sum`` call may sit lexically inside a ``for`` body: those
    engines charge and sum a whole *column block* per call
    (``comm.global_sum_columns``), so one scalar charge per result column —
    the 584k Python calls of an N=1024 column-slab pass — cannot creep back.
    Host-side only, like ``loop-index-translation``; the scalar methods stay
    the block's checked definition and the other engines keep using them.

``process-wide-cache``
    Anywhere under ``src/repro``: no ``functools.lru_cache`` /
    ``functools.cache`` decorator, and no module-level ``dict`` /
    ``OrderedDict`` bound to a name ending in ``CACHE``.  The Session LRU is
    the one cache of compiled workloads and ``PlanCache`` the one plan store;
    a cache owned by the process instead of a Session is shared by every
    Session in it, so a later Session's plan cache and ``cache_info()`` stop
    telling the truth about what was compiled.

``dense-zero-initial``
    Anywhere under ``src/repro``: no ``create_array`` / ``ensure_array``
    call whose ``initial=`` is ``np.zeros(...)``, directly, through a
    conditional, or through a name assigned from one.  A new Local Array File
    is created zero-filled, and every engine overwrites every slab of its
    result; a dense zero ``initial`` allocates the whole array on the host,
    scatters it and writes and checksums zeros the file already holds.

Run: ``python tools/lint_charge_discipline.py [root]`` — exits non-zero on
any violation.  Wired into ``make lint`` and CI.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, NamedTuple

IO_CONFINEMENT_ALLOWED = {"io_engine.py", "laf.py"}
#: unqualified calls that always mean host file access
RAW_IO_NAMES = {"open", "read_bytes", "write_bytes", "open_memmap"}
#: numpy file routines — only when actually called off the numpy module
#: (``SlabManifest.load`` or an ICLA's in-memory ``load`` are not file I/O)
NUMPY_IO_NAMES = {"memmap", "save", "load", "savez", "fromfile", "tofile"}
NUMPY_ALIASES = {"np", "numpy"}
WALL_CLOCK_CALLS = {"time", "perf_counter", "perf_counter_ns", "monotonic",
                    "monotonic_ns", "now", "utcnow", "clock_gettime"}
RETRY_EXCEPTIONS = {"TransientIOError", "OSError", "IOError"}
EXECUTOR_FILE = "executor.py"
INDEX_TRANSLATION_CALLS = {"owner_of_dim", "global_to_local", "local_to_global",
                           "local_index_ranges"}
BLOCK_ENGINES = {"run_reduction_column", "run_reduction_row", "run_reduction_incore"}
PER_COLUMN_CALLS = {"charge_compute", "charge_fetch", "global_sum"}
ARRAY_CONSTRUCTORS = {"create_array", "ensure_array"}
CACHE_DECORATORS = {"lru_cache", "cache"}
CACHE_CONTAINERS = {"dict", "OrderedDict"}
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class Violation(NamedTuple):
    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _rightmost_name(node: ast.AST) -> str:
    """The rightmost name of a dotted expression (``np.memmap`` -> ``memmap``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _call_name(node: ast.Call) -> str:
    """The rightmost name of the called expression."""
    return _rightmost_name(node.func)


def _is_object_setattr(node: ast.Call) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name)
        and func.value.id == "object"
    )


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------
def check_io_confinement(tree: ast.AST, path: Path) -> Iterator[Violation]:
    if path.name in IO_CONFINEMENT_ALLOWED:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        func = node.func
        raw = False
        if isinstance(func, ast.Name) and name in RAW_IO_NAMES:
            raw = True
        elif isinstance(func, ast.Attribute):
            qualifier = func.value.id if isinstance(func.value, ast.Name) else ""
            if name in NUMPY_IO_NAMES and qualifier in NUMPY_ALIASES:
                raw = True
            elif name in RAW_IO_NAMES:
                raw = True
            elif name == "open" and qualifier == "os":
                raw = True
        if raw:
            yield Violation(
                "io-confinement", str(path), node.lineno,
                f"raw file access {name!r} outside "
                "io_engine.py/laf.py moves bytes the machine never charges",
            )


def check_wall_clock(tree: ast.AST, path: Path) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name not in WALL_CLOCK_CALLS:
            continue
        # Only flag reads off the time/datetime modules, not unrelated
        # methods that happen to share a name (e.g. some ``obj.now()``).
        func = node.func
        qualifier = ""
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            qualifier = func.value.id
        if qualifier in {"time", "datetime", "dt"} or (
            isinstance(func, ast.Name) and name in {"perf_counter", "monotonic"}
        ):
            yield Violation(
                "wall-clock", str(path), node.lineno,
                f"host clock read {qualifier + '.' if qualifier else ''}{name}() "
                "in a charge path makes simulated counters nondeterministic",
            )


def _catches_retryable(handler: ast.ExceptHandler) -> bool:
    def names(node) -> List[str]:
        if node is None:
            return []
        if isinstance(node, ast.Tuple):
            return [n for e in node.elts for n in names(e)]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        if isinstance(node, ast.Name):
            return [node.id]
        return []

    return any(n in RETRY_EXCEPTIONS for n in names(handler.type))


def check_retry_charges(tree: ast.AST, path: Path) -> Iterator[Violation]:
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.While, ast.For)):
            continue
        retries = any(
            isinstance(node, ast.Try)
            and any(_catches_retryable(h) for h in node.handlers)
            for node in ast.walk(loop)
        )
        if not retries:
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) and _call_name(node).startswith("charge"):
                yield Violation(
                    "retry-charge", str(path), node.lineno,
                    f"{_call_name(node)!r} inside a retry loop charges once "
                    "per failed attempt, coupling counters to the fault "
                    "schedule",
                )


def check_frozen_mutation(tree: ast.AST, path: Path) -> Iterator[Violation]:
    allowed_lines: set = set()
    for klass in ast.walk(tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        for item in klass.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                item.name in {"__init__", "__post_init__", "__setstate__"}
            ):
                for node in ast.walk(item):
                    if isinstance(node, ast.Call) and _is_object_setattr(node):
                        allowed_lines.add(node.lineno)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and _is_object_setattr(node)
            and node.lineno not in allowed_lines
        ):
            yield Violation(
                "frozen-mutation", str(path), node.lineno,
                "object.__setattr__ outside the owning class's __init__/"
                "__post_init__ mutates a frozen (possibly verified) object",
            )


def _mentions_perform_io(node: ast.AST) -> bool:
    """True when the expression reads the VM's mode flag (or its local alias)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "perform_io":
            return True
        if isinstance(sub, ast.Name) and sub.id in {"perform", "perform_io"}:
            return True
    return False


def _store_payload(node: ast.Call):
    """The data argument of a ``store_slab(slab, data)`` call, if present."""
    if len(node.args) >= 2:
        return node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "data":
            return keyword.value
    return None


def check_estimate_parity(tree: ast.AST, path: Path) -> Iterator[Violation]:
    def visit(node: ast.AST, guarded: bool) -> Iterator[Violation]:
        if isinstance(node, ast.If) and _mentions_perform_io(node.test):
            for child in node.body:
                yield from visit(child, True)
            for child in node.orelse:
                # The else branch is the ESTIMATE side: only None payloads.
                yield from visit(child, guarded)
            return
        if isinstance(node, ast.Call) and _call_name(node) == "store_slab":
            payload = _store_payload(node)
            none_payload = isinstance(payload, ast.Constant) and payload.value is None
            ifexp_gated = isinstance(payload, ast.IfExp) and _mentions_perform_io(
                payload.test
            )
            if payload is not None and not (none_payload or guarded or ifexp_gated):
                yield Violation(
                    "estimate-parity", str(path), node.lineno,
                    "store_slab with a real payload outside a perform_io gate "
                    "would materialize data in ESTIMATE mode",
                )
        for child in ast.iter_child_nodes(node):
            yield from visit(child, guarded)

    yield from visit(tree, False)


def _calls_in_loops(root: ast.AST, names: set, comprehensions: bool = False) -> Iterator[ast.Call]:
    """Calls to any of ``names`` lexically inside a ``for`` body under ``root``.

    A loop's iterable and ``else`` branch run once, so only its body counts;
    ``comprehensions`` makes a comprehension count as a loop too.
    """

    def visit(node: ast.AST, in_loop: bool) -> Iterator[ast.Call]:
        if in_loop and isinstance(node, ast.Call) and _call_name(node) in names:
            yield node
        if isinstance(node, (ast.For, ast.AsyncFor)):
            for child in ast.iter_child_nodes(node):
                yield from visit(child, in_loop or child in node.body)
            return
        in_loop = in_loop or (comprehensions and isinstance(node, _COMPREHENSIONS))
        for child in ast.iter_child_nodes(node):
            yield from visit(child, in_loop)

    yield from visit(root, False)


def check_loop_index_translation(tree: ast.AST, path: Path) -> Iterator[Violation]:
    if path.name != EXECUTOR_FILE:
        return
    for node in _calls_in_loops(tree, INDEX_TRANSLATION_CALLS, comprehensions=True):
        yield Violation(
            "loop-index-translation", str(path), node.lineno,
            f"{_call_name(node)!r} inside a loop translates indices one "
            "call at a time; hoist an owner_table()/local_slices() "
            "lookup out of the loop",
        )


def check_per_column_charge(tree: ast.AST, path: Path) -> Iterator[Violation]:
    if path.name != EXECUTOR_FILE:
        return
    for function in ast.walk(tree):
        if not (isinstance(function, ast.FunctionDef) and function.name in BLOCK_ENGINES):
            continue
        for node in _calls_in_loops(function, PER_COLUMN_CALLS):
            yield Violation(
                "per-column-charge", str(path), node.lineno,
                f"{_call_name(node)!r} inside a loop of a column-block engine "
                "charges one result column per call; put it in the block's "
                "step list (comm.global_sum_columns)",
            )


def check_process_wide_cache(tree: ast.AST, path: Path) -> Iterator[Violation]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            called = decorator.func if isinstance(decorator, ast.Call) else decorator
            if _rightmost_name(called) in CACHE_DECORATORS:
                yield Violation(
                    "process-wide-cache", str(path), decorator.lineno,
                    f"@{_rightmost_name(called)} on {node.name!r} caches for the "
                    "whole process; cache in the Session (or PlanCache) that "
                    "owns the result",
                )
    for node in getattr(tree, "body", []):  # module level only
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        is_container = isinstance(value, (ast.Dict, ast.DictComp)) or (
            isinstance(value, ast.Call) and _call_name(value) in CACHE_CONTAINERS
        )
        for target in targets:
            if is_container and isinstance(target, ast.Name) and target.id.endswith("CACHE"):
                yield Violation(
                    "process-wide-cache", str(path), node.lineno,
                    f"module-level cache {target.id!r} is shared by every "
                    "Session of the process; make it state of the object "
                    "that owns the results",
                )


def _builds_zeros(node: ast.AST) -> bool:
    """True when the expression contains an ``np.zeros(...)`` call."""
    return any(
        isinstance(sub, ast.Call)
        and _call_name(sub) == "zeros"
        and isinstance(sub.func, ast.Attribute)
        and isinstance(sub.func.value, ast.Name)
        and sub.func.value.id in NUMPY_ALIASES
        for sub in ast.walk(node)
    )


def check_dense_zero_initial(tree: ast.AST, path: Path) -> Iterator[Violation]:
    zero_names = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _builds_zeros(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _call_name(node) in ARRAY_CONSTRUCTORS):
            continue
        for keyword in node.keywords:
            if keyword.arg != "initial":
                continue
            value = keyword.value
            if _builds_zeros(value) or (isinstance(value, ast.Name) and value.id in zero_names):
                yield Violation(
                    "dense-zero-initial", str(path), node.lineno,
                    f"{_call_name(node)!r} is handed dense zeros: a new Local "
                    "Array File is already zero-filled, pass initial=None",
                )


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def lint_file(path: Path, *, runtime: bool) -> List[Violation]:
    tree = ast.parse(path.read_text(), filename=str(path))
    violations: List[Violation] = []
    if runtime:
        violations.extend(check_io_confinement(tree, path))
        violations.extend(check_wall_clock(tree, path))
        violations.extend(check_retry_charges(tree, path))
        violations.extend(check_estimate_parity(tree, path))
        violations.extend(check_loop_index_translation(tree, path))
        violations.extend(check_per_column_charge(tree, path))
    violations.extend(check_frozen_mutation(tree, path))
    violations.extend(check_process_wide_cache(tree, path))
    violations.extend(check_dense_zero_initial(tree, path))
    return violations


def lint_tree(root: Path) -> List[Violation]:
    src = root / "src" / "repro"
    runtime_dir = src / "runtime"
    violations: List[Violation] = []
    for path in sorted(src.rglob("*.py")):
        runtime = runtime_dir in path.parents
        violations.extend(lint_file(path, runtime=runtime))
    return violations


def main(argv: List[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    violations = lint_tree(root)
    for violation in violations:
        print(violation.render())
    checked = len(list((root / "src" / "repro").rglob("*.py")))
    if violations:
        print(f"charge discipline: {len(violations)} violation(s) "
              f"in {checked} file(s)")
        return 1
    print(f"charge discipline: clean ({checked} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
