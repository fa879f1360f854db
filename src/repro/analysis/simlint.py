"""simlint: AST-based determinism/invariant lint rules.

Pure stdlib (``ast`` + ``re``); see :mod:`repro.analysis.config` for the
rule inventory and allowlists.  Suppress a finding inline with::

    something_noisy()  # simlint: ignore[DET003] justification here

or suppress every rule on a line with ``# simlint: ignore``.  The tests
under ``tests/analysis`` pin each rule's exact rule id and line numbers
on known-good/known-bad fixture snippets.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.config import (
    FLOAT_NAME_RE,
    RACE_ATTRS,
    RNG_ALLOW,
    WALLCLOCK_ALLOW,
    SimlintConfig,
    path_allowed,
)

# ----------------------------------------------------------------------
# Findings and suppression comments
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One lint violation, pointing at a file/line/column."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")


def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed rule ids (``None`` = all rules)."""
    result: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = match.group(1)
        if rules is None:
            result[lineno] = None
        else:
            result[lineno] = {r.strip() for r in rules.split(",") if r.strip()}
    return result


# ----------------------------------------------------------------------
# Import bookkeeping shared by DET001/DET002
# ----------------------------------------------------------------------

_TIME_FUNCS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "clock_gettime",
    "clock_gettime_ns",
}
_DATETIME_NOW_ATTRS = {"now", "utcnow", "today"}
_RANDOM_DRAW_FUNCS = {
    "random",
    "uniform",
    "randint",
    "randrange",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "gammavariate",
    "lognormvariate",
    "paretovariate",
    "weibullvariate",
    "triangular",
    "vonmisesvariate",
    "getrandbits",
    "randbytes",
    "seed",
    "getstate",
    "setstate",
}


class _ImportMap:
    """Names bound (anywhere in the file) to the modules/functions the
    clock and RNG rules care about.  Function-local imports count too."""

    def __init__(self, tree: ast.AST) -> None:
        self.time_modules: Set[str] = set()
        self.datetime_modules: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        self.time_funcs: Dict[str, str] = {}
        self.random_modules: Dict[str, int] = {}  # name -> lineno of import
        self.random_classes: Set[str] = set()
        self.random_draw_funcs: Dict[str, Tuple[str, int]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "time":
                        self.time_modules.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(bound)
                    elif alias.name == "random":
                        self.random_modules[bound] = node.lineno
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _TIME_FUNCS:
                            self.time_funcs[alias.asname or alias.name] = alias.name
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            self.datetime_classes.add(alias.asname or alias.name)
                elif node.module == "random":
                    for alias in node.names:
                        if alias.name in ("Random", "SystemRandom"):
                            self.random_classes.add(alias.asname or alias.name)
                        elif alias.name in _RANDOM_DRAW_FUNCS:
                            self.random_draw_funcs[alias.asname or alias.name] = (
                                alias.name,
                                node.lineno,
                            )


# ----------------------------------------------------------------------
# DET001 — wall-clock reads
# ----------------------------------------------------------------------


def _check_det001(tree: ast.AST, imports: _ImportMap, path: str) -> List[Finding]:
    if path_allowed(path, WALLCLOCK_ALLOW):
        return []
    findings = []

    def flag(node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                "DET001",
                path,
                node.lineno,
                node.col_offset,
                f"wall-clock read `{what}` outside the clock seam; "
                "use the simulated EventLoop clock or repro.experiments.wallclock",
            )
        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imports.time_funcs:
            flag(node, f"time.{imports.time_funcs[func.id]}")
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in imports.time_modules:
                if func.attr in _TIME_FUNCS:
                    flag(node, f"time.{func.attr}")
            elif func.attr in _DATETIME_NOW_ATTRS:
                if isinstance(base, ast.Name) and base.id in imports.datetime_classes:
                    flag(node, f"datetime.{func.attr}")
                elif (
                    isinstance(base, ast.Attribute)
                    and base.attr in ("datetime", "date")
                    and isinstance(base.value, ast.Name)
                    and base.value.id in imports.datetime_modules
                ):
                    flag(node, f"datetime.{base.attr}.{func.attr}")
    return findings


# ----------------------------------------------------------------------
# DET002 — raw `random` use bypassing RandomStreams
# ----------------------------------------------------------------------


def _check_det002(tree: ast.AST, imports: _ImportMap, path: str) -> List[Finding]:
    if path_allowed(path, RNG_ALLOW):
        return []
    findings = []

    for name, lineno in sorted(imports.random_modules.items(), key=lambda kv: kv[1]):
        findings.append(
            Finding(
                "DET002",
                path,
                lineno,
                0,
                f"`import random` (as `{name}`) binds the shared global RNG; "
                "inject a RandomStreams stream (annotate with "
                "`from random import Random`)",
            )
        )
    for name, (orig, lineno) in sorted(
        imports.random_draw_funcs.items(), key=lambda kv: kv[1][1]
    ):
        findings.append(
            Finding(
                "DET002",
                path,
                lineno,
                0,
                f"`from random import {orig}` draws from the shared global RNG; "
                "inject a RandomStreams stream",
            )
        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        ctor: Optional[str] = None
        if isinstance(func, ast.Name) and func.id in imports.random_classes:
            ctor = func.id
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in ("Random", "SystemRandom")
            and isinstance(func.value, ast.Name)
            and func.value.id in imports.random_modules
        ):
            ctor = func.attr
        if ctor is None:
            continue
        if not node.args and not node.keywords:
            message = (
                f"unseeded `{ctor}()` is nondeterministic across runs; "
                "obtain a generator from RandomStreams or seeded_rng"
            )
        else:
            message = (
                f"`{ctor}(...)` construction bypasses RandomStreams; use "
                "repro.sim.randomness.seeded_rng or an injected stream"
            )
        findings.append(Finding("DET002", path, node.lineno, node.col_offset, message))
    return findings


# ----------------------------------------------------------------------
# DET003 — set-order leaks
# ----------------------------------------------------------------------

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter", "next", "zip"}


class _SetOrderChecker(ast.NodeVisitor):
    """Track local names bound to set expressions; flag ordered consumption."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        self._scopes: List[Set[str]] = [set()]

    # -- scope management ------------------------------------------------

    def _tracked(self, name: str) -> bool:
        return any(name in scope for scope in reversed(self._scopes))

    def _untrack(self, name: str) -> None:
        for scope in self._scopes:
            scope.discard(name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scopes.append(set())
        self.generic_visit(node)
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scopes.append(set())
        self.generic_visit(node)
        self._scopes.pop()

    # -- set-expression classification ----------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return True
            # s.copy() / s.union(...) etc. of a tracked set stays a set.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr
                in ("copy", "union", "intersection", "difference", "symmetric_difference")
                and self._is_set_expr(node.func.value)
            ):
                return True
            return False
        if isinstance(node, ast.Name):
            return self._tracked(node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self._is_set_expr(node.left) and self._is_set_expr(node.right)
        return False

    def _describe(self, node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return f"set {node.id!r}"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set literal"
        return "set expression"

    def _flag(self, node: ast.AST, how: str) -> None:
        self.findings.append(
            Finding(
                "DET003",
                self.path,
                node.lineno,
                node.col_offset,
                f"{how} over unordered {self._describe(node)} can leak "
                "iteration order into results; wrap in sorted(...)",
            )
        )

    # -- flag sites ------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self._scopes[-1].add(target.id)
                else:
                    self._untrack(target.id)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name) and node.value is not None:
            if self._is_set_expr(node.value):
                self._scopes[-1].add(node.target.id)
            else:
                self._untrack(node.target.id)

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node.iter, "iteration")
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            if self._is_set_expr(gen.iter):
                self._flag(gen.iter, "iteration")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set *from* a set keeps everything unordered: fine.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_SENSITIVE_CALLS
            and node.args
            and self._is_set_expr(node.args[0])
        ):
            self._flag(node.args[0], f"{func.id}()")
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and self._is_set_expr(node.args[0])
        ):
            self._flag(node.args[0], "str.join()")
        self.generic_visit(node)


def _check_det003(tree: ast.AST, path: str) -> List[Finding]:
    checker = _SetOrderChecker(path)
    checker.visit(tree)
    return checker.findings


# ----------------------------------------------------------------------
# DET004 — float equality on rates/costs
# ----------------------------------------------------------------------


def _check_det004(tree: ast.AST, path: str) -> List[Finding]:
    findings = []

    def is_inf(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute) and node.attr in ("inf", "nan"):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            return True
        return False

    def is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return is_float_literal(node.operand)
        return False

    def is_rate_name(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return bool(FLOAT_NAME_RE.search(node.id))
        if isinstance(node, ast.Attribute):
            return bool(FLOAT_NAME_RE.search(node.attr))
        return False

    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (left, right)
            if any(is_inf(side) for side in pair):
                # inf/nan sentinels propagate exactly; comparing them is OK.
                continue
            literal = any(is_float_literal(side) for side in pair)
            both_rates = all(is_rate_name(side) for side in pair)
            one_rate_vs_literal = literal and any(is_rate_name(s) for s in pair)
            if literal or both_rates or one_rate_vs_literal:
                findings.append(
                    Finding(
                        "DET004",
                        path,
                        left.lineno,
                        left.col_offset,
                        "float ==/!= comparison on a rate/cost quantity; use "
                        "math.isclose or an explicit epsilon",
                    )
                )
                break
    return findings


# ----------------------------------------------------------------------
# RACE001 — stale shared-state reads across yield points
# ----------------------------------------------------------------------


class _RaceScanner:
    """Per-generator linear scan tracking yield epochs.

    A local bound to an attribute read of shared mutable state (see
    ``race_attrs``) is stamped with the current yield epoch; reading it at
    a later epoch means the value may be stale — the simulation advanced
    while the process was suspended.  Loop bodies containing a yield are
    scanned twice so second-iteration reads of a pre-loop cache are caught.
    """

    def __init__(self, path: str, race_attrs: Iterable[str]) -> None:
        self.path = path
        self.race_attrs = set(race_attrs)
        self.findings: List[Finding] = []
        self._epoch = 0
        self._env: Dict[str, Tuple[int, str]] = {}
        self._reported: Set[Tuple[str, int]] = set()

    # -- entry points ----------------------------------------------------

    def scan_module(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._is_generator(node):
                    self._epoch = 0
                    self._env = {}
                    for stmt in node.body:
                        self._stmt(stmt)

    @staticmethod
    def _is_generator(fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if node is fn:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # Don't let nested defs make the outer one look like a
                # generator — walk stops descending by skipping subtrees.
                continue
            if isinstance(node, (ast.Yield, ast.YieldFrom)) and _owner_function(
                fn, node
            ):
                return True
        return False

    # -- statement walk (source order) ----------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes have their own generator scan
        if isinstance(node, ast.Assign):
            self._expr(node.value)
            tracked = self._shared_attr(node.value)
            for target in node.targets:
                self._assign_target(target, tracked)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._expr(node.value)
                self._assign_target(node.target, self._shared_attr(node.value))
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                self._load(node.target)
            else:
                self._expr(node.target)
            self._expr(node.value)
        elif isinstance(node, ast.Expr):
            self._expr(node.value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._expr(node.value)
        elif isinstance(node, ast.If):
            self._expr(node.test)
            for s in node.body:
                self._stmt(s)
            for s in node.orelse:
                self._stmt(s)
        elif isinstance(node, ast.While):
            self._expr(node.test)
            self._loop_body(node.body)
            for s in node.orelse:
                self._stmt(s)
        elif isinstance(node, ast.For):
            self._expr(node.iter)
            self._assign_target(node.target, None)
            self._loop_body(node.body)
            for s in node.orelse:
                self._stmt(s)
        elif isinstance(node, ast.Try):
            for s in node.body:
                self._stmt(s)
            for handler in node.handlers:
                for s in handler.body:
                    self._stmt(s)
            for s in node.orelse:
                self._stmt(s)
            for s in node.finalbody:
                self._stmt(s)
        elif isinstance(node, ast.With):
            for item in node.items:
                self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars, None)
            for s in node.body:
                self._stmt(s)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._env.pop(target.id, None)
                else:
                    self._expr(target)
        # pass/break/continue/import/global/nonlocal: nothing to do

    def _loop_body(self, body: Sequence[ast.stmt]) -> None:
        before = self._epoch
        for s in body:
            self._stmt(s)
        if self._epoch != before:
            # The loop yields: replay the body once to model iteration 2,
            # when pre-loop caches have crossed a yield point.
            for s in body:
                self._stmt(s)

    def _assign_target(self, target: ast.expr, tracked: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            if tracked is not None:
                self._env[target.id] = (self._epoch, tracked)
            else:
                self._env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, None)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._expr(target.value)
            if isinstance(target, ast.Subscript):
                self._expr(target.slice)

    # -- expression walk -------------------------------------------------

    def _expr(self, node: Optional[ast.expr]) -> None:
        if node is None:
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._expr(node.value)
            self._epoch += 1
            return
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._load(node)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter)
                for cond in child.ifs:
                    self._expr(cond)
            elif isinstance(child, ast.keyword):
                self._expr(child.value)

    def _load(self, node: ast.Name) -> None:
        entry = self._env.get(node.id)
        if entry is None:
            return
        assigned_epoch, attr = entry
        if self._epoch > assigned_epoch:
            key = (node.id, node.lineno)
            if key not in self._reported:
                self._reported.add(key)
                self.findings.append(
                    Finding(
                        "RACE001",
                        self.path,
                        node.lineno,
                        node.col_offset,
                        f"`{node.id}` caches shared state `.{attr}` read before a "
                        "yield; the simulation advanced while suspended — "
                        "re-fetch after resuming",
                    )
                )

    def _shared_attr(self, node: ast.expr) -> Optional[str]:
        """Terminal shared-state attribute of a bare attribute/subscript
        read (call results are snapshots, not live references)."""
        n = node
        while isinstance(n, ast.Subscript):
            n = n.value
        if isinstance(n, ast.Attribute) and n.attr in self.race_attrs:
            return n.attr
        return None


def _owner_function(fn: ast.AST, target: ast.AST) -> bool:
    """Whether ``target`` belongs to ``fn``'s own body (not a nested def)."""

    class _Finder(ast.NodeVisitor):
        def __init__(self) -> None:
            self.found = False

        def generic_visit(self, node: ast.AST) -> None:
            if self.found:
                return
            if node is target:
                self.found = True
                return
            if node is not fn and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return
            super().generic_visit(node)

    finder = _Finder()
    finder.visit(fn)
    return finder.found


def _check_race001(tree: ast.AST, path: str) -> List[Finding]:
    scanner = _RaceScanner(path, RACE_ATTRS)
    scanner.scan_module(tree)
    return scanner.findings


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def lint_source(
    source: str, path: str = "<string>", config: Optional[SimlintConfig] = None
) -> List[Finding]:
    """Lint one file's source text; returns findings sorted by position."""
    if config is None:
        config = SimlintConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        return [
            Finding(
                "E999",
                path,
                err.lineno or 1,
                err.offset or 0,
                f"syntax error: {err.msg}",
            )
        ]
    imports = _ImportMap(tree)
    findings: List[Finding] = []
    if "DET001" in config.enabled_rules:
        findings.extend(_check_det001(tree, imports, path))
    if "DET002" in config.enabled_rules:
        findings.extend(_check_det002(tree, imports, path))
    if "DET003" in config.enabled_rules:
        findings.extend(_check_det003(tree, path))
    if "DET004" in config.enabled_rules:
        findings.extend(_check_det004(tree, path))
    if "RACE001" in config.enabled_rules:
        findings.extend(_check_race001(tree, path))

    suppressed = _suppressions(source)
    kept = []
    for finding in findings:
        rules = suppressed.get(finding.line, ())
        if rules is None or finding.rule in rules:
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if not any(part.startswith(".") for part in p.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(
    paths: Sequence[Path], config: Optional[SimlintConfig] = None
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:  # pragma: no cover
            findings.append(Finding("E998", str(file_path), 1, 0, f"unreadable: {err}"))
            continue
        findings.extend(lint_source(source, str(file_path), config))
    return findings
