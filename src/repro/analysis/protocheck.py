"""protocheck: cross-module static analysis of the write-path protocol.

The lease-guarded write pipeline (DESIGN.md §10) rests on a discipline
that file-local lint rules cannot see: every mutation of replicated
file state must be *dominated* by a lease/epoch fence, and an RPC
handler may acknowledge an append only after the ledger write it
acknowledges.  ``protocheck`` rebuilds that discipline as a
call/effect graph over ``repro.fs`` and ``repro.core``:

1.  **Index** every function/method by AST: which epoch-fenced
    attributes it mutates (``epoch``, ``ledger``, ``applied_ids``,
    ``acked_ids``, committed bytes, replica sets), where it fences
    (calls to ``_ensure_lease``/``validate`` or raises of the fencing
    exceptions), which local calls it makes, and which RPCs it sends
    (``fabric.invoke`` with a constant service/method).
2.  **Resolve** a call graph: ``self.method()`` through the class (and
    bases), bare names through the module, ``self.attr.method()``
    through constructor-assignment type inference, and RPC edges
    through the registered-service map (discovered from
    ``fabric.register`` calls, with a built-in default).
3.  **Traverse** from every RPC entry point (public methods of service
    classes, plus ``@protocheck.entrypoint``), propagating a
    *fenced* bit in source-line order.

Diagnostics
-----------
FENCE001
    Mutation of epoch-fenced state reachable from an RPC entry point
    with no dominating fence.  Fence evidence is a call whose terminal
    name is ``_ensure_lease``/``validate`` or a ``raise`` of
    ``StaleEpochError``/``LeaseExpiredError``/``NotPrimaryError`` on an
    earlier source line (a deliberate, documented approximation of
    dominance; see DESIGN.md §11).
FENCE002
    A local bound from a bare ``.epoch`` attribute read, carried across
    a ``yield`` (a simulation suspension point, where the lease can
    move), then passed to a call — the stale-epoch-capture bug shape.
PROTO001
    A handler that stores an acknowledgement into ``acked_ids`` on an
    earlier line than the ledger write it acknowledges (directly or via
    a callee that writes the ledger).

Escapes: the decorators in :mod:`repro.fs.annotations`
(``@protocheck.fenced`` / ``@protocheck.entrypoint`` /
``@protocheck.exempt``) and inline ``# protocheck: ignore[RULE]``
comments.  RPC edges never propagate the fenced bit — a fence on the
caller's node says nothing about the callee's — so every handler is
also analyzed as its own entry point.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.simlint import Finding, iter_python_files

# ----------------------------------------------------------------------
# Vocabulary
# ----------------------------------------------------------------------

PROTOCHECK_RULES: Dict[str, str] = {
    "FENCE001": (
        "mutation of epoch-fenced state reachable from an RPC entry point "
        "without a dominating lease/epoch fence"
    ),
    "FENCE002": (
        "epoch read into a local before a yield and used in a call after "
        "it (stale epoch capture)"
    ),
    "PROTO001": (
        "handler acknowledges an append (acked_ids store) before the "
        "ledger write it acknowledges"
    ),
}

#: Attributes of replicated file state whose mutation must be fenced.
FENCED_ATTRS = frozenset(
    {
        "epoch",
        "ledger",
        "applied_ids",
        "acked_ids",
        "size_bytes",
        "chunks",
        "payload",
    }
)

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

#: Calls whose terminal name is fence evidence (and whose bodies are
#: analyzed as fenced — they *are* the fence).
FENCE_CALL_NAMES = frozenset({"_ensure_lease", "validate"})

#: Raising one of these is fence evidence: the guard that raises is the
#: epoch/primaryship check itself.
FENCE_EXCEPTIONS = frozenset(
    {"StaleEpochError", "LeaseExpiredError", "NotPrimaryError"}
)

#: Fallback service -> class-name map used when no ``fabric.register``
#: call is visible in the analyzed sources (e.g. single-file runs).
DEFAULT_SERVICE_CLASSES: Dict[str, Tuple[str, ...]] = {
    "dataserver": ("Dataserver",),
    "nameserver": ("Nameserver", "ReplicatedNameserver"),
    "leases": ("LeaseManager",),
    "membership": ("MembershipTracker",),
    "flowserver": ("Flowserver",),
}

_ANNOTATION_NAMES = frozenset({"fenced", "entrypoint", "exempt"})

_SUPPRESS_RE = re.compile(r"#\s*protocheck:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")


def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Line -> suppressed protocheck rule ids (``None`` = all)."""
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
# Per-function effect summaries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Mutation:
    """One write to an epoch-fenced attribute."""

    attr: str
    line: int
    col: int
    #: True for stores (assignment/append/update...), False for
    #: removals (pop/clear/del) — acknowledgements are stores.
    store: bool


@dataclass(frozen=True)
class FenceSite:
    """One piece of fence evidence (a call or a raise)."""

    line: int
    kind: str


@dataclass(frozen=True)
class CallSite:
    """A locally-resolvable call edge candidate."""

    name: str
    #: "self" (method on own class), "module" (bare name), or the
    #: inferred class name for ``self.attr.method()`` receivers.
    receiver: str
    line: int


@dataclass(frozen=True)
class RpcSite:
    """A ``fabric.invoke`` edge with constant service/method."""

    service: Optional[str]
    method: Optional[str]
    line: int


@dataclass
class FuncInfo:
    """Static effect summary of one function or method."""

    module: str
    path: str
    cls: Optional[str]
    name: str
    lineno: int
    annotations: Set[str] = field(default_factory=set)
    mutations: List[Mutation] = field(default_factory=list)
    fences: List[FenceSite] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    rpcs: List[RpcSite] = field(default_factory=list)
    yield_lines: List[int] = field(default_factory=list)
    fence002: List[Tuple[int, int, str]] = field(default_factory=list)

    @property
    def qualname(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name

    @property
    def key(self) -> Tuple[str, Optional[str], str]:
        return (self.module, self.cls, self.name)

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")


def _terminal_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _decorator_annotation(dec: ast.expr) -> Optional[str]:
    """``@protocheck.fenced(...)`` / ``@annotations.exempt`` -> name."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    name = _terminal_name(target)
    if name not in _ANNOTATION_NAMES:
        return None
    if isinstance(target, ast.Attribute):
        root = _terminal_name(target.value)
        if root not in {"protocheck", "annotations"}:
            return None
    return name


class _EffectVisitor(ast.NodeVisitor):
    """Collect a :class:`FuncInfo` from one function's AST subtree.

    Nested ``def``/``lambda`` bodies are absorbed into the enclosing
    function's summary (a conservative approximation: the relay closure
    a handler spawns shares the handler's protocol obligations).
    """

    def __init__(self, info: FuncInfo, constants: Dict[str, str]) -> None:
        self.info = info
        self.constants = constants
        self._epoch_locals: Dict[str, int] = {}

    # -- mutations ----------------------------------------------------

    def _fenced_attr_of_target(self, target: ast.expr) -> Optional[ast.Attribute]:
        if isinstance(target, ast.Attribute) and target.attr in FENCED_ATTRS:
            return target
        if isinstance(target, ast.Subscript):
            value = target.value
            if isinstance(value, ast.Attribute) and value.attr in FENCED_ATTRS:
                return value
        return None

    def _record_target(self, target: ast.expr, store: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, store)
            return
        attr = self._fenced_attr_of_target(target)
        if attr is not None:
            self.info.mutations.append(
                Mutation(attr.attr, target.lineno, target.col_offset, store)
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, store=True)
        self._record_replica_set_write(node.value)
        # FENCE002 seed: ``local = <obj>.epoch``
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "epoch"
        ):
            self._epoch_locals[node.targets[0].id] = node.lineno
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node.target, store=True)
            self._record_replica_set_write(node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, store=True)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_target(target, store=False)
        self.generic_visit(node)

    def _record_replica_set_write(self, value: ast.expr) -> None:
        """``x.metadata = replace(..., replicas=...)`` mutates the
        replica set even though ``metadata`` itself is immutable."""
        if not isinstance(value, ast.Call):
            return
        if _terminal_name(value.func) != "replace":
            return
        for kw in value.keywords:
            if kw.arg == "replicas":
                self.info.mutations.append(
                    Mutation("replicas", value.lineno, value.col_offset, True)
                )
                return

    # -- calls, fences, RPCs ------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = _terminal_name(func)
        if name is not None:
            # Mutating method on a fenced attribute: stored.ledger.append(...)
            if name in _MUTATING_METHODS and isinstance(func, ast.Attribute):
                receiver = func.value
                if (
                    isinstance(receiver, ast.Attribute)
                    and receiver.attr in FENCED_ATTRS
                ):
                    store = name not in {"pop", "popitem", "remove", "clear", "discard"}
                    self.info.mutations.append(
                        Mutation(receiver.attr, node.lineno, node.col_offset, store)
                    )
            if name in FENCE_CALL_NAMES:
                self.info.fences.append(FenceSite(node.lineno, f"call:{name}"))
            if name == "invoke":
                self.info.rpcs.append(self._rpc_site(node))
            edge = self._call_edge(func, name, node.lineno)
            if edge is not None:
                self.info.calls.append(edge)
            # FENCE002 use: an epoch-local passed to a call after a yield
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name) and arg.id in self._epoch_locals:
                    bound = self._epoch_locals[arg.id]
                    if any(bound < y < node.lineno + 1 for y in self.info.yield_lines):
                        self.info.fence002.append(
                            (node.lineno, node.col_offset, arg.id)
                        )
        self.generic_visit(node)

    def _call_edge(
        self, func: ast.expr, name: str, line: int
    ) -> Optional[CallSite]:
        if isinstance(func, ast.Name):
            return CallSite(name, "module", line)
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id == "self":
                return CallSite(name, "self", line)
            # self.<attr>.<method>() — resolved later via constructor
            # type inference; record the attribute path.
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                return CallSite(name, f"attr:{value.attr}", line)
        return None

    def _rpc_site(self, node: ast.Call) -> RpcSite:
        def const(i: int) -> Optional[str]:
            if i >= len(node.args):
                return None
            arg = node.args[i]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
            if isinstance(arg, ast.Name):
                return self.constants.get(arg.id)
            return None

        # fabric.invoke(src, dst, service, method, *args)
        return RpcSite(const(2), const(3), node.lineno)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        name = _terminal_name(target) if target is not None else None
        if name in FENCE_EXCEPTIONS:
            self.info.fences.append(FenceSite(node.lineno, f"raise:{name}"))
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        self.info.yield_lines.append(node.lineno)
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.info.yield_lines.append(node.lineno)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Module indexing
# ----------------------------------------------------------------------


@dataclass
class ModuleIndex:
    """Everything protocheck extracted from one source file."""

    module: str
    path: str
    functions: Dict[Tuple[Optional[str], str], FuncInfo]
    class_bases: Dict[str, List[str]]
    attr_types: Dict[str, Dict[str, str]]
    constants: Dict[str, str]
    suppressions: Dict[int, Optional[Set[str]]]
    #: ``(service, class)`` pairs resolved from ``fabric.register`` calls.
    registers: List[Tuple[str, str]]


def _module_name(path: str) -> str:
    parts = Path(path).with_suffix("").parts
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    name = ".".join(parts)
    return name[: -len(".__init__")] if name.endswith(".__init__") else name


def _index_module(path: str, source: str) -> Optional[ModuleIndex]:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return None
    constants: Dict[str, str] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            constants[node.targets[0].id] = node.value.value

    module = _module_name(path)
    functions: Dict[Tuple[Optional[str], str], FuncInfo] = {}
    class_bases: Dict[str, List[str]] = {}
    attr_types: Dict[str, Dict[str, str]] = {}

    def add_function(
        node: ast.AST, cls: Optional[str]
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        info = FuncInfo(
            module=module,
            path=path,
            cls=cls,
            name=node.name,
            lineno=node.lineno,
        )
        for dec in node.decorator_list:
            annotation = _decorator_annotation(dec)
            if annotation is not None:
                info.annotations.add(annotation)
        visitor = _EffectVisitor(info, constants)
        # Yields must be known before call uses are classified for
        # FENCE002, so pre-scan them.
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                info.yield_lines.append(sub.lineno)
        for stmt in node.body:
            visitor.visit(stmt)
        info.yield_lines = sorted(set(info.yield_lines))
        functions[(cls, node.name)] = info

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, None)
        elif isinstance(node, ast.ClassDef):
            bases = [b for b in (_terminal_name(e) for e in node.bases) if b]
            class_bases[node.name] = bases
            attr_types[node.name] = {}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_function(item, node.name)
                    # constructor-assignment type inference:
                    #   self.attr = ClassName(...)
                    for sub in ast.walk(item):
                        if not isinstance(sub, ast.Assign):
                            continue
                        if not isinstance(sub.value, ast.Call):
                            continue
                        ctor = sub.value.func
                        if not isinstance(ctor, ast.Name):
                            continue
                        for target in sub.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                attr_types[node.name][target.attr] = ctor.id

    # Resolve ``*.register(endpoint, service, handler)`` calls to
    # (service, class) pairs: the handler is either a direct
    # constructor call, a ``self.attr`` assigned from a constructor
    # somewhere in the module, or a local name assigned likewise.
    var_types: Dict[str, str] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    var_types[target.id] = node.value.func.id

    registers: List[Tuple[str, str]] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and _terminal_name(node.func) == "register"
            and len(node.args) >= 3
        ):
            continue
        service_arg = node.args[1]
        if isinstance(service_arg, ast.Constant) and isinstance(
            service_arg.value, str
        ):
            service = service_arg.value
        elif isinstance(service_arg, ast.Name):
            service = constants.get(service_arg.id, "")
        else:
            continue
        if not service:
            continue
        handler = node.args[2]
        cls: Optional[str] = None
        if isinstance(handler, ast.Call) and isinstance(handler.func, ast.Name):
            cls = handler.func.id
        elif isinstance(handler, ast.Name):
            cls = var_types.get(handler.id)
        elif (
            isinstance(handler, ast.Attribute)
            and isinstance(handler.value, ast.Name)
            and handler.value.id == "self"
        ):
            for attrs in attr_types.values():
                if handler.attr in attrs:
                    cls = attrs[handler.attr]
                    break
        if cls is not None:
            registers.append((service, cls))

    return ModuleIndex(
        module=module,
        path=path,
        functions=functions,
        class_bases=class_bases,
        attr_types=attr_types,
        constants=constants,
        suppressions=_suppressions(source),
        registers=registers,
    )


# ----------------------------------------------------------------------
# Program-level graph and traversal
# ----------------------------------------------------------------------


class ProtocolGraph:
    """The resolved cross-module call/effect graph."""

    def __init__(self, modules: List[ModuleIndex]) -> None:
        self.modules = modules
        self.by_path: Dict[str, ModuleIndex] = {m.path: m for m in modules}
        # class name -> {method name -> FuncInfo}; class names are
        # treated as program-unique (true for this codebase, and the
        # worst case of a collision is an extra conservative edge).
        self.class_methods: Dict[str, Dict[str, FuncInfo]] = {}
        self.class_bases: Dict[str, List[str]] = {}
        self.attr_types: Dict[str, Dict[str, str]] = {}
        self.module_funcs: Dict[str, Dict[str, FuncInfo]] = {}
        for mod in modules:
            self.module_funcs.setdefault(mod.module, {})
            for (cls, name), info in mod.functions.items():
                if cls is None:
                    self.module_funcs[mod.module][name] = info
                else:
                    self.class_methods.setdefault(cls, {})[name] = info
            self.class_bases.update(mod.class_bases)
            for cls, attrs in mod.attr_types.items():
                self.attr_types.setdefault(cls, {}).update(attrs)
        self.services = self._discover_services()

    # -- service discovery --------------------------------------------

    def _discover_services(self) -> Dict[str, Tuple[str, ...]]:
        """Service name -> implementing classes.

        ``fabric.register`` calls found at index time extend the
        built-in default map; only classes actually present in the
        analyzed sources are kept.
        """
        services = {k: tuple(sorted(v)) for k, v in DEFAULT_SERVICE_CLASSES.items()}
        discovered: Dict[str, Set[str]] = {}
        for mod in self.modules:
            for service, cls in mod.registers:
                if cls in self.class_methods:
                    discovered.setdefault(service, set()).add(cls)
        for name, classes in discovered.items():
            merged = set(services.get(name, ())) | classes
            services[name] = tuple(sorted(merged))
        return services

    # -- resolution ----------------------------------------------------

    def _method_on(self, cls: str, name: str) -> Optional[FuncInfo]:
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.class_methods.get(current, {}).get(name)
            if info is not None:
                return info
            queue.extend(self.class_bases.get(current, []))
        return None

    def resolve(self, caller: FuncInfo, call: CallSite) -> Optional[FuncInfo]:
        if call.receiver == "self" and caller.cls is not None:
            return self._method_on(caller.cls, call.name)
        if call.receiver == "module":
            return self.module_funcs.get(caller.module, {}).get(call.name)
        if call.receiver.startswith("attr:") and caller.cls is not None:
            attr = call.receiver[len("attr:") :]
            cls = self.attr_types.get(caller.cls, {}).get(attr)
            if cls is not None:
                return self._method_on(cls, call.name)
        return None

    # -- entry points ---------------------------------------------------

    def entry_points(self) -> List[FuncInfo]:
        service_classes: Set[str] = set()
        for classes in self.services.values():
            service_classes.update(classes)
        entries: List[FuncInfo] = []
        for cls in sorted(service_classes):
            for name, info in sorted(self.class_methods.get(cls, {}).items()):
                if "exempt" in info.annotations:
                    continue
                if info.is_public or "entrypoint" in info.annotations:
                    entries.append(info)
        for mod in self.modules:
            for info in mod.functions.values():
                if "entrypoint" in info.annotations and info not in entries:
                    entries.append(info)
        return entries

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        """The effect graph as a JSON-able dict (CLI ``--dump-graph``)."""
        functions = {}
        for cls, methods in sorted(self.class_methods.items()):
            for name, info in sorted(methods.items()):
                functions[f"{cls}.{name}"] = _func_json(info)
        for module, funcs in sorted(self.module_funcs.items()):
            for name, info in sorted(funcs.items()):
                functions[f"{module}.{name}"] = _func_json(info)
        return {
            "services": {k: list(v) for k, v in sorted(self.services.items())},
            "entrypoints": [e.qualname for e in self.entry_points()],
            "functions": functions,
        }


def _func_json(info: FuncInfo) -> dict:
    return {
        "module": info.module,
        "line": info.lineno,
        "annotations": sorted(info.annotations),
        "mutations": [
            {"attr": m.attr, "line": m.line, "store": m.store}
            for m in info.mutations
        ],
        "fences": [{"line": f.line, "kind": f.kind} for f in info.fences],
        "calls": [
            {"name": c.name, "receiver": c.receiver, "line": c.line}
            for c in info.calls
        ],
        "rpcs": [
            {"service": r.service, "method": r.method, "line": r.line}
            for r in info.rpcs
        ],
    }


# ----------------------------------------------------------------------
# Checkers
# ----------------------------------------------------------------------


class _Checker:
    def __init__(self, graph: ProtocolGraph) -> None:
        self.graph = graph
        self.findings: Dict[Tuple[str, str, int, int], Finding] = {}

    def run(self) -> List[Finding]:
        for entry in self.graph.entry_points():
            fenced = (
                "fenced" in entry.annotations
                or entry.name in FENCE_CALL_NAMES
            )
            self._walk(entry, fenced, entry.qualname, set())
        for mod in self.graph.modules:
            for info in mod.functions.values():
                if "exempt" in info.annotations:
                    continue
                self._check_fence002(info)
                self._check_proto001(info)
        return self._filtered()

    # FENCE001 ---------------------------------------------------------

    def _walk(
        self,
        info: FuncInfo,
        fenced: bool,
        entry: str,
        visited: Set[Tuple[Tuple[str, Optional[str], str], bool]],
    ) -> None:
        state = (info.key, fenced)
        if state in visited:
            return
        visited.add(state)
        if "exempt" in info.annotations:
            return
        if "fenced" in info.annotations or info.name in FENCE_CALL_NAMES:
            fenced = True
        fence_lines = sorted(f.line for f in info.fences)

        def fenced_at(line: int) -> bool:
            return fenced or any(fl <= line for fl in fence_lines)

        if not fenced:
            for mutation in info.mutations:
                if fenced_at(mutation.line):
                    continue
                self._report(
                    "FENCE001",
                    info.path,
                    mutation.line,
                    mutation.col,
                    f"unfenced mutation of {mutation.attr!r} in "
                    f"{info.qualname} (reachable from RPC entry point "
                    f"{entry}); dominate it with _ensure_lease/validate "
                    f"or annotate @protocheck.fenced with a reason",
                )
        for call in info.calls:
            callee = self.graph.resolve(info, call)
            if callee is not None:
                self._walk(callee, fenced_at(call.line), entry, visited)

    # FENCE002 ---------------------------------------------------------

    def _check_fence002(self, info: FuncInfo) -> None:
        for line, col, local in info.fence002:
            self._report(
                "FENCE002",
                info.path,
                line,
                col,
                f"local {local!r} was bound from .epoch before a yield and "
                f"is used in a call here ({info.qualname}); the lease may "
                f"have moved while suspended — re-read or re-validate the "
                f"epoch after resuming",
            )

    # PROTO001 ---------------------------------------------------------

    def _writes_ledger(
        self, info: FuncInfo, seen: Set[Tuple[str, Optional[str], str]]
    ) -> bool:
        if info.key in seen:
            return False
        seen.add(info.key)
        if any(m.attr == "ledger" and m.store for m in info.mutations):
            return True
        for call in info.calls:
            callee = self.graph.resolve(info, call)
            if callee is not None and self._writes_ledger(callee, seen):
                return True
        return False

    def _check_proto001(self, info: FuncInfo) -> None:
        acks = [m for m in info.mutations if m.attr == "acked_ids" and m.store]
        if not acks:
            return
        ledger_lines = [
            m.line for m in info.mutations if m.attr == "ledger" and m.store
        ]
        for call in info.calls:
            callee = self.graph.resolve(info, call)
            if callee is not None and self._writes_ledger(callee, set()):
                ledger_lines.append(call.line)
        if not ledger_lines:
            return
        first_write = min(ledger_lines)
        for ack in acks:
            if ack.line < first_write:
                self._report(
                    "PROTO001",
                    info.path,
                    ack.line,
                    ack.col,
                    f"{info.qualname} acknowledges the append here but the "
                    f"ledger write it acknowledges happens later (line "
                    f"{first_write}); ack only after the write is durable "
                    f"on every replica",
                )

    # plumbing ---------------------------------------------------------

    def _report(
        self, rule: str, path: str, line: int, col: int, message: str
    ) -> None:
        key = (rule, path, line, col)
        if key not in self.findings:
            self.findings[key] = Finding(rule, path, line, col, message)

    def _filtered(self) -> List[Finding]:
        result = []
        for finding in self.findings.values():
            mod = self.graph.by_path.get(finding.path)
            if mod is not None:
                suppressed = mod.suppressions.get(finding.line)
                if suppressed is None and finding.line in mod.suppressions:
                    continue
                if suppressed is not None and finding.rule in suppressed:
                    continue
            result.append(finding)
        return sorted(result, key=lambda f: (f.path, f.line, f.col, f.rule))


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def build_graph(sources: Dict[str, str]) -> ProtocolGraph:
    """Index ``{path: source}`` into a resolved protocol graph."""
    modules = []
    for path in sorted(sources):
        index = _index_module(path, sources[path])
        if index is not None:
            modules.append(index)
    return ProtocolGraph(modules)


def analyze_sources(
    sources: Dict[str, str], select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run every protocheck rule over in-memory sources."""
    findings = _Checker(build_graph(sources)).run()
    if select is not None:
        wanted = set(select)
        findings = [f for f in findings if f.rule in wanted]
    return findings


def load_sources(paths: Sequence[Path]) -> Dict[str, str]:
    """Read every Python file under ``paths`` into a source map."""
    sources: Dict[str, str] = {}
    for file_path in iter_python_files(paths):
        try:
            sources[str(file_path)] = file_path.read_text()
        except OSError:
            continue
    return sources


__all__ = [
    "FENCED_ATTRS",
    "FENCE_CALL_NAMES",
    "FENCE_EXCEPTIONS",
    "PROTOCHECK_RULES",
    "Finding",
    "ProtocolGraph",
    "analyze_sources",
    "build_graph",
    "load_sources",
]
