"""Whole-program concurrency analysis: REP012-REP015.

PR 8 made the reproduction a long-lived threaded service; these rules
make its concurrency discipline *statically* checkable instead of
relying on chaos tests to hit the right interleavings.  The analysis
runs over a :class:`ConcurrencyModel` built from one or many
:class:`~repro.analysis.visitor.ModuleContext` objects:

**Thread roots.**  Entry points that run concurrently with the main
thread: ``threading.Thread(target=...)`` targets, request-handler
methods of ``*RequestHandler`` subclasses (``ThreadingHTTPServer``
spawns one thread per request), registered ``signal.signal`` handlers,
and the follow-daemon/watcher loops in ``repro.ingest``.  A root is
*multi* when many instances run at once (request handlers; thread
targets spawned inside a loop) -- only those make unsynchronised
read-modify-writes racy on their own.

**Lock regions.**  Attributes and module globals bound to
``threading.Lock/RLock/Condition`` are lock identities
(``TenantRegistry._lock``); ``with`` blocks over them (including
aliases: ``lk = self._lock`` and ``self._alias = self._lock``) define
held-lock regions, tracked per statement.

The rules:

========  =============================================================
REP012    shared-state write outside any lock region: an attribute
          written with a lock held elsewhere in the module but bare
          here ("inconsistently guarded"), an unguarded augmented
          assignment (read-modify-write) reachable from a multi root,
          or a method dispatched on an element of a ``self`` container
          (``for layer in self.layers: layer.forward(x)``) from a
          multi-root path that writes attributes of that element
REP013    lock-order cycle: ``with A: ... with B:`` in one code path
          and the reverse nesting in another (including acquisitions
          reached through calls made while holding a lock)
REP014    blocking call while holding a lock: ``fsync``, ``sleep``,
          socket/subprocess ops, ``Event.wait``/``join`` (waiting on
          the *held* Condition is exempt -- ``wait`` releases it), and
          fsynced journal appends
REP015    non-signal-safe work in a registered signal handler --
          anything beyond flag/attribute assignment, ``Event.set()``
          and ``os.write``
========  =============================================================

REP012/REP014 are scoped to the threaded subsystems (``serve``,
``ingest``, ``supervisor`` module tags, plus any module that spawns
its own roots); REP013 cycles and REP015 handlers are reported
wherever they occur, and so are REP012's container dispatches: the
objects a shared object holds are shared too, whichever module
defines them, and reachability from a multi root is the evidence.
In a full ``repro lint`` run the engine builds one model over every
library module so closures cross file boundaries
(:mod:`repro.analysis.callgraph`); ``analyze_source`` fixtures get a
single-module model through the normal rule hooks, same semantics.
Policy: REP013 findings are never baselined -- a lock cycle is a
latent deadlock with no acceptable legacy state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.callgraph import CallGraph, FunctionInfo, own_nodes
from repro.analysis.registry import ROLE_LIBRARY, Rule, register
from repro.analysis.visitor import ModuleContext

#: Rule codes computed by the cross-module project pass in
#: :func:`repro.analysis.engine.analyze_paths` (and excluded from the
#: per-file worker pass there, so findings are not duplicated).
PROJECT_RULE_CODES = frozenset({"REP012", "REP013", "REP014", "REP015"})

#: Callables whose result is a lock identity.
_LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
})

#: Module-name fragments marking the threaded subsystems REP012/REP014
#: police.  Modules that spawn their own thread roots are always in
#: scope; everything else (single-threaded core code) is not.
_MODULE_TAGS = ("serve", "ingest", "handler", "watch", "supervisor")

#: Fully-resolved call targets that block (REP014).
_BLOCKING_TARGETS = frozenset({"os.fsync", "time.sleep", "select.select"})
_BLOCKING_PREFIXES = ("subprocess.", "socket.")

#: Method names that block regardless of receiver type.
_BLOCKING_ATTRS = frozenset({
    "fsync", "sleep", "communicate", "accept", "recv", "recvfrom",
    "sendall", "connect",
})

#: Waits: blocking unless the receiver is the lock being held
#: (``Condition.wait`` atomically releases it).
_WAIT_ATTRS = frozenset({"wait", "join"})

#: Journal append methods (fsync per append -- see REP006's list) plus
#: anything whose dotted path mentions the journal.
_JOURNAL_ATTRS = frozenset({
    "fsync_append_line", "record_quality", "record_skip", "record_failure",
})

#: Request-handler method names that run on per-request threads.
_HANDLER_METHOD_NAMES = frozenset({"handle", "handle_one_request", "setup", "finish"})

#: Constructors never race: the object is not yet published.
_CONSTRUCTOR_NAMES = frozenset({"__init__", "__post_init__", "__new__"})

#: Statement types a signal handler may contain (REP015).
_SIGNAL_SAFE_STMTS = (
    ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr, ast.Return,
    ast.Pass, ast.If, ast.Nonlocal, ast.Global,
)


@dataclass(frozen=True)
class ThreadRoot:
    """One discovered concurrent entry point."""

    qualname: str
    kind: str  # "thread" | "handler" | "signal" | "daemon"
    multi: bool
    path: str
    line: int

    def to_dict(self) -> dict:
        return {
            "function": self.qualname,
            "kind": self.kind,
            "multi": self.multi,
            "path": self.path,
            "line": self.line,
        }


@dataclass
class _CallFacts:
    node: ast.Call
    held: tuple[str, ...]
    dotted: str | None
    resolved: str | None
    attr: str | None
    receiver_lock: str | None
    callees: tuple[str, ...]
    #: Receiver is an element of a container held by ``self``.
    dispatched: bool = False


@dataclass
class _WriteFacts:
    attr: str
    node: ast.AST
    held: tuple[str, ...]
    augmented: bool
    owner: str


@dataclass
class _Acquire:
    lock: str
    held: tuple[str, ...]
    node: ast.AST


@dataclass
class _FunctionFacts:
    info: FunctionInfo
    acquires: list
    calls: list
    writes: list


@dataclass(frozen=True)
class Finding:
    """One concurrency finding, carrying the node for reporting."""

    code: str
    ctx: ModuleContext
    node: ast.AST
    message: str


class ConcurrencyModel:
    """Thread roots, lock regions, and the four rule checks over them."""

    def __init__(self, contexts: list[ModuleContext]) -> None:
        self.contexts = list(contexts)
        self.graph = CallGraph.from_modules(self.contexts)
        self._class_locks: dict[tuple[str, str], dict[str, str]] = {}
        self._module_locks: dict[str, dict[str, str]] = {}
        self._discover_locks()
        self._facts: dict[str, _FunctionFacts] = {}
        for qualname, info in self.graph.functions.items():
            self._facts[qualname] = self._scan_function(info)
        self.roots: list[ThreadRoot] = []
        self._signal_registrations: list[tuple[str, ast.AST]] = []
        self._discover_roots()
        self.concurrent = self.graph.closure(root.qualname for root in self.roots)
        self.hot = self.graph.closure(
            root.qualname for root in self.roots if root.multi
        )
        self._lock_edges: dict[tuple[str, str], tuple[str, int]] = {}
        self._lock_cycles: list[tuple[str, ...]] = []
        self.findings: list[Finding] = []
        self._check_rep012()
        self._check_rep013()
        self._check_rep014()
        self._check_rep015()
        self.findings.sort(
            key=lambda f: (f.ctx.path, getattr(f.node, "lineno", 0), f.code)
        )

    # ------------------------------------------------------------------
    # scope

    def _module_key(self, ctx: ModuleContext) -> str:
        return ctx.module or ctx.path

    def _in_scope(self, module: str, ctx: ModuleContext) -> bool:
        if ctx.module is None:
            return True
        if any(tag in ctx.module for tag in _MODULE_TAGS):
            return True
        return any(
            self.graph.functions[root.qualname].module == module
            for root in self.roots
        )

    # ------------------------------------------------------------------
    # lock discovery

    def _lock_value(self, ctx: ModuleContext, value: ast.AST) -> bool:
        return (
            isinstance(value, ast.Call)
            and ctx.resolve_call_target(value.func) in _LOCK_FACTORIES
        )

    def _discover_locks(self) -> None:
        for ctx in self.contexts:
            module = self._module_key(ctx)
            short = module.rsplit(".", 1)[-1]
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                if not self._lock_value(ctx, node.value):
                    continue
                target = node.targets[0]
                if isinstance(target, ast.Name) and ctx.at_module_scope(node):
                    self._module_locks.setdefault(module, {})[target.id] = (
                        f"{short}.{target.id}"
                    )
                elif isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ) and target.value.id == "self":
                    cls = self._enclosing_class(ctx, node)
                    if cls is not None:
                        self._class_locks.setdefault((module, cls), {})[
                            target.attr
                        ] = f"{cls}.{target.attr}"
                elif isinstance(target, ast.Name):
                    cls = self._enclosing_class(ctx, node)
                    if cls is not None and self._direct_class_body(ctx, node):
                        self._class_locks.setdefault((module, cls), {})[
                            target.id
                        ] = f"{cls}.{target.id}"
        # Alias pass: ``self._alias = self._lock`` binds the *same* lock
        # object, so the alias shares the original identity.
        for _ in range(3):
            changed = False
            for ctx in self.contexts:
                module = self._module_key(ctx)
                for node in ast.walk(ctx.tree):
                    if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                        continue
                    target = node.targets[0]
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    cls = self._enclosing_class(ctx, node)
                    if cls is None:
                        continue
                    table = self._class_locks.setdefault((module, cls), {})
                    if target.attr in table:
                        continue
                    source = self._lock_for_expr(node.value, module, cls, {})
                    if source is not None:
                        table[target.attr] = source
                        changed = True
            if not changed:
                break

    def _enclosing_class(self, ctx: ModuleContext, node: ast.AST) -> str | None:
        current = ctx.parent(node)
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return current.name
            current = ctx.parent(current)
        return None

    def _direct_class_body(self, ctx: ModuleContext, node: ast.AST) -> bool:
        return isinstance(ctx.parent(node), ast.ClassDef)

    def _lock_for_expr(
        self,
        expr: ast.AST,
        module: str,
        cls: str | None,
        local_aliases: dict[str, str],
    ) -> str | None:
        """Lock identity of an expression, or None."""
        if isinstance(expr, ast.Name):
            alias = local_aliases.get(expr.id)
            if alias is not None:
                return alias
            module_table = self._module_locks.get(module, {})
            if expr.id in module_table:
                return module_table[expr.id]
            if cls is not None:
                return self._class_locks.get((module, cls), {}).get(expr.id)
            return None
        if not isinstance(expr, ast.Attribute):
            return None
        attr = expr.attr
        receiver = expr.value
        if (
            isinstance(receiver, ast.Name)
            and receiver.id in ("self", "cls")
            and cls is not None
        ):
            found = self._class_locks.get((module, cls), {}).get(attr)
            if found is not None:
                return found
        # Untyped receiver: unique match across every analysed class.
        matches = {
            table[attr]
            for table in self._class_locks.values()
            if attr in table
        }
        if len(matches) == 1:
            return next(iter(matches))
        return None

    # ------------------------------------------------------------------
    # per-function facts (held-lock regions)

    def _scan_function(self, info: FunctionInfo) -> _FunctionFacts:
        module, cls = info.module, info.cls
        facts = _FunctionFacts(info=info, acquires=[], calls=[], writes=[])
        local_aliases: dict[str, str] = {}
        for node in own_nodes(info.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                lock = self._lock_for_expr(node.value, module, cls, {})
                if lock is not None:
                    local_aliases[node.targets[0].id] = lock
        elements = _container_element_names(info.node)
        held: list[str] = []

        def record_call(node: ast.Call) -> None:
            func = node.func
            dotted = info.ctx.dotted_name(func)
            resolved = info.ctx.resolve_call_target(func)
            attr = func.attr if isinstance(func, ast.Attribute) else None
            receiver_lock = (
                self._lock_for_expr(func.value, module, cls, local_aliases)
                if isinstance(func, ast.Attribute)
                else None
            )
            facts.calls.append(
                _CallFacts(
                    node=node,
                    held=tuple(held),
                    dotted=dotted,
                    resolved=resolved,
                    attr=attr,
                    receiver_lock=receiver_lock,
                    callees=tuple(sorted(self.graph.resolve_target(info, func))),
                    dispatched=isinstance(func, ast.Attribute)
                    and _is_container_element(func.value, elements),
                )
            )

        def record_write(target: ast.AST, augmented: bool) -> None:
            if isinstance(target, ast.Attribute):
                facts.writes.append(
                    _WriteFacts(
                        attr=target.attr,
                        node=target,
                        held=tuple(held),
                        augmented=augmented,
                        owner=info.qualname,
                    )
                )
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    record_write(element, augmented)

        def walk(node: ast.AST) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                return
            if isinstance(node, ast.With):
                acquired: list[str] = []
                for item in node.items:
                    lock = self._lock_for_expr(
                        item.context_expr, module, cls, local_aliases
                    )
                    if lock is not None:
                        facts.acquires.append(
                            _Acquire(lock=lock, held=tuple(held), node=item.context_expr)
                        )
                        if lock not in held:
                            held.append(lock)
                            acquired.append(lock)
                    else:
                        walk(item.context_expr)
                for stmt in node.body:
                    walk(stmt)
                for lock in acquired:
                    held.remove(lock)
                return
            if isinstance(node, ast.Call):
                record_call(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    record_write(target, augmented=False)
            elif isinstance(node, ast.AugAssign):
                record_write(node.target, augmented=True)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                record_write(node.target, augmented=False)
            for child in ast.iter_child_nodes(node):
                walk(child)

        for stmt in info.node.body:
            walk(stmt)
        return facts

    # ------------------------------------------------------------------
    # thread roots

    def _discover_roots(self) -> None:
        seen: set[tuple[str, str]] = set()

        def add(qualname: str, kind: str, multi: bool, ctx: ModuleContext,
                node: ast.AST) -> None:
            if qualname not in self.graph.functions:
                return
            key = (qualname, kind)
            if key in seen:
                return
            seen.add(key)
            self.roots.append(
                ThreadRoot(
                    qualname=qualname,
                    kind=kind,
                    multi=multi,
                    path=ctx.path,
                    line=getattr(node, "lineno", 1),
                )
            )

        for facts in self._facts.values():
            info = facts.info
            for call in facts.calls:
                if call.resolved == "threading.Thread":
                    target = self._thread_target(call.node)
                    if target is None:
                        continue
                    multi = self._inside_loop(info.ctx, call.node)
                    for qualname in self.graph.resolve_target(
                        info, target, generic_cut=False
                    ):
                        add(qualname, "thread", multi, info.ctx, call.node)
                elif call.resolved == "signal.signal" and len(call.node.args) >= 2:
                    handler = call.node.args[1]
                    targets = self.graph.resolve_target(
                        info, handler, generic_cut=False
                    )
                    for qualname in targets:
                        add(qualname, "signal", False, info.ctx, call.node)
                        self._signal_registrations.append((qualname, call.node))
        for (module, cls_name), class_node in self.graph.classes():
            ctx = self._context_for_module(module)
            if ctx is None:
                continue
            if self._is_handler_class(ctx, class_node):
                for method in self._class_method_names(module, cls_name):
                    if method.startswith("do_") or method in _HANDLER_METHOD_NAMES:
                        qualname = self.graph.method(module, cls_name, method)
                        if qualname is not None:
                            add(qualname, "handler", True, ctx, class_node)
            elif (
                ctx.module is not None
                and "ingest" in ctx.module
                and (cls_name.endswith("Daemon") or cls_name.endswith("Watcher"))
            ):
                qualname = self.graph.method(module, cls_name, "run")
                if qualname is not None:
                    add(qualname, "daemon", False, ctx, class_node)
        self.roots.sort(key=lambda root: (root.path, root.line, root.qualname))

    def _context_for_module(self, module: str) -> ModuleContext | None:
        for ctx in self.contexts:
            if self._module_key(ctx) == module:
                return ctx
        return None

    def _class_method_names(self, module: str, cls_name: str) -> list[str]:
        return sorted(
            info.name
            for info in self.graph.functions.values()
            if info.module == module and info.cls == cls_name
        )

    @staticmethod
    def _thread_target(node: ast.Call) -> ast.AST | None:
        for keyword in node.keywords:
            if keyword.arg == "target":
                return keyword.value
        if len(node.args) >= 2:
            return node.args[1]
        return None

    @staticmethod
    def _is_handler_class(ctx: ModuleContext, node: ast.ClassDef) -> bool:
        for base in node.bases:
            dotted = ctx.dotted_name(base) or ""
            if "RequestHandler" in dotted.rpartition(".")[2]:
                return True
        return False

    def _inside_loop(self, ctx: ModuleContext, node: ast.AST) -> bool:
        current = ctx.parent(node)
        while current is not None and not isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            if isinstance(
                current,
                (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
                 ast.GeneratorExp),
            ):
                return True
            current = ctx.parent(current)
        return False

    # ------------------------------------------------------------------
    # REP012: unguarded shared-state writes

    def _check_rep012(self) -> None:
        by_module: dict[str, list[_FunctionFacts]] = {}
        for facts in self._facts.values():
            by_module.setdefault(facts.info.module, []).append(facts)
        for ctx in self.contexts:
            module = self._module_key(ctx)
            if not self._in_scope(module, ctx):
                continue
            module_facts = by_module.get(module, ())
            guarded = {
                write.attr
                for facts in module_facts
                for write in facts.writes
                if write.held
            }
            for facts in module_facts:
                if facts.info.name in _CONSTRUCTOR_NAMES:
                    continue
                for write in facts.writes:
                    if write.held:
                        continue
                    if write.augmented and write.owner in self.hot:
                        self.findings.append(
                            Finding(
                                "REP012",
                                ctx,
                                write.node,
                                f"unguarded read-modify-write of attribute "
                                f"{write.attr!r} on a code path that concurrent "
                                f"threads execute; increments outside a lock "
                                f"lose updates",
                            )
                        )
                    elif write.attr in guarded and write.owner in self.concurrent:
                        self.findings.append(
                            Finding(
                                "REP012",
                                ctx,
                                write.node,
                                f"inconsistently guarded write: attribute "
                                f"{write.attr!r} is written under a lock "
                                f"elsewhere in this module but bare here, on a "
                                f"thread-reachable path",
                            )
                        )
        self._check_rep012_dispatch()

    def _check_rep012_dispatch(self) -> None:
        """Dispatches on elements of ``self`` containers that write them.

        ``for layer in self.layers: layer.forward(x)`` on a multi-root
        path runs the element's method on every request thread at once;
        an attribute it writes on ``self`` (the element) is written by
        all of them.  Reported at the dispatching call, naming the
        writes, so a suppression there covers one audited call site.
        """
        for facts in self._facts.values():
            if facts.info.qualname not in self.hot:
                continue
            for call in facts.calls:
                if not call.dispatched or call.held:
                    continue
                writes = sorted(
                    f"{self.graph.functions[callee].cls}.{write.attr}"
                    for callee in call.callees
                    if self.graph.functions[callee].name not in _CONSTRUCTOR_NAMES
                    for write in self._facts[callee].writes
                    if not write.held and _is_self_attribute(write.node)
                )
                if writes:
                    self.findings.append(
                        Finding(
                            "REP012",
                            facts.info.ctx,
                            call.node,
                            f"container-dispatched call "
                            f"{call.dotted or call.attr!r} on a code path that "
                            f"concurrent threads execute reaches unguarded "
                            f"writes to {', '.join(dict.fromkeys(writes))}; "
                            f"the elements of a shared container are shared",
                        )
                    )

    # ------------------------------------------------------------------
    # REP013: lock-order cycles

    def _acquired_transitively(self) -> dict[str, set[str]]:
        direct = {
            qualname: {acquire.lock for acquire in facts.acquires}
            for qualname, facts in self._facts.items()
        }
        closure_cache: dict[str, set[str]] = {}

        def transitive(qualname: str) -> set[str]:
            cached = closure_cache.get(qualname)
            if cached is None:
                cached = set()
                for reached in self.graph.closure((qualname,)):
                    cached |= direct.get(reached, set())
                closure_cache[qualname] = cached
            return cached

        return {qualname: transitive(qualname) for qualname in self._facts}

    def _check_rep013(self) -> None:
        acquired = self._acquired_transitively()
        edges: dict[tuple[str, str], tuple[str, int]] = {}

        def add_edge(first: str, then: str, ctx: ModuleContext,
                     node: ast.AST) -> None:
            if first == then:
                return
            site = (ctx.path, getattr(node, "lineno", 1))
            current = edges.get((first, then))
            if current is None or site < current:
                edges[(first, then)] = site

        for facts in self._facts.values():
            ctx = facts.info.ctx
            for acquire in facts.acquires:
                for held in acquire.held:
                    add_edge(held, acquire.lock, ctx, acquire.node)
            for call in facts.calls:
                if not call.held or not call.callees:
                    continue
                downstream: set[str] = set()
                for callee in call.callees:
                    downstream |= acquired.get(callee, set())
                for held in call.held:
                    for lock in downstream:
                        add_edge(held, lock, ctx, call.node)
        self._lock_edges = edges
        adjacency: dict[str, set[str]] = {}
        for first, then in edges:
            adjacency.setdefault(first, set()).add(then)
        cycles = _find_cycles(adjacency)
        self._lock_cycles = cycles
        for cycle in cycles:
            closing = min(
                (edges[(a, b)], (a, b))
                for a, b in _cycle_edges(cycle)
                if (a, b) in edges
            )
            (path, line), _ = closing
            ctx = self._context_for_path(path)
            node = _LineMarker(line)
            rendering = " -> ".join(cycle + (cycle[0],))
            self.findings.append(
                Finding(
                    "REP013",
                    ctx,
                    node,
                    f"lock-order cycle: {rendering}; one code path acquires "
                    f"these locks in the opposite order of another, which can "
                    f"deadlock under contention",
                )
            )

    def _context_for_path(self, path: str) -> ModuleContext:
        for ctx in self.contexts:
            if ctx.path == path:
                return ctx
        return self.contexts[0]

    # ------------------------------------------------------------------
    # REP014: blocking calls under a lock

    def _blocking_reason(self, call: _CallFacts) -> str | None:
        resolved = call.resolved or ""
        dotted = call.dotted or ""
        attr = call.attr
        if resolved in _BLOCKING_TARGETS:
            return f"blocking call {resolved}()"
        if any(resolved.startswith(prefix) for prefix in _BLOCKING_PREFIXES):
            return f"blocking call {resolved}()"
        if attr in _BLOCKING_ATTRS:
            return f"blocking call .{attr}()"
        if attr in _WAIT_ATTRS:
            if call.receiver_lock is not None and call.receiver_lock in call.held:
                return None  # Condition.wait releases the held lock.
            return f"blocking .{attr}() on an object that is not the held lock"
        if attr in _JOURNAL_ATTRS or "journal" in dotted.lower():
            return "fsynced journal append"
        return None

    def _check_rep014(self) -> None:
        for facts in self._facts.values():
            ctx = facts.info.ctx
            module = facts.info.module
            if not self._in_scope(module, ctx):
                continue
            for call in facts.calls:
                if not call.held:
                    continue
                reason = self._blocking_reason(call)
                if reason is not None:
                    held = ", ".join(call.held)
                    self.findings.append(
                        Finding(
                            "REP014",
                            ctx,
                            call.node,
                            f"{reason} while holding {held}; every thread "
                            f"contending for the lock stalls behind this I/O",
                        )
                    )

    # ------------------------------------------------------------------
    # REP015: signal-handler safety

    def _check_rep015(self) -> None:
        checked: set[str] = set()
        for qualname, _registration in self._signal_registrations:
            if qualname in checked:
                continue
            checked.add(qualname)
            info = self.graph.functions[qualname]
            ctx = info.ctx
            for stmt in self._handler_statements(info.node):
                if not isinstance(stmt, _SIGNAL_SAFE_STMTS):
                    self.findings.append(
                        Finding(
                            "REP015",
                            ctx,
                            stmt,
                            f"{type(stmt).__name__} statement in signal handler "
                            f"{info.name!r}; handlers interleave with any "
                            f"bytecode -- restrict them to setting a flag, "
                            f"Event.set(), or os.write()",
                        )
                    )
            for node in own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                if self._signal_safe_call(ctx, node):
                    continue
                label = ctx.dotted_name(node.func) or "<call>"
                self.findings.append(
                    Finding(
                        "REP015",
                        ctx,
                        node,
                        f"call to {label}() in signal handler {info.name!r}; "
                        f"only Event.set()/flag assignment/os.write() are safe "
                        f"when the handler can interrupt arbitrary bytecode",
                    )
                )

    @staticmethod
    def _handler_statements(node: ast.AST):
        stack = list(node.body)
        while stack:
            stmt = stack.pop()
            yield stmt
            if isinstance(stmt, ast.If):
                stack.extend(stmt.body)
                stack.extend(stmt.orelse)

    @staticmethod
    def _signal_safe_call(ctx: ModuleContext, node: ast.Call) -> bool:
        resolved = ctx.resolve_call_target(node.func)
        if resolved == "os.write":
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "set", "is_set"
        ):
            return True
        return False

    # ------------------------------------------------------------------
    # report

    def lock_order_report(self) -> dict:
        """The ``--json`` ``concurrency`` section: graph, cycles, roots."""
        edges = [
            {"from": first, "to": then, "site": f"{path}:{line}"}
            for (first, then), (path, line) in sorted(self._lock_edges.items())
        ]
        locks = set()
        for table in self._class_locks.values():
            locks.update(table.values())
        for table in self._module_locks.values():
            locks.update(table.values())
        return {
            "locks": sorted(locks),
            "lock_order": {
                "edges": edges,
                "cycles": [list(cycle) for cycle in self._lock_cycles],
                "acyclic": not self._lock_cycles,
            },
            "thread_roots": [root.to_dict() for root in self.roots],
        }


class _LineMarker:
    """A minimal node-alike carrying just a location (for cycle reports)."""

    def __init__(self, line: int) -> None:
        self.lineno = line
        self.col_offset = 0


def _cycle_edges(cycle: tuple[str, ...]):
    for index, node in enumerate(cycle):
        yield node, cycle[(index + 1) % len(cycle)]


def _find_cycles(adjacency: dict[str, set[str]]) -> list[tuple[str, ...]]:
    """Elementary cycles, one per strongly connected component.

    Deadlock reporting needs *whether* a cycle exists and one witness
    path per component, not Johnson's full enumeration: Tarjan SCCs,
    then a DFS inside each non-trivial component for a representative
    cycle, canonicalised to start at its smallest lock name.
    """
    index_counter = [0]
    stack: list[str] = []
    lowlink: dict[str, int] = {}
    index: dict[str, int] = {}
    on_stack: set[str] = set()
    components: list[list[str]] = []

    def strongconnect(node: str) -> None:
        work = [(node, iter(sorted(adjacency.get(node, ()))))]
        index[node] = lowlink[node] = index_counter[0]
        index_counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append(
                        (successor, iter(sorted(adjacency.get(successor, ()))))
                    )
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[current] = min(lowlink[current], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                components.append(component)

    for node in sorted(adjacency):
        if node not in index:
            strongconnect(node)

    cycles: list[tuple[str, ...]] = []
    for component in components:
        members = set(component)
        if len(component) == 1:
            node = component[0]
            if node not in adjacency.get(node, ()):
                continue
            cycles.append((node,))
            continue
        start = min(component)
        path = [start]
        seen = {start}
        witness: tuple[str, ...] | None = None

        def dfs(current: str) -> bool:
            nonlocal witness
            for successor in sorted(adjacency.get(current, ())):
                if successor == start and len(path) > 1:
                    witness = tuple(path)
                    return True
                if successor in members and successor not in seen:
                    seen.add(successor)
                    path.append(successor)
                    if dfs(successor):
                        return True
                    path.pop()
                    seen.discard(successor)
            return False

        dfs(start)
        if witness is not None:
            cycles.append(witness)
    cycles.sort()
    return cycles


# ----------------------------------------------------------------------
# rule registration (single-module mode: analyze_source / fixtures)


def _module_findings(ctx: ModuleContext) -> list[Finding]:
    cached = getattr(ctx, "_concurrency_findings", None)
    if cached is None:
        cached = ConcurrencyModel([ctx]).findings
        ctx._concurrency_findings = cached
    return cached


class _ConcurrencyRule(Rule):
    scopes = frozenset({ROLE_LIBRARY})

    def end_module(self, ctx) -> None:
        for finding in _module_findings(ctx):
            if finding.code == self.code:
                ctx.report(self, finding.node, finding.message)


@register
class UnguardedSharedWriteRule(_ConcurrencyRule):
    code = "REP012"
    name = "unguarded-shared-write"
    summary = (
        "shared attribute written outside a lock region that guards it "
        "elsewhere, or read-modify-written on a concurrent code path"
    )


@register
class LockOrderCycleRule(_ConcurrencyRule):
    code = "REP013"
    name = "lock-order-cycle"
    summary = (
        "two code paths acquire the same locks in opposite orders -- a "
        "latent deadlock (never baselined)"
    )


@register
class BlockingCallUnderLockRule(_ConcurrencyRule):
    code = "REP014"
    name = "blocking-call-under-lock"
    summary = (
        "fsync/sleep/socket/subprocess/wait or journal append while "
        "holding a lock serialises every contending thread behind I/O"
    )


@register
class SignalHandlerSafetyRule(_ConcurrencyRule):
    code = "REP015"
    name = "non-signal-safe-handler"
    summary = (
        "registered signal handler does more than set a flag/Event or "
        "os.write -- unsafe when it interrupts arbitrary bytecode"
    )


def _is_self_attribute(node: ast.AST) -> bool:
    """``self.<name>``."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _reads_self_attribute(node: ast.AST) -> bool:
    """Whether ``node`` reads an attribute of ``self`` anywhere inside."""
    return any(_is_self_attribute(inner) for inner in ast.walk(node))


def _container_element_names(function: ast.AST) -> frozenset[str]:
    """Loop variables iterating over a container held by ``self``."""
    return frozenset(
        node.target.id
        for node in own_nodes(function)
        if isinstance(node, ast.For)
        and isinstance(node.target, ast.Name)
        and _reads_self_attribute(node.iter)
    )


def _is_container_element(receiver: ast.AST, elements: frozenset[str]) -> bool:
    """``layer`` from ``for layer in self.layers``, or ``self.layers[-1]``."""
    if isinstance(receiver, ast.Name):
        return receiver.id in elements
    return isinstance(receiver, ast.Subscript) and _reads_self_attribute(
        receiver.value
    )
