"""Bottom-up per-function summaries for cross-function linting.

:mod:`repro.analysis.detlint` answers flow questions inside one
function; this module lifts the same tag machinery across the calls
between functions of one module.  Every function (and the module
body) gets a :class:`FunctionSummary` computed to fixpoint over the
strongly connected components of the module's call graph:

* which taint tags the function *generates* into its return value
  (``return_tags``) and through which call chain (``origins``);
* which parameters flow to the return value, per tag class
  (``return_symbols`` — the symbolic tags ``@p<i>.<class>`` that
  survive to a ``return``);
* which parameters reach a persisting sink inside the function or its
  callees (``param_sinks``) — a caller handing a tainted value to such
  a parameter is as guilty as one calling the sink directly;
* which exception types can *provably* escape (``escapes``) and which
  broad handlers provably swallow a proven raise (``swallows``) — the
  substrate for the ``exc/escape`` rule;
* where unseeded randomness is constructed or used (``rng_sites``) and
  a transitive nondeterminism verdict (``nondet``; empty means the
  function is deterministic as far as the analysis can see).

Summaries are plain data and compare by value, so SCC fixpoints
terminate on equality.

Soundness limits (see DESIGN.md): resolution covers direct calls,
``self.method()`` within one class and ``Class.method`` references in
the same module.  Calls into other modules, dynamic dispatch through
containers, ``getattr``, decorators that replace functions, and
``**kwargs`` forwarding are invisible; unresolved calls contribute
nothing, so the summary layer adds findings but never invents flow
through code it cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis import dataflow as df

__all__ = [
    "ParamSink",
    "Swallow",
    "FunctionSummary",
    "CallResolver",
    "compute_module_summaries",
    "collect_class_bases",
    "MODULE_BODY",
]

#: Pseudo-qualname under which the module body's summary is stored.
MODULE_BODY = "<module>"

#: Upper bound on SCC fixpoint sweeps (tags are finite; equality-based
#: convergence lands in 2-3 sweeps in practice).
_MAX_SCC_SWEEPS = 10


# ----------------------------------------------------------------------
# Summary records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParamSink:
    """Parameter ``index`` reaches a persisting sink for tag ``cls``.

    ``chain`` names the call path from the summarized function down to
    the function containing the sink (empty when the sink is local).
    """

    index: int
    cls: str
    sink: str
    line: int
    chain: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Swallow:
    """A broad handler that provably swallows a proven raise.

    ``caught`` is the broad name (``Exception``/``bare except``),
    ``types`` the proven exception types absorbed, ``via`` the call
    chain that raises them (empty for a raise in the ``try`` body
    itself).
    """

    line: int
    caught: str
    types: Tuple[str, ...]
    via: Tuple[str, ...] = ()


@dataclass(frozen=True)
class FunctionSummary:
    """Interprocedural facts about one function, as plain data."""

    module: str
    qualname: str
    params: Tuple[str, ...] = ()
    return_tags: FrozenSet[str] = frozenset()
    return_symbols: FrozenSet[str] = frozenset()
    param_sinks: Tuple[ParamSink, ...] = ()
    origins: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    escapes: FrozenSet[str] = frozenset()
    swallows: Tuple[Swallow, ...] = ()
    rng_sites: Tuple[Tuple[int, str], ...] = ()
    nondet: FrozenSet[str] = frozenset()

    @property
    def deterministic(self) -> bool:
        """True when no nondeterministic source reaches this function."""
        return not self.nondet

    def display(self) -> str:
        return f"{self.qualname}()"

    def __hash__(self) -> int:
        return hash((self.module, self.qualname))


# ----------------------------------------------------------------------
# Symbolic parameter tags
# ----------------------------------------------------------------------

def param_symbol(index: int, cls: str) -> str:
    return f"@p{index}.{cls}"


def parse_symbol(tag: str) -> Optional[Tuple[int, str]]:
    """(param index, tag class) of an ``@p<i>.<cls>`` symbol, or None."""
    if not tag.startswith("@p"):
        return None
    head, _, cls = tag[2:].partition(".")
    try:
        return int(head), cls
    except ValueError:
        return None


# ----------------------------------------------------------------------
# Collector — receives facts while the detlint evaluator replays
# ----------------------------------------------------------------------


class SummaryBuilder:
    """Accumulates one function's summary during an analyzer replay."""

    def __init__(self, module: str, qualname: str, params: Sequence[str]) -> None:
        self.module = module
        self.qualname = qualname
        self.params = tuple(params)
        self.return_tags: Set[str] = set()
        self.return_symbols: Set[str] = set()
        self.param_sinks: Set[ParamSink] = set()
        self.origins: Dict[str, Tuple[str, ...]] = {}
        self.rng_sites: Set[Tuple[int, str]] = set()
        self.nondet: Set[str] = set()

    # Hook API called from detlint._FunctionAnalyzer -------------------

    def on_return(self, tags: FrozenSet[str]) -> None:
        for tag in tags:
            if parse_symbol(tag) is not None:
                self.return_symbols.add(tag)
            elif not tag.startswith("@"):
                self.return_tags.add(tag)

    def on_param_sink(self, index: int, cls: str, sink: str, line: int,
                      chain: Tuple[str, ...]) -> None:
        self.param_sinks.add(ParamSink(index, cls, sink, line, chain))

    def on_origin(self, tag: str, chain: Tuple[str, ...]) -> None:
        self.origins.setdefault(tag, chain)

    def on_rng_site(self, line: int, name: str) -> None:
        self.rng_sites.add((line, name))

    def on_nondet(self, families: FrozenSet[str]) -> None:
        self.nondet.update(families)

    # -----------------------------------------------------------------

    def build(self, escapes: FrozenSet[str],
              swallows: Tuple[Swallow, ...]) -> FunctionSummary:
        return FunctionSummary(
            module=self.module,
            qualname=self.qualname,
            params=self.params,
            return_tags=frozenset(self.return_tags),
            return_symbols=frozenset(self.return_symbols),
            param_sinks=tuple(sorted(
                self.param_sinks,
                key=lambda s: (s.index, s.cls, s.sink, s.line, s.chain),
            )),
            origins=dict(self.origins),
            escapes=escapes,
            swallows=swallows,
            rng_sites=tuple(sorted(self.rng_sites)),
            nondet=frozenset(self.nondet),
        )


# ----------------------------------------------------------------------
# Call resolution
# ----------------------------------------------------------------------

class CallResolver:
    """Maps call expressions to the summaries of this module's functions.

    Resolution covers bare module-level functions, ``Class.method``
    references and ``self.method()`` against the calling function's
    class.  Returns ``(display, summary, arg_offset)`` —
    ``arg_offset`` is 1 for bound ``self.m()`` calls, whose first
    parameter is the receiver.  Calls into other modules resolve to
    nothing.
    """

    def __init__(self, summaries: Dict[str, FunctionSummary]) -> None:
        self.summaries = summaries  # live reference; filled by the driver

    def resolve(self, call: ast.Call, class_prefix: str = ""
                ) -> Optional[Tuple[str, FunctionSummary, int]]:
        name = df.dotted_name(call.func)
        if name is None:
            return None
        if name in self.summaries and name != MODULE_BODY:
            return name, self.summaries[name], 0
        if name.startswith("self.") and class_prefix:
            qual = f"{class_prefix}.{name[len('self.'):]}"
            if qual in self.summaries:
                return qual, self.summaries[qual], 1
        return None


# ----------------------------------------------------------------------
# Exception flow
# ----------------------------------------------------------------------

#: Builtin exception -> parent, for handler-matching without running
#: anything.  Program-local ClassDef bases extend this map.
_BUILTIN_PARENTS: Dict[str, str] = {
    "ArithmeticError": "Exception",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BlockingIOError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "BufferError": "Exception",
    "ChildProcessError": "OSError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionError": "OSError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "EOFError": "Exception",
    "EnvironmentError": "OSError",
    "FileExistsError": "OSError",
    "FileNotFoundError": "OSError",
    "FloatingPointError": "ArithmeticError",
    "IOError": "OSError",
    "ImportError": "Exception",
    "IndentationError": "SyntaxError",
    "IndexError": "LookupError",
    "InterruptedError": "OSError",
    "IsADirectoryError": "OSError",
    "KeyError": "LookupError",
    "KeyboardInterrupt": "BaseException",
    "LookupError": "Exception",
    "MemoryError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "NameError": "Exception",
    "NotADirectoryError": "OSError",
    "NotImplementedError": "RuntimeError",
    "OSError": "Exception",
    "OverflowError": "ArithmeticError",
    "PermissionError": "OSError",
    "ProcessLookupError": "OSError",
    "RecursionError": "RuntimeError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "StopAsyncIteration": "Exception",
    "StopIteration": "Exception",
    "SyntaxError": "Exception",
    "SystemError": "Exception",
    "SystemExit": "BaseException",
    "TabError": "IndentationError",
    "TimeoutError": "OSError",
    "TypeError": "Exception",
    "UnboundLocalError": "NameError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "UnicodeError": "ValueError",
    "UnicodeTranslateError": "UnicodeError",
    "ValueError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
}

_BROAD = ("Exception", "BaseException")

#: Proven raise of an unknown type (``raise exc``): caught only by
#: broad handlers, dropped (unproven) at narrow ones.
_UNKNOWN = "?"


def collect_class_bases(tree: ast.Module) -> Dict[str, str]:
    """``{class name: first base tail name}`` for every ClassDef."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.bases:
            base = df.dotted_name(node.bases[0])
            if base is not None:
                out[node.name] = base.rsplit(".", 1)[-1]
    return out


def _ancestry(name: str, class_bases: Mapping[str, str]) -> List[str]:
    chain = [name]
    seen = {name}
    while True:
        parent = class_bases.get(chain[-1], _BUILTIN_PARENTS.get(chain[-1]))
        if parent is None or parent in seen:
            return chain
        chain.append(parent)
        seen.add(parent)


def _handler_names(handler: ast.ExceptHandler) -> Tuple[str, ...]:
    """Caught type tails; empty tuple means a bare (catch-all) handler."""
    if handler.type is None:
        return ()
    nodes = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    names = []
    for node in nodes:
        name = df.dotted_name(node)
        if name is not None:
            names.append(name.rsplit(".", 1)[-1])
    return tuple(names) if names else ("<unresolved>",)


def _catches(handler: ast.ExceptHandler, exc: str,
             class_bases: Mapping[str, str]) -> Optional[bool]:
    """Does this handler catch ``exc``?  None when unprovable."""
    names = _handler_names(handler)
    if not names or any(n in _BROAD for n in names):
        return True
    if exc == _UNKNOWN:
        return None
    ancestry = _ancestry(exc, class_bases)
    if any(n in ancestry for n in names):
        return True
    if ancestry[-1] in _BROAD or ancestry[-1] in _BUILTIN_PARENTS:
        # Fully known ancestry that misses every handler name.
        return False
    return None  # custom type with unknown bases: unprovable


class _ExceptionWalker:
    """Proven escapes and broad-handler swallows for one function body.

    Explicit ``raise`` statements, ``assert`` statements and the
    summarized escapes of resolved callees are the only raise sources;
    implicit exceptions (KeyError from a subscript, attribute errors)
    are not modeled, which keeps every reported escape a *proof*.
    """

    def __init__(
        self,
        resolver: Optional[CallResolver],
        class_prefix: str,
        class_bases: Mapping[str, str],
    ) -> None:
        self.resolver = resolver
        self.class_prefix = class_prefix
        self.class_bases = class_bases
        self.escapes: Set[str] = set()
        #: handler id -> absorbed [(exc, via chain)]
        self.absorbed: Dict[int, List[Tuple[str, Tuple[str, ...]]]] = {}
        self.handlers: Dict[int, ast.ExceptHandler] = {}

    # -- raise routing ------------------------------------------------

    def _raise(self, exc: str, via: Tuple[str, ...],
               stack: List[List[ast.ExceptHandler]]) -> None:
        for level in reversed(stack):
            for handler in level:
                verdict = _catches(handler, exc, self.class_bases)
                if verdict is True:
                    hid = id(handler)
                    self.handlers[hid] = handler
                    self.absorbed.setdefault(hid, []).append((exc, via))
                    return
                if verdict is None:
                    return  # unprovable either way: drop
        self.escapes.add(exc)

    def _call_escapes(self, call: ast.Call,
                      stack: List[List[ast.ExceptHandler]]) -> None:
        if self.resolver is None:
            return
        resolved = self.resolver.resolve(call, self.class_prefix)
        if resolved is None:
            return
        display, summary, _ = resolved
        for exc in sorted(summary.escapes):
            self._raise(exc, (f"{display}()",), stack)

    def _scan_calls(self, node: ast.AST,
                    stack: List[List[ast.ExceptHandler]]) -> None:
        """Calls inside one statement's expressions (not nested defs)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                self._call_escapes(child, stack)
            self._scan_calls(child, stack)

    # -- statement walk -----------------------------------------------

    def walk(self, stmts: Sequence[ast.stmt],
             stack: Optional[List[List[ast.ExceptHandler]]] = None,
             current: Optional[ast.ExceptHandler] = None) -> None:
        stack = stack if stack is not None else []
        for stmt in stmts:
            if isinstance(stmt, ast.Raise):
                if stmt.exc is None:
                    # Bare re-raise: propagates whatever the enclosing
                    # handler caught outward.
                    if current is not None:
                        names = _handler_names(current) or (_UNKNOWN,)
                        for name in names:
                            exc = (_UNKNOWN if name in _BROAD
                                   or name == "<unresolved>" else name)
                            self._raise(exc, (), stack)
                else:
                    name = df.dotted_name(
                        stmt.exc.func if isinstance(stmt.exc, ast.Call)
                        else stmt.exc
                    )
                    exc = name.rsplit(".", 1)[-1] if name else _UNKNOWN
                    self._scan_calls(stmt, stack)
                    self._raise(exc, (), stack)
                continue
            if isinstance(stmt, ast.Assert):
                self._scan_calls(stmt, stack)
                self._raise("AssertionError", (), stack)
                continue
            if isinstance(stmt, ast.Try):
                inner = stack + [list(stmt.handlers)]
                self.walk(stmt.body, inner, current)
                self.walk(stmt.orelse, inner, current)
                for handler in stmt.handlers:
                    self.walk(handler.body, stack, handler)
                self.walk(stmt.finalbody, stack, current)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # raises inside nested defs escape when *called*
            self._scan_calls(stmt, stack)
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if sub:
                    self.walk(sub, stack, current)


def function_exceptions(
    body: Sequence[ast.stmt],
    resolver: Optional[CallResolver],
    class_prefix: str,
    class_bases: Mapping[str, str],
) -> Tuple[FrozenSet[str], Tuple[Swallow, ...]]:
    """(proven escapes, broad-handler swallows) for one function body."""
    from repro.analysis.srclint import (
        _broad_handler_type,
        _handler_records_failure,
    )

    walker = _ExceptionWalker(resolver, class_prefix, class_bases)
    walker.walk(list(body))
    swallows: List[Swallow] = []
    for hid, absorbed in walker.absorbed.items():
        handler = walker.handlers[hid]
        caught = _broad_handler_type(handler)
        if caught is None or _handler_records_failure(handler):
            continue
        types = tuple(sorted({
            ("exception" if exc == _UNKNOWN else exc)
            for exc, _ in absorbed
        }))
        vias = tuple(sorted({via for _, via in absorbed if via}))
        via = vias[0] if vias else ()
        swallows.append(Swallow(handler.lineno, caught, types, via))
    swallows.sort(key=lambda s: (s.line, s.caught))
    return frozenset(walker.escapes), tuple(swallows)


# ----------------------------------------------------------------------
# Module driver: intra-module call graph, SCC ordering, fixpoint
# ----------------------------------------------------------------------


def _tarjan(nodes: Sequence[str],
            edges: Mapping[str, Set[str]]) -> List[List[str]]:
    """SCCs in reverse topological order (callees before callers)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(v: str) -> None:
        # Iterative Tarjan: (node, iterator state) frames.
        work = [(v, iter(sorted(edges.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(sorted(scc))

    for v in sorted(nodes):
        if v not in index:
            strongconnect(v)
    return sccs


def _intra_edges(
    functions: Mapping[str, Tuple[ast.AST, str]],
) -> Dict[str, Set[str]]:
    """Syntactic intra-module call edges (bare / self. / Class.method)."""
    edges: Dict[str, Set[str]] = {}
    for qual, (node, class_prefix) in functions.items():
        targets: Set[str] = set()
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            name = df.dotted_name(sub.func)
            if name is None:
                continue
            if name in functions:
                targets.add(name)
            elif name.startswith("self.") and class_prefix:
                cand = f"{class_prefix}.{name[len('self.'):]}"
                if cand in functions:
                    targets.add(cand)
        # Bare-name references (callbacks, dispatch payloads) count as
        # dependencies too: the caller's summary may fold theirs in.
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in functions:
                targets.add(sub.id)
        targets.discard(qual)
        edges[qual] = targets
    return edges


def compute_module_summaries(
    tree: ast.Module,
    rel: str = "<string>",
    module: str = "",
) -> Dict[str, FunctionSummary]:
    """Summaries for every function in one module, plus the module body.

    Resolution is intra-module: calls into other modules contribute
    nothing to a summary.  ``module`` names the summaries' module.
    """
    from repro.analysis import detlint

    imap = df.import_map(tree, package=module.rsplit(".", 1)[0]
                         if "." in module else "")
    bindings = df.module_bindings(tree)
    workers = df.worker_functions(tree)
    module_sets = detlint._module_set_bindings(tree)
    bases = collect_class_bases(tree)
    rng_exempt = rel.endswith("util/rng.py")

    functions: Dict[str, Tuple[ast.AST, str]] = {
        qual: (node, cls)
        for qual, node, cls in detlint._functions(tree)
    }
    summaries: Dict[str, FunctionSummary] = {}
    resolver = CallResolver(summaries)

    def summarize(qual: str) -> FunctionSummary:
        node, class_prefix = functions[qual]
        params = detlint._param_names(node)
        builder = SummaryBuilder(module, qual, params)
        initial = dict(module_sets)
        for i, _ in enumerate(params):
            initial[params[i]] = frozenset(
                param_symbol(i, cls) for cls in detlint.SINK_CLASSES
            )
        analyzer = detlint._FunctionAnalyzer(
            node.body,
            qual,
            bindings,
            initial,
            is_worker=qual in workers,
            warn_scope=False,
            params=params,
            imap=imap,
            resolver=resolver,
            class_prefix=class_prefix,
            rng_exempt=rng_exempt,
        )
        analyzer.run(findings=None, collector=builder)
        escapes, swallows = function_exceptions(
            node.body, resolver, class_prefix, bases
        )
        return builder.build(escapes, swallows)

    edges = _intra_edges(functions)
    for scc in _tarjan(list(functions), edges):
        for _ in range(_MAX_SCC_SWEEPS):
            changed = False
            for qual in scc:
                new = summarize(qual)
                if new != summaries.get(qual):
                    summaries[qual] = new
                    changed = True
            if not changed:
                break

    # Module body: rng sites and sinks at import/definition time.
    body_builder = SummaryBuilder(module, MODULE_BODY, ())
    body_analyzer = detlint._FunctionAnalyzer(
        tree.body,
        MODULE_BODY,
        bindings,
        {},
        is_worker=False,
        warn_scope=False,
        imap=imap,
        resolver=resolver,
        rng_exempt=rng_exempt,
    )
    body_analyzer.run(findings=None, collector=body_builder)
    body_escapes, body_swallows = function_exceptions(
        [s for s in tree.body
         if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef))],
        resolver, "", bases,
    )
    summaries[MODULE_BODY] = body_builder.build(body_escapes, body_swallows)
    return summaries
