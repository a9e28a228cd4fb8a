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
* a transitive nondeterminism verdict (``nondet``; empty means the
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
    "FunctionSummary",
    "CallResolver",
    "compute_module_summaries",
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
class FunctionSummary:
    """Interprocedural facts about one function, as plain data."""

    module: str
    qualname: str
    params: Tuple[str, ...] = ()
    return_tags: FrozenSet[str] = frozenset()
    return_symbols: FrozenSet[str] = frozenset()
    param_sinks: Tuple[ParamSink, ...] = ()
    origins: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    nondet: FrozenSet[str] = frozenset()

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

    def on_nondet(self, families: FrozenSet[str]) -> None:
        self.nondet.update(families)

    # -----------------------------------------------------------------

    def build(self) -> FunctionSummary:
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
    module_sets = detlint._module_set_bindings(tree)
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
            initial,
            warn_scope=False,
            imap=imap,
            resolver=resolver,
            class_prefix=class_prefix,
            rng_exempt=rng_exempt,
        )
        analyzer.run(findings=None, collector=builder)
        return builder.build()

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

    # Module body: sources and sinks at import/definition time.
    body_builder = SummaryBuilder(module, MODULE_BODY, ())
    body_analyzer = detlint._FunctionAnalyzer(
        tree.body,
        {},
        warn_scope=False,
        imap=imap,
        resolver=resolver,
        rng_exempt=rng_exempt,
    )
    body_analyzer.run(findings=None, collector=body_builder)
    summaries[MODULE_BODY] = body_builder.build()
    return summaries
