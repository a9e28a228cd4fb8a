"""Determinism linting over the repro sources.

The canonical study records must be the same bytes on every run, so
the rules here ask one flow question: does a value born unordered (or
from the wall clock, from salted ``hash()``, from unseeded randomness)
reach a sink that is supposed to be deterministic?  Each function body
is lowered to a CFG (:mod:`repro.analysis.cfg`) and a forward tag
analysis (:mod:`repro.analysis.dataflow`) is run to a fixpoint before
the rules fire.

Rules (flow follows calls between functions of one module through
:mod:`repro.analysis.summaries`; see DESIGN.md for scope and limits):

``det/unordered-iter``
    ERROR when iteration order of a ``set``/``frozenset`` (or an
    unsorted directory listing) flows into a fingerprint, cache key,
    manifest, digest or serialized output.  WARNING when such an order
    is merely captured into an ordered container (``list(s)``,
    ``[x for x in s]``, ``",".join(s)``) inside a measurement-critical
    package — the capture is one call away from a sink.
``det/wall-clock``
    ERROR when a wall-clock reading (``time.time``, ``perf_counter``,
    ``datetime.now``, ...) flows into deterministic output: anything
    feeding ``to_json``/``dumps``, ``repro.util.fingerprint`` digests
    or cache keys.  Manifest entries are exempt — their ``walltime``
    fields are documented as nondeterministic.
``det/builtin-hash``
    ERROR when a builtin ``hash()`` value (salted per process) reaches
    a persisted key or serialized output.
``det/seed-provenance``
    ERROR at every construction or use of randomness not derived from
    the spec seed through :mod:`repro.util.rng` (stdlib ``random``,
    ``numpy.random``, ``os.urandom``, ``uuid4``, ``secrets``; aliased
    imports resolve), and where such a value reaches a sink.
``conc/socket-no-timeout``
    ERROR when code under ``repro/serve/`` creates a socket —
    ``socket.socket(...)``, a ``create_connection(...)`` without a
    ``timeout`` argument, or an ``accept()`` result — and never calls
    ``settimeout`` on it in the same function: a blocking socket with
    no deadline turns a lost peer into a hung service.

Run through the ``repro-lint`` CLI (:mod:`repro.analysis.cli`).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis import dataflow as df
from repro.analysis.cfg import BIND, EXPR, STMT, build_cfg
from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = ["DETLINT_RULES", "SINK_CLASSES", "lint_source"]

#: Rule id -> one-line description (the README rule table mirrors this).
DETLINT_RULES = {
    "det/unordered-iter": "set/unordered iteration order reaches ordered or serialized output",
    "det/wall-clock": "wall-clock reading flows into deterministic output",
    "det/builtin-hash": "process-salted builtin hash() escapes into a persisted key",
    "det/seed-provenance": "randomness not derived from the spec seed via repro.util.rng",
    "conc/socket-no-timeout": "socket created without a timeout in repro.serve",
}

# ----------------------------------------------------------------------
# Tag alphabet
# ----------------------------------------------------------------------

UNORDERED = "unordered"      # set-typed value / unsorted directory listing
ORDER_DEP = "order-dep"      # ordered container capturing an unordered order
WALLCLOCK = "wallclock"      # derived from the wall clock
PYHASH = "pyhash"            # derived from builtin hash()
DIGEST = "digest"            # hashlib digest object (update() is a sink)
RNG_SEEDED = "rng-seeded"    # randomness derived from the spec seed
RNG_UNSEEDED = "rng-unseeded"  # raw randomness outside repro.util.rng

_EMPTY: FrozenSet[str] = frozenset()

#: Tags that survive passing through an unknown call.
_CALL_PROPAGATE = frozenset({
    WALLCLOCK, PYHASH, ORDER_DEP, RNG_SEEDED, RNG_UNSEEDED,
})

#: Sink tag classes.  The summary layer
#: (:mod:`repro.analysis.summaries`) seeds every parameter with one
#: symbolic tag ``@p<i>.<cls>`` per class, so sanitizers can strip a
#: class without losing the others (``sorted(x)`` clears ``unordered``
#: but a wall-clock value survives sorting just fine).
SINK_CLASSES = {
    "unordered": frozenset({UNORDERED, ORDER_DEP}),
    "wallclock": frozenset({WALLCLOCK}),
    "pyhash": frozenset({PYHASH}),
    "rng": frozenset({RNG_UNSEEDED}),
}

#: Sink class -> (rule id, message template, hint) for summary-driven
#: cross-call findings.
_CLASS_RULES = {
    "unordered": (
        "det/unordered-iter",
        "iteration order of an unordered collection reaches {sink}()",
        "sort the collection before it feeds fingerprinted or serialized "
        "output",
    ),
    "wallclock": (
        "det/wall-clock",
        "wall-clock reading flows into {sink}()",
        "wall-clock values belong in walltime-only fields; deterministic "
        "outputs must not depend on the clock",
    ),
    "pyhash": (
        "det/builtin-hash",
        "builtin hash() value reaches {sink}()",
        "hash() is salted per process; use hashlib for persisted keys",
    ),
    "rng": (
        "det/seed-provenance",
        "value derived from unseeded randomness reaches {sink}()",
        "derive randomness from the spec seed via repro.util.rng."
        "substream/spawn so persisted output is reproducible",
    ),
}


def _parse_symbol(tag: str) -> Optional[Tuple[int, str]]:
    """(param index, sink class) of an ``@p<i>.<cls>`` tag, or None."""
    if not tag.startswith("@p"):
        return None
    head, _, cls = tag[2:].partition(".")
    try:
        return int(head), cls
    except ValueError:
        return None


def _propagate(tags: FrozenSet[str]) -> FrozenSet[str]:
    """Tags that survive passing through an unknown call (symbolic
    parameter tags always do — an unknown callee may return its
    argument)."""
    return frozenset(
        t for t in tags if t in _CALL_PROPAGATE or t.startswith("@")
    )

#: Packages where capturing an unordered iteration is warned about even
#: before it reaches a sink (measurement-critical code).
_WARN_SCOPE = re.compile(r"(^|/)repro/(core|sim|trace|util|mfact)/")

#: The distributed service package, where every socket must carry a
#: timeout (conc/socket-no-timeout).
_SERVE_SCOPE = re.compile(r"(^|/)repro/serve/")

_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
})
_WALLCLOCK_BARE = frozenset({
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "process_time", "time_ns",
})
#: Calls returning filesystem listings in arbitrary order.
_LISTING_TAILS = frozenset({"listdir", "iterdir", "glob", "rglob", "scandir"})
_DIGEST_TAILS = frozenset({
    "sha1", "sha224", "sha256", "sha384", "sha512", "md5",
    "blake2b", "blake2s", "new",
})
_SANITIZERS = frozenset({"sorted", "min", "max", "sum", "len", "any", "all"})
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})
_CONTAINER_GROW = frozenset({
    "append", "add", "extend", "insert", "appendleft", "update", "setdefault",
})


def _tail_of(func: ast.AST) -> Optional[str]:
    name = df.dotted_name(func)
    if name is not None:
        return name.rsplit(".", 1)[-1]
    if isinstance(func, ast.Attribute):
        return func.attr  # method on a non-name base ("," .join, call chains)
    return None


def _is_wallclock(func: ast.AST) -> bool:
    name = df.dotted_name(func)
    if name is None:
        return False
    if name in _WALLCLOCK_BARE:
        return True
    return any(name == w or name.endswith("." + w) for w in _WALLCLOCK_CALLS)


def _serialize_sink(func: ast.AST) -> Optional[str]:
    """Sink name when this call persists/serializes its arguments."""
    name = df.dotted_name(func) or _tail_of(func) or ""
    low = name.lower()
    tail = low.rsplit(".", 1)[-1]
    if ("fingerprint" in low or "cache_key" in low or "manifest" in low
            or tail in ("dumps", "dumps_binary", "to_json")):
        return name
    return None


def _head_name(node: ast.AST) -> Optional[str]:
    """Leftmost ``Name`` of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _Findings:
    """Diagnostic sink deduplicating by (rule, line, message)."""

    def __init__(self, rel: str) -> None:
        self.rel = rel
        self.diags: List[Diagnostic] = []
        self._seen: Set[Tuple[str, int, str]] = set()

    def emit(self, rule: str, severity: Severity, message: str,
             lineno: int, hint: str = "") -> None:
        key = (rule, lineno, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.diags.append(
            Diagnostic(rule, severity, message,
                       location=f"{self.rel}:{lineno}", hint=hint)
        )


class _FunctionAnalyzer:
    """All detlint rules for one function body (or the module body)."""

    def __init__(
        self,
        body: Sequence[ast.stmt],
        initial: df.TagEnv,
        warn_scope: bool,
        imap: Optional[Dict[str, str]] = None,
        resolver=None,
        class_prefix: str = "",
        rng_exempt: bool = False,
        serve_scope: bool = False,
    ) -> None:
        self.body = list(body)
        self.initial = dict(initial)
        self.warn_scope = warn_scope
        self.serve_scope = serve_scope
        self.imap = imap if imap is not None else {}
        self.resolver = resolver
        self.class_prefix = class_prefix
        self.rng_exempt = rng_exempt
        self.collector = None
        #: tag -> witness call chain to its source, for diagnostics.
        self.origins: Dict[str, Tuple[str, ...]] = {}

    # -- driver -------------------------------------------------------

    def run(self, findings: Optional[_Findings], collector=None) -> None:
        """Fixpoint, then a replay pass that emits into ``findings``
        and/or feeds summary facts to ``collector``
        (a :class:`repro.analysis.summaries.SummaryBuilder`)."""
        cfg = build_cfg(self.body)
        self._findings: Optional[_Findings] = None

        def transfer(bid: int, env: df.TagEnv) -> df.TagEnv:
            env = dict(env)
            for action in cfg.blocks[bid].actions:
                self._action(action, env)
            return env

        in_envs = df.solve_forward(cfg, transfer, self.initial)
        self._findings = findings
        self.collector = collector
        for bid in sorted(in_envs):
            env = dict(in_envs[bid])
            for action in cfg.blocks[bid].actions:
                self._action(action, env)
        self._findings = None
        if collector is not None:
            for tag, chain in self.origins.items():
                collector.on_origin(tag, chain)
        self.collector = None
        if findings is not None and self.serve_scope:
            self._socket_timeouts(findings)

    # -- taint transfer ----------------------------------------------

    def _action(self, action: tuple, env: df.TagEnv) -> None:
        kind = action[0]
        if kind == STMT:
            self._stmt(action[1], env)
        elif kind == EXPR:
            self._eval(action[1], env)
        elif kind == BIND:
            _, target, source, how = action
            tags = self._eval(source, env) if source is not None else _EMPTY
            if how == "for":
                bound = tags - {UNORDERED}
                if UNORDERED in tags:
                    bound |= {ORDER_DEP}
                self._bind(target, frozenset(bound), env)
            elif how == "with":
                if target is not None:
                    self._bind(target, tags, env)
            else:  # except
                if target is not None:
                    self._bind(target, _EMPTY, env)

    def _stmt(self, node: ast.stmt, env: df.TagEnv) -> None:
        if isinstance(node, ast.Assign):
            tags = self._eval(node.value, env)
            for target in node.targets:
                self._bind(target, tags, env)
        elif isinstance(node, ast.AugAssign):
            tags = self._eval(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = env.get(node.target.id, _EMPTY) | tags
            else:
                self._weak_update(node.target, tags, env)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._bind(node.target, self._eval(node.value, env), env)
        elif isinstance(node, ast.Expr):
            self._eval(node.value, env)
        elif isinstance(node, ast.Return) and node.value is not None:
            tags = self._eval(node.value, env)
            if self.collector is not None:
                self.collector.on_return(tags)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            self._eval(node.exc, env)
        elif isinstance(node, ast.Assert):
            self._eval(node.test, env)

    def _bind(self, target: ast.AST, tags: FrozenSet[str], env: df.TagEnv) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = tags
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, tags, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tags, env)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._weak_update(target, tags, env)

    def _weak_update(self, target: ast.AST, tags: FrozenSet[str],
                     env: df.TagEnv) -> None:
        head = _head_name(target)
        if head is not None and tags:
            env[head] = env.get(head, _EMPTY) | tags

    # -- expression evaluation ----------------------------------------

    def _eval(self, node: ast.AST, env: df.TagEnv,
              order_ok: bool = False) -> FrozenSet[str]:
        if isinstance(node, ast.Name):
            return env.get(node.id, _EMPTY)
        if isinstance(node, ast.Constant):
            return _EMPTY
        if isinstance(node, ast.Call):
            return self._eval_call(node, env, order_ok)
        if isinstance(node, (ast.Set, ast.SetComp)):
            for child in ast.iter_child_nodes(node):
                self._eval(child, env, order_ok=True)
            return frozenset({UNORDERED})
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._eval_comprehension(node, env, order_ok)
        if isinstance(node, ast.DictComp):
            tags = _EMPTY
            for gen in node.generators:
                if UNORDERED in self._eval(gen.iter, env):
                    tags |= {ORDER_DEP}
            return tags
        if isinstance(node, (ast.List, ast.Tuple)):
            tags = _EMPTY
            for elt in node.elts:
                tags |= self._eval(elt, env, order_ok)
            return tags
        if isinstance(node, ast.Dict):
            tags = _EMPTY
            for key in node.keys:
                if key is not None:
                    tags |= self._eval(key, env, order_ok)
            for value in node.values:
                tags |= self._eval(value, env, order_ok)
            return tags
        if isinstance(node, ast.Attribute):
            return self._eval(node.value, env, order_ok)
        if isinstance(node, ast.Subscript):
            tags = self._eval(node.value, env, order_ok)
            tags |= self._eval(node.slice, env, order_ok)
            return tags - {UNORDERED}
        if isinstance(node, ast.BinOp):
            return self._eval(node.left, env, order_ok) | self._eval(
                node.right, env, order_ok
            )
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, env, order_ok)
        if isinstance(node, ast.BoolOp):
            tags = _EMPTY
            for value in node.values:
                tags |= self._eval(value, env, order_ok)
            return tags
        if isinstance(node, ast.Compare):
            self._eval(node.left, env, order_ok=True)
            for comp in node.comparators:
                self._eval(comp, env, order_ok=True)
            return _EMPTY
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env, order_ok=True)
            return self._eval(node.body, env, order_ok) | self._eval(
                node.orelse, env, order_ok
            )
        if isinstance(node, ast.JoinedStr):
            tags = _EMPTY
            for value in node.values:
                tags |= self._eval(value, env, order_ok)
            return tags
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value, env, order_ok)
        if isinstance(node, ast.Await):
            return self._eval(node.value, env, order_ok)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            tags = (self._eval(node.value, env, order_ok)
                    if node.value is not None else _EMPTY)
            if self.collector is not None:
                # A generator's yields are its "returns" for summaries.
                self.collector.on_return(tags)
            return tags
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env, order_ok)
        if isinstance(node, ast.NamedExpr):
            tags = self._eval(node.value, env, order_ok)
            self._bind(node.target, tags, env)
            return tags
        if isinstance(node, ast.Slice):
            return _EMPTY
        return _EMPTY

    def _eval_comprehension(self, node, env: df.TagEnv,
                            order_ok: bool) -> FrozenSet[str]:
        comp_env = dict(env)
        unordered_iter = False
        line = node.lineno
        for gen in node.generators:
            iter_tags = self._eval(gen.iter, comp_env)
            bound = iter_tags - {UNORDERED}
            if UNORDERED in iter_tags:
                unordered_iter = True
                bound |= {ORDER_DEP}
            self._bind(gen.target, frozenset(bound), comp_env)
            for cond in gen.ifs:
                self._eval(cond, comp_env, order_ok=True)
        tags = self._eval(node.elt, comp_env)
        if unordered_iter:
            tags |= {ORDER_DEP}
            if (isinstance(node, ast.ListComp) and not order_ok
                    and self.warn_scope):
                self._emit(
                    "det/unordered-iter", Severity.WARNING,
                    "a set's iteration order is captured into a list "
                    "comprehension",
                    line,
                    "iterate sorted(...) so the resulting order is "
                    "reproducible",
                )
        return tags

    def _eval_call(self, node: ast.Call, env: df.TagEnv,
                   order_ok: bool) -> FrozenSet[str]:
        func = node.func
        name = df.dotted_name(func)
        tail = _tail_of(func)

        if tail in _SANITIZERS:
            tags = _EMPTY
            for arg in node.args:
                tags |= self._eval(arg, env, order_ok=True)
            for kw in node.keywords:
                self._eval(kw.value, env, order_ok=True)
            # Sorting fixes the order, nothing else: strip the order
            # tags (and the symbolic order class), keep the rest.
            return frozenset(
                t for t in tags
                if t not in (UNORDERED, ORDER_DEP)
                and not (t.startswith("@") and t.endswith(".unordered"))
            )
        if name in ("set", "frozenset"):
            for arg in node.args:
                self._eval(arg, env, order_ok=True)
            return frozenset({UNORDERED})

        pos_tags = [
            self._eval(arg, env, order_ok=tail in ("list", "tuple"))
            for arg in node.args
        ]
        kw_tags = {
            kw.arg: self._eval(kw.value, env) for kw in node.keywords
        }
        arg_tags = _EMPTY
        for tags in pos_tags:
            arg_tags |= tags
        for tags in kw_tags.values():
            arg_tags |= tags

        # -- sources --------------------------------------------------
        if _is_wallclock(func):
            self.origins.setdefault(WALLCLOCK, (f"{name}()",))
            if self.collector is not None:
                self.collector.on_nondet(frozenset({"wallclock"}))
            return frozenset({WALLCLOCK})
        rng_cls = df.classify_rng_call(name, self.imap) if name else None
        if rng_cls == df.RNG_SEEDED:
            return frozenset({RNG_SEEDED})
        if rng_cls == df.RNG_UNSEEDED:
            if not self.rng_exempt:
                self.origins.setdefault(RNG_UNSEEDED, (f"{name}()",))
                if self.collector is not None:
                    self.collector.on_nondet(frozenset({"rng-unseeded"}))
                self._emit(
                    "det/seed-provenance", Severity.ERROR,
                    f"call to {name}() constructs or uses randomness not "
                    "derived from the spec seed",
                    node.lineno,
                    "draw from a named substream via repro.util.rng."
                    "substream/spawn instead",
                )
            return frozenset({RNG_UNSEEDED})
        if name == "hash" and node.args:
            self.origins.setdefault(PYHASH, ("hash()",))
            if self.collector is not None:
                self.collector.on_nondet(frozenset({"pyhash"}))
            return frozenset({PYHASH})
        if tail in _DIGEST_TAILS and name is not None and (
                name.startswith("hashlib.") or name in _DIGEST_TAILS):
            return frozenset({DIGEST})
        if tail in _LISTING_TAILS:
            self.origins.setdefault(UNORDERED, (f"{name or tail}()",))
            if self.collector is not None:
                self.collector.on_nondet(frozenset({"unordered"}))
            return frozenset({UNORDERED})

        base_tags = _EMPTY
        if isinstance(func, ast.Attribute):
            base_tags = self._eval(func.value, env, order_ok=True)

        # -- linearizers ----------------------------------------------
        if name in ("list", "tuple"):
            if UNORDERED in arg_tags:
                if not order_ok and self.warn_scope:
                    self._emit(
                        "det/unordered-iter", Severity.WARNING,
                        f"a set's iteration order is captured by {name}()",
                        node.lineno,
                        "wrap the argument in sorted(...) so the result "
                        "order is reproducible",
                    )
                return (arg_tags - {UNORDERED}) | {ORDER_DEP}
            return arg_tags
        if isinstance(func, ast.Attribute) and func.attr == "join":
            if UNORDERED in arg_tags:
                if not order_ok and self.warn_scope:
                    self._emit(
                        "det/unordered-iter", Severity.WARNING,
                        "a set's iteration order is captured by str.join()",
                        node.lineno,
                        "join sorted(...) so the result is reproducible",
                    )
                return (arg_tags - {UNORDERED}) | {ORDER_DEP}
            return _propagate(arg_tags)

        # -- sinks ----------------------------------------------------
        self._check_sinks(node, func, arg_tags, base_tags)

        # -- resolved calls: apply the callee's summary ---------------
        if self.resolver is not None:
            resolved = self.resolver.resolve(node, self.class_prefix)
            if resolved is not None:
                display, summary, offset = resolved
                return self._apply_summary(
                    node, display, summary, offset, pos_tags, kw_tags
                )

        # -- set algebra / container growth ---------------------------
        if isinstance(func, ast.Attribute):
            if func.attr in _SET_METHODS and UNORDERED in base_tags:
                return frozenset({UNORDERED})
            if (func.attr in _CONTAINER_GROW
                    and isinstance(func.value, ast.Name) and arg_tags):
                vname = func.value.id
                env[vname] = env.get(vname, _EMPTY) | _propagate(arg_tags)
        return _propagate(arg_tags | base_tags)

    def _apply_summary(self, node: ast.Call, display: str, summary,
                       offset: int, pos_tags: List[FrozenSet[str]],
                       kw_tags: Dict[Optional[str], FrozenSet[str]],
                       ) -> FrozenSet[str]:
        """Cross-call taint transfer through a known callee's summary.

        ``offset`` shifts parameter indices for bound ``self.m()``
        calls (the receiver occupies the callee's first slot).
        """
        line = node.lineno

        def tags_for(index: int) -> FrozenSet[str]:
            j = index - offset
            if 0 <= j < len(pos_tags):
                return pos_tags[j]
            if 0 <= index < len(summary.params):
                return kw_tags.get(summary.params[index], _EMPTY)
            return _EMPTY

        # Arguments reaching a sink inside the callee (or deeper).
        for ps in summary.param_sinks:
            atags = tags_for(ps.index)
            if not atags:
                continue
            chain = (f"{display}()",) + tuple(ps.chain)
            concrete = atags & SINK_CLASSES.get(ps.cls, _EMPTY)
            if concrete:
                exempt = (ps.cls == "wallclock"
                          and "manifest" in ps.sink.lower())
                if not exempt:
                    rule, template, hint = _CLASS_RULES[ps.cls]
                    self._emit(
                        rule, Severity.ERROR,
                        template.format(sink=ps.sink)
                        + f" via {' -> '.join(chain)}",
                        line, hint,
                    )
            if self.collector is not None:
                for tag in atags:
                    parsed = _parse_symbol(tag)
                    if parsed is not None and parsed[1] == ps.cls:
                        self.collector.on_param_sink(
                            parsed[0], ps.cls, ps.sink, line, chain
                        )

        # Return-value taint: tags the callee generates, plus caller
        # tags flowing through parameter->return symbols.
        ret: Set[str] = set(summary.return_tags)
        for tag in summary.return_tags:
            self.origins.setdefault(
                tag,
                (f"{display}()",) + tuple(summary.origins.get(tag, ())),
            )
        for sym in summary.return_symbols:
            parsed = _parse_symbol(sym)
            if parsed is None:
                continue
            index, cls = parsed
            for tag in tags_for(index):
                if tag in SINK_CLASSES.get(cls, _EMPTY) or (
                        tag.startswith("@") and tag.endswith("." + cls)):
                    ret.add(tag)
        if self.collector is not None and summary.nondet:
            self.collector.on_nondet(frozenset(summary.nondet))
        return frozenset(ret)

    def _check_sinks(self, node: ast.Call, func: ast.AST,
                     arg_tags: FrozenSet[str],
                     base_tags: FrozenSet[str]) -> None:
        line = node.lineno

        # hashlib digest.update(...) — the canonical fingerprint sink.
        is_digest_update = (
            isinstance(func, ast.Attribute) and func.attr == "update"
            and DIGEST in base_tags
        )
        sink = _serialize_sink(func)
        if is_digest_update:
            sink = "digest.update"
        if sink is not None:
            low = sink.lower()
            wall_exempt = "manifest" in low or self._canonical_serialize(node)
            if arg_tags & {ORDER_DEP, UNORDERED}:
                self._emit(
                    "det/unordered-iter", Severity.ERROR,
                    f"iteration order of an unordered collection reaches "
                    f"{sink}()",
                    line,
                    "sort the collection before it feeds fingerprinted or "
                    "serialized output",
                )
            if WALLCLOCK in arg_tags and not wall_exempt:
                self._emit(
                    "det/wall-clock", Severity.ERROR,
                    f"wall-clock reading flows into {sink}()"
                    + self._via(WALLCLOCK),
                    line,
                    "wall-clock values belong in walltime-only fields; "
                    "deterministic outputs must not depend on the clock",
                )
            if PYHASH in arg_tags:
                self._emit(
                    "det/builtin-hash", Severity.ERROR,
                    f"builtin hash() value reaches {sink}()",
                    line,
                    "hash() is salted per process; use hashlib for "
                    "persisted keys",
                )
            if RNG_UNSEEDED in arg_tags:
                self._emit(
                    "det/seed-provenance", Severity.ERROR,
                    f"value derived from unseeded randomness reaches "
                    f"{sink}()" + self._via(RNG_UNSEEDED),
                    line,
                    "derive randomness from the spec seed via "
                    "repro.util.rng.substream/spawn so persisted output "
                    "is reproducible",
                )
            if self.collector is not None:
                for tag in arg_tags:
                    parsed = _parse_symbol(tag)
                    if parsed is None:
                        continue
                    if parsed[1] == "wallclock" and wall_exempt:
                        continue  # manifest/canonical walltimes stay exempt
                    self.collector.on_param_sink(
                        parsed[0], parsed[1], sink, line, ()
                    )

    def _emit(self, rule: str, severity: Severity, message: str,
              lineno: int, hint: str) -> None:
        if self._findings is not None:
            self._findings.emit(rule, severity, message, lineno, hint)

    def _via(self, tag: str) -> str:
        """`` (via a() -> b())`` suffix naming the witness call chain."""
        chain = self.origins.get(tag)
        return f" (via {' -> '.join(chain)})" if chain else ""

    @staticmethod
    def _canonical_serialize(node: ast.Call) -> bool:
        """``to_json(canonical=...)`` drops walltime fields by contract
        (StudyRecord) unless the flag is a literal ``False``."""
        tail = _tail_of(node.func)
        if tail != "to_json":
            return False
        for kw in node.keywords:
            if kw.arg == "canonical":
                return not (isinstance(kw.value, ast.Constant)
                            and kw.value.value is False)
        return False

    # -- socket timeout discipline (repro.serve only) ------------------

    def _socket_timeouts(self, findings: _Findings) -> None:
        """conc/socket-no-timeout: every socket born in this function
        must get ``settimeout`` here (a ``create_connection`` call that
        already passes ``timeout=`` counts as configured)."""
        sites: Dict[str, int] = {}
        for stmt in self.body:
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                    continue
                target = node.targets[0]
                value = node.value
                if isinstance(target, ast.Name) and self._makes_socket(value):
                    sites.setdefault(target.id, node.lineno)
                elif (isinstance(target, ast.Tuple) and target.elts
                        and isinstance(target.elts[0], ast.Name)
                        and self._is_accept_call(value)):
                    # conn, addr = sock.accept()
                    sites.setdefault(target.elts[0].id, node.lineno)
        if not sites:
            return
        configured: Set[str] = set()
        for stmt in self.body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "settimeout"
                        and isinstance(node.func.value, ast.Name)):
                    configured.add(node.func.value.id)
        for name in sorted(sites):
            if name not in configured:
                findings.emit(
                    "conc/socket-no-timeout", Severity.ERROR,
                    f"socket {name!r} is created without a timeout; a lost "
                    "peer blocks this call forever",
                    sites[name],
                    "call settimeout() on the socket (or pass timeout= to "
                    "create_connection) before using it",
                )

    @staticmethod
    def _makes_socket(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = df.dotted_name(node.func)
        if name is None:
            return False
        if name == "socket.socket" or name.endswith(".socket.socket"):
            return True
        if name == "create_connection" or name.endswith(".create_connection"):
            has_timeout = any(kw.arg == "timeout" for kw in node.keywords)
            has_timeout = has_timeout or len(node.args) >= 2
            return not has_timeout
        return False

    @staticmethod
    def _is_accept_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "accept"
                and not node.args and not node.keywords)


# ----------------------------------------------------------------------
# Module driver
# ----------------------------------------------------------------------

def _functions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST, str]]:
    """(qualname, node, enclosing class qualname) for every function,
    nested ones included.  The class qualname is ``""`` outside class
    bodies; it lets ``self.method()`` calls resolve to siblings."""

    def visit(node: ast.AST, prefix: str, cls: str
              ) -> Iterator[Tuple[str, ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child, cls
                yield from visit(child, f"{qual}.", "")
            elif isinstance(child, ast.ClassDef):
                yield from visit(
                    child, f"{prefix}{child.name}.", f"{prefix}{child.name}"
                )
            else:
                yield from visit(child, prefix, cls)

    yield from visit(tree, "", "")


def _module_set_bindings(tree: ast.Module) -> df.TagEnv:
    """Module-level names bound to set-typed values (seed UNORDERED)."""
    out: df.TagEnv = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        value = stmt.value
        is_set = isinstance(value, (ast.Set, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and df.dotted_name(value.func) in ("set", "frozenset")
        )
        if is_set:
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = frozenset({UNORDERED})
    return out


def _param_names(node) -> List[str]:
    args = node.args
    params = [a.arg for a in getattr(args, "posonlyargs", [])]
    params += [a.arg for a in args.args]
    params += [a.arg for a in args.kwonlyargs]
    if args.vararg:
        params.append(args.vararg.arg)
    if args.kwarg:
        params.append(args.kwarg.arg)
    return params


def lint_source(source: str, rel: str = "<string>") -> List[Diagnostic]:
    """Run every detlint rule over one module's source text.

    Per-function summaries (:mod:`repro.analysis.summaries`) are
    computed for the module first, so flows that cross calls between
    its functions are seen; calls into other modules are not resolved.
    A module that does not parse yields one ``det/syntax`` ERROR.
    """
    from repro.analysis import summaries as sm

    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return [
            Diagnostic(
                "det/syntax", Severity.ERROR,
                f"module does not parse: {exc.msg}",
                location=f"{rel}:{exc.lineno or 0}",
            )
        ]
    summaries = sm.compute_module_summaries(tree, rel)
    imap = df.import_map(tree)
    resolver = sm.CallResolver(summaries)
    module_sets = _module_set_bindings(tree)
    warn_scope = bool(_WARN_SCOPE.search(rel))
    serve_scope = bool(_SERVE_SCOPE.search(rel))
    rng_exempt = rel.endswith("util/rng.py")
    findings = _Findings(rel)
    for _, fn, class_prefix in _functions(tree):
        _FunctionAnalyzer(
            fn.body,
            module_sets,
            warn_scope=warn_scope,
            imap=imap,
            resolver=resolver,
            class_prefix=class_prefix,
            rng_exempt=rng_exempt,
            serve_scope=serve_scope,
        ).run(findings)
    _FunctionAnalyzer(
        tree.body, {}, warn_scope=warn_scope,
        imap=imap, resolver=resolver, rng_exempt=rng_exempt,
        serve_scope=serve_scope,
    ).run(findings)
    findings.diags.sort(key=lambda d: (d.location, d.rule, d.message))
    return findings.diags
