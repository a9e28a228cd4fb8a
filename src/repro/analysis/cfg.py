"""Per-function control-flow graphs over the Python AST.

:mod:`repro.analysis.detlint` needs path-sensitive facts ("does this
tainted value reach a sink on *some* path?") that a flat ``ast.walk``
cannot answer.  This module lowers one function body (or a module
body) into a graph of basic blocks suitable for a worklist dataflow
solver (:mod:`repro.analysis.dataflow`).

Scope and limits — deliberately small:

* Blocks hold *actions*, not raw statements: simple statements pass
  through as ``("stmt", node)``; branch/loop tests surface as
  ``("expr", node)``; ``for``/``with``/``except`` target bindings
  surface as ``("bind", target, source, how)`` so a transfer function
  can model them without re-deriving control structure.
* ``try`` is over-approximated: every block created inside the ``try``
  body gets an edge to each handler (an exception may interrupt the
  body anywhere), and ``finally`` blocks are routed on both the normal
  and the diverting (``return``/``raise``/uncaught) paths.
* ``return`` and ``raise`` divert through enclosing ``finally`` blocks
  to the single synthetic exit block.  Implicit exceptions from
  arbitrary calls are *not* modeled; only explicit ``raise`` and the
  try-body over-approximation introduce exceptional edges.
* Nested ``def``/``class`` statements are opaque ``("stmt", ...)``
  actions; callers analyze each function object separately.

This is a may-analysis substrate: extra edges make the analyses more
conservative, never less sound for the lint rules built on top.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = ["BasicBlock", "ControlFlowGraph", "build_cfg"]

#: Action kinds appearing in :attr:`BasicBlock.actions`.
STMT = "stmt"
EXPR = "expr"
BIND = "bind"


@dataclass
class BasicBlock:
    """A straight-line run of actions with outgoing edges."""

    bid: int
    actions: List[tuple] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)

    def add_succ(self, bid: int) -> None:
        if bid not in self.succs:
            self.succs.append(bid)


class ControlFlowGraph:
    """Basic blocks with a single entry and a single synthetic exit."""

    def __init__(self) -> None:
        self.blocks: List[BasicBlock] = []
        self.entry = self._new_block().bid
        self.exit = self._new_block().bid

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(bid=len(self.blocks))
        self.blocks.append(block)
        return block

    def add_edge(self, src: int, dst: int) -> None:
        self.blocks[src].add_succ(dst)

    def preds(self, bid: int) -> List[int]:
        return [b.bid for b in self.blocks if bid in b.succs]


class _Builder:
    def __init__(self, cfg: ControlFlowGraph) -> None:
        self.cfg = cfg
        # (continue_target, break_target) for the innermost loops.
        self.loop_stack: List[Tuple[int, int]] = []
        # Entry blocks of active finally suites, innermost last.
        self.finally_stack: List[int] = []

    # -- plumbing ----------------------------------------------------

    def _block(self) -> int:
        return self.cfg._new_block().bid

    def _divert(self, src: int) -> None:
        """Edge for return/raise: through the innermost finally, else exit."""
        if self.finally_stack:
            self.cfg.add_edge(src, self.finally_stack[-1])
        else:
            self.cfg.add_edge(src, self.cfg.exit)

    # -- statement sequencing ----------------------------------------

    def seq(self, stmts: Sequence[ast.stmt], cur: Optional[int]) -> Optional[int]:
        """Lower ``stmts`` starting in block ``cur``; returns the fall-
        through block, or ``None`` when every path diverted."""
        for stmt in stmts:
            if cur is None:
                # Unreachable code after return/raise/break: skip.
                return None
            cur = self._stmt(stmt, cur)
        return cur

    def _stmt(self, stmt: ast.stmt, cur: int) -> Optional[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, cur)
        if isinstance(stmt, ast.While):
            return self._while(stmt, cur)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, cur)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, cur)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, cur)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.cfg.blocks[cur].actions.append((STMT, stmt))
            self._divert(cur)
            return None
        if isinstance(stmt, ast.Break):
            if self.loop_stack:
                self.cfg.add_edge(cur, self.loop_stack[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            if self.loop_stack:
                self.cfg.add_edge(cur, self.loop_stack[-1][0])
            return None
        # Simple statements (and opaque nested def/class) stay in-block.
        self.cfg.blocks[cur].actions.append((STMT, stmt))
        return cur

    # -- control constructs ------------------------------------------

    def _if(self, stmt: ast.If, cur: int) -> Optional[int]:
        self.cfg.blocks[cur].actions.append((EXPR, stmt.test))
        after = self._block()
        then_entry = self._block()
        self.cfg.add_edge(cur, then_entry)
        then_exit = self.seq(stmt.body, then_entry)
        if then_exit is not None:
            self.cfg.add_edge(then_exit, after)
        if stmt.orelse:
            else_entry = self._block()
            self.cfg.add_edge(cur, else_entry)
            else_exit = self.seq(stmt.orelse, else_entry)
            if else_exit is not None:
                self.cfg.add_edge(else_exit, after)
        else:
            self.cfg.add_edge(cur, after)
        return after

    def _while(self, stmt: ast.While, cur: int) -> Optional[int]:
        header = self._block()
        self.cfg.add_edge(cur, header)
        self.cfg.blocks[header].actions.append((EXPR, stmt.test))
        after = self._block()
        body_entry = self._block()
        self.cfg.add_edge(header, body_entry)
        self.cfg.add_edge(header, after)
        self.loop_stack.append((header, after))
        body_exit = self.seq(stmt.body, body_entry)
        self.loop_stack.pop()
        if body_exit is not None:
            self.cfg.add_edge(body_exit, header)
        if stmt.orelse:
            return self.seq(stmt.orelse, after)
        return after

    def _for(self, stmt, cur: int) -> Optional[int]:
        header = self._block()
        self.cfg.add_edge(cur, header)
        self.cfg.blocks[header].actions.append((BIND, stmt.target, stmt.iter, "for"))
        after = self._block()
        body_entry = self._block()
        self.cfg.add_edge(header, body_entry)
        self.cfg.add_edge(header, after)
        self.loop_stack.append((header, after))
        body_exit = self.seq(stmt.body, body_entry)
        self.loop_stack.pop()
        if body_exit is not None:
            self.cfg.add_edge(body_exit, header)
        if stmt.orelse:
            return self.seq(stmt.orelse, after)
        return after

    def _with(self, stmt, cur: int) -> Optional[int]:
        for item in stmt.items:
            self.cfg.blocks[cur].actions.append(
                (BIND, item.optional_vars, item.context_expr, "with")
            )
        return self.seq(stmt.body, cur)

    def _try(self, stmt: ast.Try, cur: int) -> Optional[int]:
        finally_entry: Optional[int] = None
        if stmt.finalbody:
            finally_entry = self._block()
            self.finally_stack.append(finally_entry)

        body_first = len(self.cfg.blocks)
        body_entry = self._block()
        self.cfg.add_edge(cur, body_entry)
        body_exit = self.seq(stmt.body, body_entry)
        if body_exit is not None and stmt.orelse:
            body_exit = self.seq(stmt.orelse, body_exit)
        body_blocks = list(range(body_first, len(self.cfg.blocks)))

        handler_exits: List[int] = []
        for handler in stmt.handlers:
            h_entry = self._block()
            # An exception may interrupt the body before any statement
            # ran, or after any block within it.
            self.cfg.add_edge(cur, h_entry)
            for bid in body_blocks:
                self.cfg.add_edge(bid, h_entry)
            if handler.name:
                self.cfg.blocks[h_entry].actions.append(
                    (BIND, ast.Name(id=handler.name, ctx=ast.Store()),
                     handler.type, "except")
                )
            h_exit = self.seq(handler.body, h_entry)
            if h_exit is not None:
                handler_exits.append(h_exit)

        normal_exits = handler_exits + ([body_exit] if body_exit is not None else [])
        if finally_entry is not None:
            self.finally_stack.pop()
            for bid in normal_exits:
                self.cfg.add_edge(bid, finally_entry)
            # Uncaught exceptions from the body also run the finally.
            for bid in body_blocks:
                self.cfg.add_edge(bid, finally_entry)
            self.cfg.add_edge(cur, finally_entry)
            f_exit = self.seq(stmt.finalbody, finally_entry)
            if f_exit is None:
                return None
            after = self._block()
            self.cfg.add_edge(f_exit, after)
            # Diverting paths (return/raise/uncaught) continue outward
            # after the finally suite runs.
            self._divert(f_exit)
            return after
        if not normal_exits:
            return None
        after = self._block()
        for bid in normal_exits:
            self.cfg.add_edge(bid, after)
        return after


def build_cfg(body: Sequence[ast.stmt]) -> ControlFlowGraph:
    """Lower a function (or module) body into a :class:`ControlFlowGraph`."""
    cfg = ControlFlowGraph()
    builder = _Builder(cfg)
    start = cfg._new_block().bid
    cfg.add_edge(cfg.entry, start)
    tail = builder.seq(list(body), start)
    if tail is not None:
        cfg.add_edge(tail, cfg.exit)
    return cfg
