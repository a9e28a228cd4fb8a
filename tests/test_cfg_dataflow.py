"""Tests for the CFG builder and dataflow substrate behind detlint."""

import ast
import textwrap

from repro.analysis.cfg import BIND, EXPR, STMT, build_cfg
from repro.analysis.dataflow import dotted_name, join_envs, solve_forward


def cfg_of(src):
    return build_cfg(ast.parse(textwrap.dedent(src)).body)


def reachable(cfg, start=None):
    seen = set()
    frontier = [cfg.entry if start is None else start]
    while frontier:
        bid = frontier.pop()
        if bid in seen:
            continue
        seen.add(bid)
        frontier.extend(cfg.blocks[bid].succs)
    return seen


def block_of_line(cfg, lineno):
    """The block holding the statement that starts on ``lineno``."""
    for block in cfg.blocks:
        for action in block.actions:
            if action[0] == STMT and action[1].lineno == lineno:
                return block
    raise AssertionError(f"no block holds line {lineno}")


class TestCfgShapes:
    def test_linear_body_single_path(self):
        cfg = cfg_of("x = 1\ny = 2\n")
        assert cfg.exit in reachable(cfg)
        block = block_of_line(cfg, 1)
        assert [a[1].lineno for a in block.actions if a[0] == STMT] == [1, 2]

    def test_if_else_branches_rejoin(self):
        cfg = cfg_of(
            """
            if cond:
                a = 1
            else:
                a = 2
            b = 3
            """
        )
        join = block_of_line(cfg, 6)
        preds = cfg.preds(join.bid)
        assert block_of_line(cfg, 3).bid in preds
        assert block_of_line(cfg, 5).bid in preds

    def test_if_without_else_falls_through(self):
        cfg = cfg_of("if cond:\n    a = 1\nb = 2\n")
        join = block_of_line(cfg, 3)
        # Both the then-branch and the test block reach the join.
        assert len(cfg.preds(join.bid)) == 2

    def test_return_makes_following_code_dead(self):
        cfg = cfg_of("return 1\nx = 2\n")
        all_lines = [
            a[1].lineno
            for b in cfg.blocks
            for a in b.actions
            if a[0] == STMT
        ]
        assert all_lines == [1]  # x = 2 is unreachable and never lowered

    def test_return_diverts_to_exit(self):
        cfg = cfg_of("x = 1\nreturn x\n")
        block = block_of_line(cfg, 2)
        assert cfg.exit in block.succs

    def test_while_header_branches_and_loops(self):
        cfg = cfg_of(
            """
            while cond:
                body = 1
            after = 2
            """
        )
        header = next(
            b for b in cfg.blocks
            if any(a[0] == EXPR for a in b.actions)
        )
        assert len(header.succs) == 2
        body = block_of_line(cfg, 3)
        assert header.bid in body.succs  # back edge

    def test_break_exits_loop(self):
        cfg = cfg_of(
            """
            while cond:
                break
            after = 1
            """
        )
        after = block_of_line(cfg, 4)
        assert after.bid in reachable(cfg)
        assert cfg.exit in reachable(cfg, after.bid)

    def test_for_emits_bind_action(self):
        cfg = cfg_of("for x in items:\n    y = x\n")
        binds = [
            a for b in cfg.blocks for a in b.actions
            if a[0] == BIND and a[3] == "for"
        ]
        assert len(binds) == 1
        assert binds[0][1].id == "x"

    def test_with_emits_bind_action(self):
        cfg = cfg_of("with open(p) as fh:\n    data = fh.read()\n")
        binds = [
            a for b in cfg.blocks for a in b.actions
            if a[0] == BIND and a[3] == "with"
        ]
        assert len(binds) == 1

    def test_handler_sees_every_body_block(self):
        cfg = cfg_of(
            """
            try:
                a = 1
                if cond:
                    b = 2
            except ValueError:
                c = 3
            """
        )
        handler = block_of_line(cfg, 7)
        preds = set(cfg.preds(handler.bid))
        assert block_of_line(cfg, 3).bid in preds
        assert block_of_line(cfg, 5).bid in preds

    def test_finally_runs_on_return_path(self):
        cfg = cfg_of(
            """
            fh = acquire()
            try:
                return fh.read()
            finally:
                fh.close()
            """
        )
        ret = block_of_line(cfg, 4)
        fin = block_of_line(cfg, 6)
        # return diverts into the finally suite, which reaches the exit.
        assert fin.bid in ret.succs
        assert cfg.exit in reachable(cfg, fin.bid)


class TestSolver:
    @staticmethod
    def _taint_transfer(cfg):
        def transfer(bid, env):
            env = dict(env)
            for action in cfg.blocks[bid].actions:
                if action[0] != STMT:
                    continue
                stmt = action[1]
                if not (isinstance(stmt, ast.Assign)
                        and isinstance(stmt.targets[0], ast.Name)):
                    continue
                value = stmt.value
                if isinstance(value, ast.Call):
                    env[stmt.targets[0].id] = frozenset({"T"})
                elif isinstance(value, ast.Name):
                    env[stmt.targets[0].id] = env.get(value.id, frozenset())
                else:
                    env[stmt.targets[0].id] = frozenset()
            return env
        return transfer

    def test_branch_join_unions_tags(self):
        cfg = cfg_of(
            """
            if cond:
                x = taint()
            else:
                x = 1
            y = x
            """
        )
        envs = solve_forward(cfg, self._taint_transfer(cfg))
        assert envs[cfg.exit]["y"] == frozenset({"T"})

    def test_loop_reaches_fixpoint(self):
        cfg = cfg_of(
            """
            x = taint()
            y = 0
            while cond:
                y = x
            z = y
            """
        )
        envs = solve_forward(cfg, self._taint_transfer(cfg))
        assert envs[cfg.exit]["z"] == frozenset({"T"})

    def test_initial_env_seeds_entry(self):
        cfg = cfg_of("y = x\n")
        envs = solve_forward(
            cfg, self._taint_transfer(cfg), {"x": frozenset({"S"})}
        )
        assert envs[cfg.exit]["y"] == frozenset({"S"})

    def test_join_envs_unions_keywise(self):
        a = {"x": frozenset({"A"})}
        b = {"x": frozenset({"B"}), "y": frozenset({"C"})}
        joined = join_envs(a, b)
        assert joined["x"] == frozenset({"A", "B"})
        assert joined["y"] == frozenset({"C"})

    def test_dotted_name(self):
        node = ast.parse("np.random.default_rng()").body[0].value.func
        assert dotted_name(node) == "np.random.default_rng"
        call = ast.parse("f()[0].method()").body[0].value.func
        assert dotted_name(call) is None
