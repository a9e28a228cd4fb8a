"""Forward dataflow over :mod:`repro.analysis.cfg` graphs.

Two layers live here:

* a generic worklist solver (:func:`solve_forward`) for monotone
  forward analyses whose environments are ``{name: frozenset(tags)}``
  maps joined by key-wise union — the substrate for every detlint rule;
* name resolution that needs no execution: the module's import map
  (:func:`import_map`) and the RNG provenance verdict of a call
  (:func:`classify_rng_call`).

Everything is syntactic: no imports are followed, no values are
evaluated.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.analysis.cfg import ControlFlowGraph

__all__ = [
    "TagEnv",
    "dotted_name",
    "join_envs",
    "solve_forward",
    "import_map",
    "resolve_dotted",
    "classify_rng_call",
    "RNG_SEEDED",
    "RNG_UNSEEDED",
]

#: One dataflow environment: variable name -> set of abstract tags.
TagEnv = Dict[str, FrozenSet[str]]


def dotted_name(node: ast.AST) -> Optional[str]:
    """Dotted name of an attribute chain (``np.random.normal``), or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def join_envs(a: TagEnv, b: TagEnv) -> TagEnv:
    """Key-wise union of two tag environments."""
    out = dict(a)
    for name, tags in b.items():
        prev = out.get(name)
        out[name] = tags if prev is None else prev | tags
    return out


def solve_forward(
    cfg: ControlFlowGraph,
    transfer: Callable[[int, TagEnv], TagEnv],
    initial: Optional[TagEnv] = None,
) -> Dict[int, TagEnv]:
    """Run ``transfer`` to a fixpoint; returns the in-environment per block.

    ``transfer(block_id, env_in)`` must be monotone in ``env_in`` and
    return the out-environment.  Termination follows from the finite
    tag alphabet and the union join.
    """
    in_envs: Dict[int, TagEnv] = {cfg.entry: dict(initial or {})}
    worklist = [cfg.entry]
    while worklist:
        bid = worklist.pop()
        env_out = transfer(bid, in_envs.get(bid, {}))
        for succ in cfg.blocks[bid].succs:
            prev = in_envs.get(succ)
            merged = env_out if prev is None else join_envs(prev, env_out)
            if prev is None or merged != prev:
                in_envs[succ] = merged
                if succ not in worklist:
                    worklist.append(succ)
    return in_envs


# ----------------------------------------------------------------------
# Import resolution
# ----------------------------------------------------------------------


def import_map(tree: ast.Module, package: str = "") -> Dict[str, str]:
    """Local name -> fully dotted target, from every import in the module.

    ``import numpy.random as nr`` maps ``nr`` to ``numpy.random``;
    ``from repro.util.rng import substream as sub`` maps ``sub`` to
    ``repro.util.rng.substream``; a plain ``import numpy.random`` maps
    ``numpy`` to ``numpy`` (attribute chains resolve the rest).
    Relative imports resolve against ``package`` (the dotted name of
    the package containing the module) when given, and are skipped
    otherwise.  Imports inside functions count too — a laundering
    helper that does ``import random`` locally still resolves.
    """
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    out[item.asname] = item.name
                else:
                    head = item.name.split(".", 1)[0]
                    out[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if not package:
                    continue
                parts = package.split(".")
                if node.level - 1 >= len(parts):
                    continue
                anchor = parts[: len(parts) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for item in node.names:
                if item.name == "*":
                    continue
                out[item.asname or item.name] = (
                    f"{base}.{item.name}" if base else item.name
                )
    return out


def resolve_dotted(name: str, imap: Dict[str, str]) -> str:
    """Expand the head of a dotted name through the import map.

    ``r.random`` with ``{"r": "random"}`` resolves to ``random.random``;
    unmapped heads come back unchanged (locals, builtins, parameters).
    """
    head, _, rest = name.partition(".")
    target = imap.get(head)
    if target is None:
        return name
    return f"{target}.{rest}" if rest else target


# ----------------------------------------------------------------------
# RNG provenance classification
# ----------------------------------------------------------------------

#: Verdicts of :func:`classify_rng_call`.
RNG_SEEDED = "seeded"
RNG_UNSEEDED = "unseeded"

#: Call-name tails that construct randomness the blessed way (the
#: spec-seed substream machinery in :mod:`repro.util.rng`).
_SEEDED_TAILS = frozenset({"substream", "spawn"})
#: Call-name tails that construct raw, repo-invariant-breaking RNGs.
_UNSEEDED_CTOR_TAILS = frozenset({"default_rng", "Random", "RandomState"})
#: Fully-resolved names of nondeterministic one-shot sources.
_UNSEEDED_EXACT = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})


def classify_rng_call(name: str, imap: Dict[str, str]) -> Optional[str]:
    """Classify a call name as seeded / unseeded randomness, or neither.

    ``name`` is the dotted call name as written; the import map lets
    aliased imports (``import random as r``, ``import numpy.random as
    nr``, ``from numpy.random import default_rng``) resolve to their
    real modules.  Seeded wins over unseeded: anything reaching
    ``repro.util.rng`` is the blessed path even though it constructs a
    raw generator internally.
    """
    full = resolve_dotted(name, imap)
    tail = full.rsplit(".", 1)[-1]
    head_resolved = name.partition(".")[0] in imap
    if full.startswith("repro.util.rng.") or full == "repro.util.rng":
        return RNG_SEEDED
    if tail in _SEEDED_TAILS:
        return RNG_SEEDED
    if head_resolved:
        # Module-path checks only apply to names that demonstrably
        # refer to an import — a local variable that happens to be
        # called ``random`` is not the stdlib module.
        if full in _UNSEEDED_EXACT or full.startswith("secrets."):
            return RNG_UNSEEDED
        if full == "random" or full.startswith("random."):
            return RNG_UNSEEDED
        if full.startswith("numpy.random") or full.startswith("np.random"):
            return RNG_UNSEEDED
    if tail in _UNSEEDED_CTOR_TAILS:
        return RNG_UNSEEDED
    return None
