"""Live-variable analysis (backward may-analysis over the CFG).

The paper defines ``USED(i)`` as the variables that *may be read* during
an e-block (§5.1) — a forward, syntactic over-approximation.  Classic
liveness sharpens it: a variable only needs prelogging if it may be read
*before being overwritten*.  ``EBlockPolicy(live_prelogs=True)`` applies
the refinement to loop and chunk e-blocks, shrinking prelogs without
affecting replay fidelity (the dropped variables are dead on entry, so no
replayed read can miss them).

This is exactly the kind of "data flow analysis commonly used in
optimizing compilers" the paper leans on (§1, citing Kennedy's survey).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from .cfg import CFG
from .dataflow import ReachingDefinitions, Summaries, UseDefTable


@dataclass
class Liveness:
    """Result of live-variable analysis for one CFG."""

    cfg: CFG
    live_in: dict[int, set[str]] = field(default_factory=dict)
    live_out: dict[int, set[str]] = field(default_factory=dict)

    def live_at_stmt(self, stmt_node_id: int) -> set[str]:
        """Variables live immediately before the given AST statement."""
        cfg_node = self.cfg.node_of_stmt.get(stmt_node_id)
        if cfg_node is None:
            return set()
        return set(self.live_in.get(cfg_node, ()))


def live_variables(
    cfg: CFG, summaries: Summaries, use_def: UseDefTable | None = None
) -> Liveness:
    """Iterative backward liveness: ``in[n] = use[n] ∪ (out[n] - def[n])``.

    Array writes are weak (they do not kill the array), matching the
    reaching-definitions treatment.
    """
    if use_def is None:
        use_def = UseDefTable(summaries)
    use: dict[int, set[str]] = {}
    defs: dict[int, set[str]] = {}
    for node_id, node in cfg.nodes.items():
        if node.stmt is None:
            use[node_id], defs[node_id] = set(), set()
        else:
            use[node_id], defs[node_id] = use_def.of(node.stmt)
    return _solve(cfg, use, defs)


def liveness_from_reaching(reach: ReachingDefinitions) -> Liveness:
    """:func:`live_variables` over the USE/DEF sets a reaching-definitions
    result already holds (a compile's, in its static graph), so no
    statement's sets are computed again."""
    return _solve(reach.cfg, reach.uses, reach.defs)


def _solve(cfg: CFG, use: dict[int, set[str]], defs: dict[int, set[str]]) -> Liveness:
    define: dict[int, set[str]] = {}
    for node_id, node in cfg.nodes.items():
        stmt = node.stmt
        if isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Index):
            define[node_id] = defs[node_id] - {stmt.target.name}  # weak update: no kill
        else:
            define[node_id] = defs[node_id]

    live_in: dict[int, set[str]] = {n: set() for n in cfg.nodes}
    live_out: dict[int, set[str]] = {n: set() for n in cfg.nodes}

    worklist = list(cfg.nodes)
    while worklist:
        node_id = worklist.pop()
        out: set[str] = set()
        for succ in cfg.successors(node_id):
            out |= live_in[succ]
        new_in = use[node_id] | (out - define[node_id])
        live_out[node_id] = out
        if new_in != live_in[node_id]:
            live_in[node_id] = new_in
            for pred in cfg.predecessors(node_id):
                if pred not in worklist:
                    worklist.append(pred)

    return Liveness(cfg=cfg, live_in=live_in, live_out=live_out)
