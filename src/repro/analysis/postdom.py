"""Post-dominance and control dependence (Ferrante-Ottenstein-Warren).

Static control-dependence edges in the program dependence graph (§4.1) are
computed the classical way: node *n* is control dependent on predicate *p*
(with branch label *l*) iff *n* post-dominates the *l*-successor of *p*
but does not post-dominate *p* itself.

Immediate post-dominators come from the Cooper-Harvey-Kennedy iterative
algorithm run on the reversed CFG — near-linear in practice, which matters
because the dynamic-graph builder computes control dependence for every
procedure of the program (big straight-line procedures made the naive
full-set formulation quadratic).
"""

from __future__ import annotations

from typing import Callable

from .cfg import CFG


def reverse_postorder(root: int, edges: Callable[[int], list[int]]) -> list[int]:
    """Reverse postorder of the nodes reachable from *root* along *edges*
    (``cfg.successors`` for the CFG, ``cfg.predecessors`` for its reverse)."""
    order: list[int] = []
    visited: set[int] = {root}
    # Iterative DFS; each stack entry keeps its node's edge list and cursor.
    stack: list[tuple[int, list[int], int]] = [(root, edges(root), 0)]
    while stack:
        node, targets, edge_index = stack[-1]
        if edge_index < len(targets):
            stack[-1] = (node, targets, edge_index + 1)
            nxt = targets[edge_index]
            if nxt not in visited:
                visited.add(nxt)
                stack.append((nxt, edges(nxt), 0))
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    return order


def immediate_postdominators(cfg: CFG) -> dict[int, int]:
    """The immediate post-dominator of each node (exit maps to itself).

    Cooper-Harvey-Kennedy on the reversed graph.  Nodes that cannot reach
    the exit (none, for structured PCL) are omitted.
    """
    order = reverse_postorder(cfg.exit, cfg.predecessors)
    index = {node: i for i, node in enumerate(order)}
    ipdom: dict[int, int] = {cfg.exit: cfg.exit}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = ipdom[a]
            while index[b] > index[a]:
                b = ipdom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in order:
            if node == cfg.exit:
                continue
            candidates = [s for s in cfg.successors(node) if s in ipdom]
            if not candidates:
                continue
            new = candidates[0]
            for succ in candidates[1:]:
                new = intersect(new, succ)
            if ipdom.get(node) != new:
                ipdom[node] = new
                changed = True
    return ipdom


def _tree_depths(ipdom: dict[int, int], root: int) -> dict[int, int]:
    depths: dict[int, int] = {root: 0}

    def depth_of(node: int) -> int:
        chain: list[int] = []
        while node not in depths:
            chain.append(node)
            node = ipdom[node]
        base = depths[node]
        for offset, item in enumerate(reversed(chain), start=1):
            depths[item] = base + offset
        return depths[chain[0]] if chain else base

    for node in ipdom:
        depth_of(node)
    return depths


def postdominators(cfg: CFG) -> dict[int, set[int]]:
    """Full post-dominator sets (ancestors in the ipdom tree, plus self).

    Provided for tests and exploratory queries; the control-dependence
    construction itself uses the tree directly.  Nodes that cannot reach
    the exit are mapped to ``{node}``.
    """
    ipdom = immediate_postdominators(cfg)
    result: dict[int, set[int]] = {}
    for node in cfg.nodes:
        if node not in ipdom:
            result[node] = {node}
            continue
        doms = {node}
        runner = node
        while runner != cfg.exit:
            runner = ipdom[runner]
            doms.add(runner)
        result[node] = doms
    return result


def control_dependence(cfg: CFG) -> dict[int, list[tuple[int, str]]]:
    """Map each CFG node to the predicates it is control dependent on.

    Returns ``node -> [(predicate_node, branch_label), ...]``.  Follows the
    Ferrante-Ottenstein-Warren construction: for each branch edge
    ``(a, b, label)`` where ``b`` does not post-dominate ``a``, every node
    on the post-dominator-tree path from ``b`` up to (but excluding)
    ``ipdom(a)`` is control dependent on ``(a, label)``.
    """
    ipdom = immediate_postdominators(cfg)
    deps: dict[int, list[tuple[int, str]]] = {n: [] for n in cfg.nodes}

    for a in cfg.nodes:
        for b, label in cfg.succs[a]:
            if a not in ipdom or b not in ipdom:
                continue
            if _postdominates_via(b, a, ipdom, cfg.exit):
                continue  # b post-dominates a: not dependence-inducing
            stop = ipdom[a]
            runner = b
            seen: set[int] = set()
            while runner != stop and runner not in seen:
                seen.add(runner)
                if (a, label) not in deps[runner]:
                    deps[runner].append((a, label))
                nxt = ipdom.get(runner)
                if nxt is None or nxt == runner:
                    break
                runner = nxt
    return deps


def _postdominates_via(b: int, a: int, ipdom: dict[int, int], exit_node: int) -> bool:
    """True iff *b* post-dominates *a* (b is a or an ipdom-tree ancestor)."""
    runner = a
    while True:
        if runner == b:
            return True
        if runner == exit_node:
            return b == exit_node
        runner = ipdom[runner]
