"""Polynomial-time solvers for structured graph classes.

block_graph_Z consumes the leaf-to-root block order: every block except the
last gets tokens on all but one of its non-anchor vertices (the anchor stays
unfilled and later triggers the deferred fill for free), and the last block
gets tokens on all but one vertex. Z_q of such a block graph equals Z for
every q, so block_graph_Zq just reuses the same run.

cactus_Z0 is a dynamic program over the tree of blocks, evaluated in one
pass over the same leaf-to-root block order. For a block hanging from vertex
v, val[i][j] is the token cost of the block's whole subtree when v is
pre-filled by i in {0,1} outside fills and j in {0,1,2} member subtrees
deliver their own shared vertex. Per vertex, dp1 accumulates the cheapest
pre-filled variant of each attached block and dp0 adds the cheapest
single-block upgrade to self-delivery.
"""

from __future__ import annotations

from .certificates import certificate_from_tokens
from .errors import ScopeError
from .graphs import Graph, _induced_edge_count, _is_cactus_block, find_blocks

_INF = float("inf")


def _require_block_graph(g: Graph, min_block_size: int = 3):
    order = find_blocks(g)
    for block in order:
        size = len(block.vertices)
        if size < min_block_size or _induced_edge_count(g, block.vertices) != size * (size - 1) // 2:
            raise ScopeError(
                f"not a block graph with blocks of size >= {min_block_size}: "
                f"offending block {sorted(block.vertices)}"
            )
    return order


def block_graph_Z(g: Graph, debug_log: list | None = None) -> tuple:
    """Zero forcing number of a connected block graph whose blocks all have
    at least three vertices, with a token-set certificate. O(n + m)."""
    if g.n == 1:
        return 1, certificate_from_tokens(g, [0])
    order = _require_block_graph(g)
    filled = bytearray(g.n)
    tokens = []
    pending = []  # (block index, vertex whose fill waits on the anchor)
    for idx, block in enumerate(order):
        members = sorted(block.vertices)
        spent_here = []
        if block.anchor is None:
            unfilled = [x for x in members if not filled[x]]
            spent_here = unfilled[:-1]
            for x in members:
                filled[x] = 1
        else:
            v = block.anchor
            if sum(filled[x] for x in members) >= len(members) - 1:
                for x in members:
                    filled[x] = 1
            else:
                unfilled_others = [x for x in members if x != v and not filled[x]]
                spent_here = unfilled_others[:-1]
                deferred = unfilled_others[-1]
                for x in spent_here:
                    filled[x] = 1
                # The deferred vertex fills by a force: immediately if the
                # anchor is already filled, otherwise once the anchor fills
                # later. Either way it never participates again.
                if not filled[v]:
                    pending.append((idx, deferred))
                filled[deferred] = 1
        tokens.extend(spent_here)
        if debug_log is not None:
            debug_log.append(
                {
                    "block": members,
                    "anchor": block.anchor,
                    "tokens": spent_here,
                    "pending": [d for i, d in pending if i == idx],
                }
            )
    cert = certificate_from_tokens(g, tokens)
    return len(tokens), cert


def block_graph_Zq(g: Graph, q: int, debug_log: list | None = None) -> int:
    """Z_q of a block graph with blocks of size >= 3 equals Z for every q."""
    if q < 0:
        raise ScopeError("q must be nonnegative")
    value, _ = block_graph_Z(g, debug_log=debug_log)
    return value


def _min_defined(*values):
    best = _INF
    for v in values:
        if v is not None and v < best:
            best = v
    return best


def cactus_Z0(g: Graph) -> int:
    """Z_0 of a connected cactus: one pass of the block-tree DP over the
    find_blocks order, rooted at vertex 0. O(n + m).

    One root suffices. A DP solution picks, for every vertex, the one
    incident block that fills it; each other block containing the vertex
    counts it as a seed, and a block that needs k fills (1 for a bridge, 2
    for a cycle) and has s <= k seeds costs k - s tokens. Choices, seeds and
    costs are defined without a root; rooting at r only decides whether a
    choice reads as dp1 (filled by the parent block) or as dp0's upgrade
    (filled by a child block). Every root therefore minimises the same sum
    over the same choices and returns the same value.
    """
    n = g.n
    if n == 1:
        return 1
    dp0 = [0.0] * n  # subtree cost when the vertex must deliver itself
    dp1 = [0.0] * n  # subtree cost when the vertex is filled from outside
    min_upgrade = [_INF] * n
    for block in find_blocks(g):
        if not _is_cactus_block(g, block.vertices):
            raise ScopeError("cactus_Z0 requires a cactus graph (every edge on at most one cycle)")
        # The DFS behind find_blocks starts at vertex 0, so the last block
        # (no anchor) hangs from it.
        p = 0 if block.anchor is None else block.anchor
        members = block.vertices - {p}
        total = 0.0
        min1 = _INF
        min2 = _INF
        for x in members:
            # Every block hanging below x came earlier in the order.
            dp0[x] += min_upgrade[x]  # stays infinite when nothing hangs below x
            total += dp1[x]
            diff = dp0[x] - dp1[x]
            if diff < min1:
                min1, min2 = diff, min1
            elif diff < min2:
                min2 = diff
        if len(members) == 1:  # bridge block: the singular-vertex recurrences
            val00 = 1 + total
            val01 = total + min1
            val02 = None
            val10 = total
            val11 = None
        else:  # cycle block: two fills anywhere complete the cycle
            val00 = 2 + total
            val01 = 1 + total + min1
            val02 = total + min1 + min2
            val10 = 1 + total
            val11 = total + min1
        base = _min_defined(val10, val11)
        dp0[p] += base
        dp1[p] += base
        upgrade = _min_defined(val00, val01, val02) - base
        if upgrade < min_upgrade[p]:
            min_upgrade[p] = upgrade
    return int(dp0[0] + min_upgrade[0])
