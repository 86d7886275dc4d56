"""Polynomial-time solvers for structured graph classes, as counting rules
over the leaf-to-root block order of find_blocks, on any graph.

block_graph_Z puts tokens on all but one non-anchor vertex of every block,
on all but one vertex of each component's last block, which has no
anchor, and on every isolated vertex. On a connected block graph whose
blocks all have at least three vertices, that is n - b tokens for b
blocks, the zero forcing number, and the tokens force everything: once a
block's anchor is filled, the blocks hanging from its token vertices fill
(by induction), and then any of its token vertices forces the one vertex
it left out. Such a graph has Z_0 = Z_q = Z for every q. Z_0 and Z both
add over components and Z_0 <= Z_q <= Z, so on a forest of such block
graphs Z_q = Z at every q too, and block_graph_Z is its Z_q.

cactus_Z0 is the closed form m - n + 2c for c components, which is the
number of cycles plus c; the reason is in its docstring.
"""

from __future__ import annotations

from .errors import ScopeError
from .graphs import Graph, _is_cactus_block, _is_clique_block, find_blocks


def _require_block_graph(g: Graph):
    order = find_blocks(g)
    for block in order:
        if not _is_clique_block(block):
            raise ScopeError(
                f"not a block graph with blocks of size >= 3: offending block {sorted(block.vertices)}"
            )
    return order


def block_graph_Z(g: Graph) -> tuple:
    """Zero forcing number of a forest of block graphs whose blocks all have
    at least three vertices, and a zero forcing set of that size as a list
    of tokens. O(n + m)."""
    tokens = [v for v, nbrs in enumerate(g.adjacency) if not nbrs]
    # No fill bookkeeping: earlier blocks hold this block's members only as their unfilled anchors.
    for block in _require_block_graph(g):
        tokens.extend(sorted(block.vertices - {block.anchor})[:-1])
    return len(tokens), tokens


def cactus_Z0(g: Graph) -> int:
    """Z_0 of a forest of cacti: m - n + 2c for c connected components,
    after checking that every block is a bridge or an induced cycle.
    O(n + m).

    The block-tree dynamic program (kept as the test oracle) picks, for
    every vertex, the one incident block that fills it; each other block
    containing the vertex counts it as a seed, and a block that needs k
    fills (1 for a bridge, 2 for a cycle) and has s <= k seeds costs k - s
    tokens. Nothing here depends on a root. A vertex in d blocks is a seed
    in d - 1 of them, so the b blocks hold n + b - 1 memberships and b - 1
    seeds in all, whatever the choice. Every feasible choice therefore
    costs (bridges + 2 * cycles) - (b - 1) = cycles + 1 tokens, and a
    connected cactus has m - n + 1 cycles. A single vertex gives 1. Z_0
    adds over components, and by the membership count each component of
    k vertices has sum(|B| - 1) = k - 1, so c = n - sum(|B| - 1).
    """
    blocks = find_blocks(g)
    if not all(_is_cactus_block(block) for block in blocks):
        raise ScopeError("cactus_Z0 requires a cactus graph (every edge on at most one cycle)")
    components = g.n - sum(len(block.vertices) - 1 for block in blocks)
    return g.m - g.n + 2 * components
