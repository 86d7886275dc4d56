"""Polynomial-time solvers for structured graph classes, as counting rules
over the leaf-to-root block order of find_blocks.

block_graph_Z puts tokens on all but one non-anchor vertex of every block,
and on all but one vertex of the last block, which has no anchor. That is
n - b tokens for b blocks, the zero forcing number of a block graph whose
blocks all have at least three vertices, and the tokens force everything:
once a block's anchor is filled, the blocks hanging from its token vertices
fill (by induction), and then any of its token vertices forces the one
vertex it left out. Z_q of such a block graph equals Z for every q, so
block_graph_Z is also its Z_q.

cactus_Z0 is the closed form m - n + 2, which is the number of cycles plus
one; the reason is in its docstring.
"""

from __future__ import annotations

from .certificates import certificate_from_tokens
from .errors import ScopeError
from .graphs import Graph, _is_cactus_block, _is_clique_block, find_blocks


def _require_block_graph(g: Graph):
    order = find_blocks(g)
    for block in order:
        if not _is_clique_block(g, block.vertices):
            raise ScopeError(
                f"not a block graph with blocks of size >= 3: offending block {sorted(block.vertices)}"
            )
    return order


def block_graph_Z(g: Graph) -> tuple:
    """Zero forcing number of a connected block graph whose blocks all have
    at least three vertices, with a token-set certificate. O(n + m)."""
    if g.n == 1:
        return 1, certificate_from_tokens(g, [0])
    tokens = []
    # No fill bookkeeping: earlier blocks hold this block's members only as their unfilled anchors.
    for block in _require_block_graph(g):
        tokens.extend(sorted(block.vertices - {block.anchor})[:-1])
    return len(tokens), certificate_from_tokens(g, tokens)


def cactus_Z0(g: Graph) -> int:
    """Z_0 of a connected cactus: m - n + 2, after checking that every block
    is a bridge or an induced cycle. O(n + m).

    The block-tree dynamic program (kept as the test oracle) picks, for
    every vertex, the one incident block that fills it; each other block
    containing the vertex counts it as a seed, and a block that needs k
    fills (1 for a bridge, 2 for a cycle) and has s <= k seeds costs k - s
    tokens. Nothing here depends on a root. A vertex in d blocks is a seed
    in d - 1 of them, so the b blocks hold n + b - 1 memberships and b - 1
    seeds in all, whatever the choice. Every feasible choice therefore
    costs (bridges + 2 * cycles) - (b - 1) = cycles + 1 tokens, and a
    cactus has m - n + 1 cycles. A single vertex (no blocks) gives 1.
    """
    if not all(_is_cactus_block(g, block.vertices) for block in find_blocks(g)):
        raise ScopeError("cactus_Z0 requires a cactus graph (every edge on at most one cycle)")
    return g.m - g.n + 2
