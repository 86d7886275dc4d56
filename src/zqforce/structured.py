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

block_Z0 is the one statement of Z_0 as a fold over blocks; the reason it
holds is in its docstring. cactus_Z0 is its special case on a forest of
cacti, m - n + 2c for c components.
"""

from __future__ import annotations

from .errors import ScopeError
from .game import GameConfig, solve_zq
from .graphs import Block, Graph, _is_cactus_block, _is_clique_block, find_blocks


def block_graph_Z(g: Graph) -> tuple:
    """Zero forcing number of a forest of block graphs whose blocks all have
    at least three vertices, and a zero forcing set of that size as a list
    of tokens. O(n + m)."""
    tokens = [v for v, nbrs in enumerate(g.adjacency) if not nbrs]
    # No fill bookkeeping: earlier blocks hold this block's members only as their unfilled anchors.
    for block in find_blocks(g):
        if not _is_clique_block(block):
            raise ScopeError(f"not a block graph with blocks >= 3: block {sorted(block.vertices)}")
        tokens.extend(sorted(block.vertices - {block.anchor})[:-1])
    return len(tokens), tokens


def _closed_Z0(block: Block):
    """Z_0 of a clique, a bridge included (|B| - 1), or of a cycle (2);
    None for any other block."""
    if _is_clique_block(block) or len(block.vertices) == 2:
        return len(block.vertices) - 1
    return 2 if _is_cactus_block(block) else None


def _block_graph(g: Graph, block: Block) -> Graph:
    """The subgraph of g induced on the block, renumbered densely. Only the
    non-anchor members' adjacency is read: every edge of the block has a
    non-anchor end. A vertex is a non-anchor member of exactly one block,
    so building every block this way reads each adjacency list once."""
    pos = {v: i for i, v in enumerate(sorted(block.vertices))}
    edges = [(pos[v], pos[w]) for v in pos if v != block.anchor for w in g.adjacency[v] if w in pos]
    return Graph.from_edges(len(pos), edges)


def block_Z0(g: Graph, cap: int) -> int:
    """Z_0 of any graph as a fold over its blocks:

        Z_0(G) = c + sum over blocks B of (Z_0(B) - 1)

    for c components, an isolated vertex being a component in no block.
    A bridge, a cycle or a clique gets its closed value (1, 2, |B| - 1);
    any other block is searched by solve_zq at q = 0 if it has at most cap
    vertices. A larger one raises ScopeError before any block is searched.
    O(n + m) plus the searches.

    Why it holds. At q = 0 an announcement names one unfilled component,
    and the oracle must reveal all of it; the in-window forces that follow
    are the positive semidefinite colour-change rule, under which a filled
    vertex forces its only unfilled neighbour inside one component of the
    unfilled vertices. No choice is left to the oracle, that rule's final
    filled set grows with the set it starts from, and announcing is free,
    so tokens may all be placed first: Z_0 is the PSD zero forcing number
    Z_+ (Barioli et al., Zero forcing parameters and minimum rank problems,
    2010; Ekstrand et al., Positive semidefinite zero forcing, 2013). Z_+
    adds over components, and its cut-vertex reduction states: if a cut
    vertex v splits a connected G into G_1, ..., G_k, each taken with v,
    then Z_+(G) = sum Z_+(G_i) - (k - 1). Splitting every cut vertex in
    turn leaves the blocks, and a vertex in d blocks is split d - 1 times;
    a connected graph's b blocks hold n + b - 1 memberships, so the splits
    cost b - 1 in all and Z_+(G) = 1 + sum (Z_+(B) - 1). Summing over
    components, with Z_+ = 1 for an isolated vertex, gives the fold.

    On a cactus the fold needs no search, and it is the number of cycles
    plus c. The block-tree dynamic program (kept as a test oracle) shows it
    directly: it picks, for every vertex, the one incident block that fills
    it; each other block holding the vertex counts it as a seed, and a
    block that needs k fills (1 for a bridge, 2 for a cycle) and has s <= k
    seeds costs k - s tokens. A vertex in d blocks is a seed in d - 1 of
    them, so every feasible choice costs (bridges + 2 * cycles) - (b - 1)
    = cycles + 1 tokens per component, whatever the root. On a block graph
    whose blocks are cliques the fold is n - b, the count block_graph_Z
    certifies.
    """
    return _fold(g, find_blocks(g), cap)


def _fold(g: Graph, blocks: tuple, cap: int) -> int:
    """block_Z0 over the blocks of g, as find_blocks returned them."""
    # The first block the fold can neither count nor search.
    blocked = next((b for b in blocks if len(b.vertices) > cap and _closed_Z0(b) is None), None)
    if blocked is not None:
        raise ScopeError(f"block {sorted(blocked.vertices)} has over {cap} vertices and no closed-form Z_0")
    # c + sum (Z_0(B) - 1) = n + sum (Z_0(B) - |B|): the b blocks of a
    # k-vertex component have k - 1 + b members in all.
    total = g.n
    for block in blocks:
        value = _closed_Z0(block)
        if value is None:
            value = solve_zq(_block_graph(g, block), GameConfig(q=0, vertex_cap=cap)).value
        total += value - len(block.vertices)
    return total


def cactus_Z0(g: Graph) -> int:
    """Z_0 of a forest of cacti, m - n + 2c for c components, after checking
    that every block is a bridge or an induced cycle: block_Z0, which
    searches no block of a cactus. O(n + m)."""
    blocks = find_blocks(g)
    if not all(_is_cactus_block(block) for block in blocks):
        raise ScopeError("cactus_Z0 requires a cactus graph (every edge on at most one cycle)")
    return _fold(g, blocks, 0)
