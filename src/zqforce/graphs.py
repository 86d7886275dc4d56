"""Graph representation, edge-list I/O, and structural decomposition.

Vertices are dense 0-based integers. Graphs are immutable after construction
and safe to share between threads. Every function here is pure, except that
find_blocks stores its result on the graph it decomposed: a memo that no
field, comparison, hash or repr of Graph sees, and that two threads can at
worst both compute.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from .errors import EdgeListParseError, GraphValidationError, ResourceLimitError

# Largest vertex count parse_edge_list accepts, checked before the graph is
# allocated: 20x the 1e5-vertex benchmark block graph, whose ~1.6 KB/vertex
# peak puts this near 3 GB.
MAX_VERTICES = 1 << 21

# Largest edge count generate_family builds; it checks the count before it
# builds any edge. A generated clique peaks near 180 B/edge, so this too is
# near 3 GB.
MAX_EDGES = 1 << 24


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no self-loops, no parallel edges.

    adjacency[v] is the sorted tuple of neighbors of v, and is the only
    stored form: two graphs are equal, and hash alike, iff they have the
    same n and the same edge set. edges and m are derived from it.
    """

    n: int
    adjacency: tuple

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 1:
            raise GraphValidationError("graph needs at least one vertex")
        adj = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphValidationError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise GraphValidationError(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        return cls(n=n, adjacency=tuple(tuple(sorted(set(nbrs))) for nbrs in adj))

    @property
    def edges(self) -> tuple:
        """Sorted (u, v) pairs with u < v, rebuilt from adjacency in O(n + m) per access."""
        return tuple((u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v)

    @property
    def m(self) -> int:
        return sum(map(len, self.adjacency)) // 2


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Each non-comment line is "u v" with nonnegative integer endpoints; `#`
    starts a comment. An optional first line "n <count>" fixes the vertex
    count (allowing isolated vertices); otherwise n = 1 + max endpoint.
    Duplicate edges and both orientations collapse to a single edge. More
    than MAX_EDGES edge lines, or a vertex count above MAX_VERTICES, raise
    ResourceLimitError; the edge lines as soon as one too many is read.
    """
    edge_limit = MAX_EDGES
    header_n = None
    edges = []
    self_loop = None  # (line, vertex) of the first self-loop
    saw_payload = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n" and not saw_payload and header_n is None:
            if len(parts) != 2:
                raise EdgeListParseError(lineno, "header must be 'n <count>'")
            try:
                header_n = int(parts[1])
            except ValueError:
                raise EdgeListParseError(lineno, f"bad vertex count {parts[1]!r}") from None
            if header_n < 1:
                raise EdgeListParseError(lineno, "vertex count must be positive")
            continue
        saw_payload = True
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"non-integer endpoint in {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListParseError(lineno, "negative vertex id")
        if u == v and self_loop is None:
            self_loop = (lineno, u)
        if len(edges) == edge_limit:
            raise ResourceLimitError(f"line {lineno}: edge count exceeds the limit of {edge_limit}")
        edges.append((u, v))

    if header_n is None and not edges:
        raise EdgeListParseError(1, "empty edge list and no 'n <count>' header")
    top = max(map(max, edges), default=-1)
    n = header_n if header_n is not None else top + 1
    if top >= n:
        raise GraphValidationError(f"endpoint {top} exceeds declared vertex count {n}")
    if n > MAX_VERTICES:
        raise ResourceLimitError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    if self_loop is not None:
        lineno, v = self_loop
        raise GraphValidationError(f"line {lineno}: self-loop at vertex {v}")
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _check_vertex_subset(g: Graph, s) -> None:
    for v in s:
        if not (0 <= v < g.n):
            raise GraphValidationError(f"vertex {v} outside range 0..{g.n - 1}")


def connected_components(g: Graph) -> list:
    """All connected components of g, each a frozenset, ordered by smallest
    member."""
    return unfilled_components(g, frozenset())


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def unfilled_components(g: Graph, filled) -> list:
    """Connected components of the subgraph induced on V minus `filled`,
    ordered by smallest member."""
    filled = frozenset(filled)
    _check_vertex_subset(g, filled)
    seen = bytearray(g.n)
    for v in filled:
        seen[v] = 1
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        queue = deque((start,))
        while queue:
            x = queue.popleft()
            for y in g.adjacency[x]:
                if not seen[y]:
                    seen[y] = 1
                    comp.append(y)
                    queue.append(y)
        comps.append(frozenset(comp))
    return comps


@dataclass(frozen=True)
class Block:
    """A biconnected component (maximal 2-connected subgraph or bridge edge).

    edges is the number of edges of g between members of vertices. In the
    leaf-to-root order `find_blocks` returns, anchor is the single vertex
    the block shares with the union of the blocks after it (the
    articulation vertex it hangs from); the last block of each component
    has none.
    """

    vertices: frozenset
    anchor: int | None
    edges: int


def find_blocks(g: Graph) -> tuple:
    """Biconnected components of g, as a tuple of Block in DFS pop order.

    Standard disc/low edge-stack traversal, restarted at each undiscovered
    vertex in increasing order: a block is emitted when the DFS returns to
    the articulation vertex it hangs from, so each component's blocks come
    leaf-to-root, each block's anchor is that vertex, and the component's
    last block contains its root. An isolated vertex is in no block. Runs
    in O(n + m) the first time it is asked about a graph object; the result
    is kept on that object, and later calls return the same tuple.
    """
    blocks = g.__dict__.get("_blocks")
    if blocks is None:
        blocks = _block_dfs(g)
        object.__setattr__(g, "_blocks", blocks)
    return blocks


def _block_dfs(g: Graph) -> tuple:
    """The traversal behind find_blocks.

    Each edge is pushed on the edge stack exactly once: as a tree edge, or
    as a back edge from its deeper end. Each pushed edge is popped into
    exactly one block, whose vertices it joins. An edge with both endpoints
    in a block B was popped into B, since two blocks share at most one
    vertex. So the edges popped into B, which Block.edges counts, are the
    edges of g induced on B.vertices, and the counts sum to m.
    """
    n = g.n
    adj = g.adjacency
    disc = [0] * n
    low = [0] * n
    estack = []
    blocks = []

    timer = 0
    for root in range(n):
        if disc[root]:
            continue
        timer += 1
        disc[root] = low[root] = timer
        stack = [[root, -1, 0]]  # vertex, DFS parent, next adjacency index
        while stack:
            frame = stack[-1]
            v, parent, i = frame
            if i < len(adj[v]):
                frame[2] = i + 1
                u = adj[v][i]
                if not disc[u]:
                    estack.append((v, u))
                    timer += 1
                    disc[u] = low[u] = timer
                    stack.append([u, v, 0])
                elif u != parent and disc[u] < disc[v]:
                    estack.append((v, u))
                    if disc[u] < low[v]:
                        low[v] = disc[u]
            else:
                stack.pop()
                if not stack:
                    break
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    members = set()
                    pushed = len(estack)
                    while True:
                        a, b = estack.pop()
                        members.add(a)
                        members.add(b)
                        if (a, b) == (p, v):
                            break
                    edges = pushed - len(estack)
                    blocks.append(Block(vertices=frozenset(members), anchor=p, edges=edges))
        if adj[root]:  # the component's last block, which holds the root
            blocks[-1] = replace(blocks[-1], anchor=None)
    return tuple(blocks)


def _is_clique_block(block: Block) -> bool:
    size = len(block.vertices)
    return size >= 3 and block.edges == size * (size - 1) // 2


def is_block_graph(g: Graph) -> bool:
    """True iff every block of g induces a clique with at least three
    vertices; isolated vertices are in no block and do not count."""
    return all(_is_clique_block(block) for block in find_blocks(g))


def _is_cactus_block(block: Block) -> bool:
    # A 2-connected block with as many edges as vertices is a cycle.
    size = len(block.vertices)
    return size == 2 or block.edges == size


def is_cactus(g: Graph) -> bool:
    """True iff every block of g is a single edge or an induced cycle
    (equivalently, every edge lies on at most one cycle)."""
    return all(_is_cactus_block(block) for block in find_blocks(g))

