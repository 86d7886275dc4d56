"""Graph representation, edge-list I/O, and structural decomposition.

Vertices are dense 0-based integers. Graphs are immutable after construction
and safe to share between threads; every function here is pure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import EdgeListParseError, GraphValidationError

VertexSet = frozenset


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no self-loops, no parallel edges.

    edges holds each edge once as an ordered pair (u, v) with u < v;
    adjacency[v] is the sorted tuple of neighbors of v.
    """

    n: int
    edges: tuple
    adjacency: tuple

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 1:
            raise GraphValidationError("graph needs at least one vertex")
        canon = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphValidationError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise GraphValidationError(f"self-loop at vertex {u}")
            canon.add((u, v) if u < v else (v, u))
        adj = [[] for _ in range(n)]
        for u, v in sorted(canon):
            adj[u].append(v)
            adj[v].append(u)
        return cls(
            n=n,
            edges=tuple(sorted(canon)),
            adjacency=tuple(tuple(sorted(a)) for a in adj),
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple:
        return self.adjacency[v]


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Each non-comment line is "u v" with nonnegative integer endpoints; `#`
    starts a comment. An optional first line "n <count>" fixes the vertex
    count (allowing isolated vertices); otherwise n = 1 + max endpoint.
    Duplicate edges and both orientations collapse to a single edge.
    """
    header_n = None
    raw_edges = []
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
        raw_edges.append((lineno, u, v))

    if header_n is None and not raw_edges:
        raise EdgeListParseError(1, "empty edge list and no 'n <count>' header")
    top = max((max(u, v) for _, u, v in raw_edges), default=-1)
    n = header_n if header_n is not None else top + 1
    if top >= n:
        raise GraphValidationError(f"endpoint {top} exceeds declared vertex count {n}")
    for lineno, u, v in raw_edges:
        if u == v:
            raise GraphValidationError(f"line {lineno}: self-loop at vertex {u}")
    return Graph.from_edges(n, [(u, v) for _, u, v in raw_edges])


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

    anchor is the single vertex shared with the still-unprocessed remainder
    when blocks are consumed in BlockOrder; the final block has none.
    """

    vertices: frozenset
    anchor: int | None


@dataclass(frozen=True)
class BlockOrder:
    """Leaf-to-root elimination sequence of blocks.

    Deleting each block in sequence order (keeping its anchor) leaves every
    later block sharing exactly one vertex with the remaining graph, except
    the last, which has no anchor.
    """

    sequence: tuple

    def __iter__(self):
        return iter(self.sequence)

    def __len__(self):
        return len(self.sequence)

    def __getitem__(self, i):
        return self.sequence[i]


def find_blocks(g: Graph) -> BlockOrder:
    """Biconnected components of a connected graph, in DFS pop order.

    Standard disc/low edge-stack traversal from vertex 0: a block is emitted
    when the DFS returns to the articulation vertex it hangs from, so the
    emitted order is leaf-to-root, each block's anchor is that vertex, and the
    last block contains vertex 0. Runs in O(n + m).
    """
    n = g.n
    adj = g.adjacency
    disc = [0] * n
    low = [0] * n
    estack = []
    popped = []  # (vertex set, vertex the block was popped at)

    timer = 1
    disc[0] = low[0] = 1
    stack = [[0, -1, 0]]  # vertex, DFS parent, next adjacency index
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
                while True:
                    a, b = estack.pop()
                    members.add(a)
                    members.add(b)
                    if (a, b) == (p, v):
                        break
                popped.append((frozenset(members), p))

    if any(not disc[v] for v in range(n)):
        raise GraphValidationError("find_blocks requires a connected graph")

    blocks = [Block(vertices=verts, anchor=at) for verts, at in popped]
    if blocks:
        blocks[-1] = Block(vertices=blocks[-1].vertices, anchor=None)
    return BlockOrder(sequence=tuple(blocks))


def _induced_edge_count(g: Graph, vertices) -> int:
    total = 0
    for v in vertices:
        for u in g.adjacency[v]:
            if u in vertices:
                total += 1
    return total // 2


def is_block_graph(g: Graph, min_block_size: int = 3) -> bool:
    """True iff every block of the connected graph g induces a clique with at
    least min_block_size vertices."""
    for block in find_blocks(g):
        size = len(block.vertices)
        if size < min_block_size:
            return False
        if _induced_edge_count(g, block.vertices) != size * (size - 1) // 2:
            return False
    return True


def _is_cactus_block(g: Graph, vertices) -> bool:
    size = len(vertices)
    return size == 2 or _induced_edge_count(g, vertices) == size


def is_cactus(g: Graph) -> bool:
    """True iff every block of the connected graph g is a single edge or an
    induced cycle (equivalently, every edge lies on at most one cycle)."""
    return all(_is_cactus_block(g, block.vertices) for block in find_blocks(g))


def induced_subgraph(g: Graph, vertices) -> tuple:
    """Subgraph induced on `vertices`, with vertices renumbered densely.

    Returns (subgraph, old_ids) where old_ids[i] is the original id of the
    subgraph's vertex i.
    """
    old_ids = sorted(vertices)
    _check_vertex_subset(g, old_ids)
    pos = {v: i for i, v in enumerate(old_ids)}
    edges = [
        (pos[u], pos[v])
        for u, v in g.edges
        if u in pos and v in pos
    ]
    return Graph.from_edges(len(old_ids), edges), old_ids
