"""Graph representation, edge-list I/O, and structural decomposition.

Vertices are dense 0-based integers. A graph built here holds one int
object per vertex id: every neighbor list names vertex v by the same
object, so the passes over a large graph read a compact table instead of
one int allocated per edge end. Graphs are immutable after construction
and safe to share between threads. Every function here is pure, except that
find_blocks stores its result on the graph it decomposed: a memo that no
field, comparison, hash or repr of Graph sees, and that two threads can at
worst both compute.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, replace

from .errors import EdgeListParseError, GraphValidationError, ResourceLimitError, _echo

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
        """The graph on vertices 0..n-1 with these (u, v) pairs as edges.
        Endpoints must be ints (not bools); each is stored as the one int
        object of its id."""
        if n < 1:
            raise GraphValidationError("graph needs at least one vertex")
        adj = [[] for _ in range(n)]
        vertex = list(range(n))
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise GraphValidationError(f"edge ({_echo(u)}, {_echo(v)}) has an endpoint that is not an int")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphValidationError(f"edge ({_echo(u)}, {_echo(v)}) outside vertex range 0..{n - 1}")
            if u == v:
                raise GraphValidationError(f"self-loop at vertex {u}")
            adj[u].append(vertex[v])
            adj[v].append(vertex[u])
        return cls(n=n, adjacency=_frozen_adjacency(adj))

    @property
    def edges(self) -> tuple:
        """Sorted (u, v) pairs with u < v, rebuilt from adjacency in O(n + m) per access."""
        return tuple((u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v)

    @property
    def m(self) -> int:
        return sum(map(len, self.adjacency)) // 2


def _frozen_adjacency(adj: list) -> tuple:
    """Neighbor lists, in any order and with repeats, as Graph.adjacency:
    one sorted tuple of distinct neighbors per vertex. Each list is sorted
    in place, and only a list with a repeat, which sorting puts next to
    its twin, is rebuilt through a set."""
    frozen = []
    for nbrs in adj:
        nbrs.sort()
        prev = -1
        for w in nbrs:
            if w == prev:
                nbrs = sorted(set(nbrs))
                break
            prev = w
        frozen.append(tuple(nbrs))
    return tuple(frozen)


def _is_digits(token: str) -> bool:
    return token.isascii() and token.isdigit()


def _parse_id(token: str, lineno: int, what: str = "vertex") -> int:
    """token read as an id of a text input: ASCII decimal digits, no more
    than int() converts (int() alone also reads "+3", "-1", "1_0" and
    non-ASCII digits). Anything else raises EdgeListParseError at lineno."""
    if _is_digits(token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise EdgeListParseError(lineno, f"bad {what} {_echo(token)}")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Each non-comment line is "u v" with endpoints written in ASCII decimal
    digits; `#` starts a comment. An optional first line "n <count>" fixes
    the vertex count (allowing isolated vertices); otherwise n = 1 + max
    endpoint. Duplicate edges and both orientations collapse to a single
    edge. More than MAX_EDGES edge lines, or a vertex count above
    MAX_VERTICES, raise ResourceLimitError; the edge lines as soon as one
    too many is read.

    A text in the plain shape format_edge_list writes is parsed in bulk
    (_parse_plain). Every other text, and a plain one that breaks a rule,
    goes through the line loop (_parse_lines), which alone words the errors
    and numbers their lines. Both build the same graph from any text both
    accept.
    """
    g = _parse_plain(text)
    return g if g is not None else _parse_lines(text)


# Characters of the payload _parse_plain converts at a time, rounded up to a
# line end: big enough that the per-chunk calls cost nothing, small enough
# that the chunk's tokens never weigh much next to the graph.
_CHUNK = 1 << 16
_DROP_DIGITS = str.maketrans("", "", "0123456789")
_TO_COMMAS = str.maketrans(" \n", ",,")


def _parse_plain(text: str) -> Graph | None:
    """The graph of a plain edge list, or None for any other text.

    A plain edge list is an optional first line "n <count>" and at least
    one line "u v": ASCII digits, one space, ASCII digits. Lines end in
    "\\n", the last one may not. One translate() that drops the digits
    checks that shape over the whole text. The ids are then converted a
    chunk of whole lines at a time, by one json.loads of the chunk with
    its spaces and line ends turned into commas, swapped for the one int
    object of each id in the table `vertex`, and appended straight into
    the neighbor lists, so no token list of the whole text and no list of
    pairs is ever held; without a header the lists and the table grow to
    1 + the largest id seen. JSON refuses an id with a leading zero and
    one with more digits than int() converts. That, more than MAX_EDGES
    lines, a count or an id out of range and a self-loop also give None,
    so that the line loop reads the text and reports any error.
    """
    n = None
    start = 0
    if text.startswith("n "):
        start = text.find("\n") + 1
        count = text[2:start - 1]
        if not start or not _is_digits(count):
            return None
        try:
            n = int(count)
        except ValueError:  # more digits than int() converts
            return None
        if not 1 <= n <= MAX_VERTICES:
            return None
    if not "0" <= text[start:start + 1] <= "9":
        return None
    if " \n" in text or "\n " in text or text.endswith(" "):  # an empty id
        return None
    shape = text.translate(_DROP_DIGITS)[3 if start else 0:]  # "n \n" is the header's
    if not text.endswith("\n"):
        shape += "\n"
    lines = len(shape) // 2
    if not 1 <= lines <= MAX_EDGES or shape != " \n" * lines:
        return None

    adj = [[] for _ in range(n)] if n is not None else []
    vertex = list(range(len(adj)))
    size = len(text)
    while start < size:
        end = text.find("\n", start + _CHUNK)
        if end < 0:
            end = size
        try:
            ids = json.loads("[" + text[start:end].rstrip("\n").translate(_TO_COMMAS) + "]")
        except ValueError:  # a leading zero, or more digits than int() converts
            return None
        start = end + 1
        top = max(ids)
        if top >= len(adj):
            if n is not None or top >= MAX_VERTICES:
                return None
            adj.extend([] for _ in range(top + 1 - len(adj)))
            vertex.extend(range(len(vertex), top + 1))
        pairs = iter(map(vertex.__getitem__, ids))
        for u, v in zip(pairs, pairs):
            if u == v:
                return None
            adj[u].append(v)
            adj[v].append(u)
    return Graph(n=len(adj), adjacency=_frozen_adjacency(adj))


def _parse_lines(text: str) -> Graph:
    """parse_edge_list for any text, one line at a time."""
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
            header_n = _parse_id(parts[1], lineno, "vertex count")
            if header_n < 1:
                raise EdgeListParseError(lineno, "vertex count must be positive")
            continue
        saw_payload = True
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected 'u v', got {_echo(line)}")
        u, v = _parse_id(parts[0], lineno), _parse_id(parts[1], lineno)
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
        raise GraphValidationError(f"endpoint {_echo(top)} exceeds declared vertex count {_echo(n)}")
    if n > MAX_VERTICES:
        raise ResourceLimitError(f"vertex count {_echo(n)} exceeds the limit of {MAX_VERTICES}")
    if self_loop is not None:
        lineno, v = self_loop
        raise GraphValidationError(f"line {lineno}: self-loop at vertex {v}")
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    """g as a plain edge list: the header "n <count>", then one line "u v"
    per edge with u < v, in the order of g.edges."""
    lines = [f"n {g.n}\n"]
    lines += [f"{u} {v}\n" for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v]
    return "".join(lines)


def _vertex_flags(g: Graph, vertices) -> bytearray:
    """One flag per vertex of g, set for each id in `vertices`; an id that
    is not an int in 0..n-1 (a bool is not) raises GraphValidationError."""
    flags = bytearray(g.n)
    for v in vertices:
        if type(v) is not int:
            raise GraphValidationError(f"vertex {_echo(v)} is not an int")
        if not 0 <= v < g.n:
            raise GraphValidationError(f"vertex {_echo(v)} outside range 0..{g.n - 1}")
        flags[v] = 1
    return flags


def connected_components(g: Graph) -> list:
    """All connected components of g, each a frozenset, ordered by smallest
    member."""
    return unfilled_components(g, frozenset())


def is_connected(g: Graph) -> bool:
    # Each component with an edge has one block without an anchor; an isolated vertex is its own.
    return sum(block.anchor is None for block in find_blocks(g)) + g.adjacency.count(()) <= 1


def unfilled_components(g: Graph, filled) -> list:
    """Connected components of the subgraph induced on V minus `filled`,
    ordered by smallest member."""
    seen = _vertex_flags(g, filled)
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


@dataclass(frozen=True, slots=True)
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

    Depth-first disc/low traversal with a vertex stack, restarted at each
    undiscovered vertex in increasing order: a block is emitted when the
    DFS returns to the articulation vertex it hangs from, so each
    component's blocks come leaf-to-root, each block's anchor is that
    vertex, and the component's last block contains its root. An isolated
    vertex is in no block. Runs in O(n + m) the first time it is asked
    about a graph object; the result is kept on that object, and later
    calls return the same tuple.
    """
    blocks = g.__dict__.get("_blocks")
    if blocks is None:
        blocks = _block_dfs(g)
        object.__setattr__(g, "_blocks", blocks)
    return blocks


def _block_dfs(g: Graph) -> tuple:
    """The traversal behind find_blocks.

    A depth-first search that keeps an iterator over the unread neighbors
    of each open vertex, and a stack of the vertices it has discovered but
    not yet placed in a block. low[v] is the earliest discovery time that
    v's subtree reaches by one edge; the edge to v's parent p counts too,
    which never takes low[v] below disc[p]. When a child v of p finishes
    with low[v] >= disc[p], the vertices from v to the top of that stack
    are popped and form a block with p, which stays on the stack as its
    anchor.

    A vertex's up-degree is its number of neighbors discovered before it.
    In a depth-first search every edge joins a vertex to one of its
    ancestors, so each edge is counted exactly once, at its deeper end w.
    The edge lies in the block of the tree edge from w's parent to w: that
    is the edge itself, or a back edge, which closes a cycle through it.
    w is popped into exactly that block, and a root is never popped. So
    Block.edges, the sum of the up-degrees of the popped members, is the
    number of edges of g induced on Block.vertices, and the counts sum to m.
    """
    n = g.n
    adj = g.adjacency
    disc = [0] * n
    low = [0] * n
    blocks = []

    timer = 0
    for root in range(n):
        if disc[root] or not adj[root]:
            continue
        timer += 1
        disc[root] = low[root] = timer
        found = [root]  # discovered vertices not yet in a block
        up = [0]  # the up-degree of each vertex of found
        stack = [(root, iter(adj[root]), 0)]  # vertex, unread neighbors, index in found
        while stack:
            v, unread, i = stack[-1]
            dv = disc[v]
            lv = low[v]
            k = up[i]
            for u in unread:
                du = disc[u]
                if du:
                    if du < dv:
                        k += 1
                        if du < lv:
                            lv = du
                    continue
                low[v] = lv
                up[i] = k
                timer += 1
                disc[u] = low[u] = timer
                stack.append((u, iter(adj[u]), len(found)))
                found.append(u)
                up.append(0)
                break
            else:
                up[i] = k
                stack.pop()
                if not stack:
                    break
                p = stack[-1][0]
                if lv < low[p]:
                    low[p] = lv
                if lv >= disc[p]:
                    members = found[i:]
                    edges = sum(up[i:])
                    del found[i:], up[i:]
                    members.append(p)
                    blocks.append(Block(vertices=frozenset(members), anchor=p, edges=edges))
        # The component's last block holds the root.
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

