"""Shared graphs, random corpora, and independent oracles for the tests."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from itertools import combinations

from zqforce import (
    AnnounceMove,
    Block,
    Certificate,
    CheckResult,
    EdgeListParseError,
    FamilyParams,
    ForceMove,
    Graph,
    GraphValidationError,
    ResourceLimitError,
    RevealMove,
    ScopeError,
    TokenMove,
    find_blocks,
    generate_family,
    unfilled_components,
)

BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def parse_outcome(parse, text):
    """parse(text), or the type and message of the parse error it raises."""
    try:
        return parse(text)
    except (EdgeListParseError, GraphValidationError, ResourceLimitError) as exc:
        return type(exc), str(exc)


def path(n):
    return generate_family("path", FamilyParams(n=n))


def cycle(n):
    return generate_family("cycle", FamilyParams(n=n))


def clique(n):
    return generate_family("clique", FamilyParams(n=n))


def star(lengths):
    return generate_family("generalized_star", FamilyParams(path_lengths=tuple(lengths)))


def random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Random spanning tree plus density-p extra edges."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        edges.append((order[i], rng.choice(order[:i])))
    return Graph.from_edges(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph.from_edges(n, edges)


def random_block_graph(n: int, rng: random.Random, blocks: int | None = None) -> Graph:
    return generate_family(
        "random_block_graph", FamilyParams(n=n, blocks=blocks), seed=rng.randrange(1 << 30)
    )


def random_cactus(n: int, rng: random.Random) -> Graph:
    return generate_family("random_cactus", FamilyParams(n=n), seed=rng.randrange(1 << 30))


def disjoint_union(*parts: Graph, rng: random.Random | None = None) -> Graph:
    """The parts side by side, numbered part after part, or with their
    vertex labels shuffled by rng."""
    labels = list(range(sum(part.n for part in parts)))
    if rng is not None:
        rng.shuffle(labels)
    edges = []
    base = 0
    for part in parts:
        edges += [(labels[base + u], labels[base + v]) for u, v in part.edges]
        base += part.n
    return Graph.from_edges(len(labels), edges)


def random_forest_parts(rng: random.Random, max_n: int) -> list:
    """Up to three random connected parts, as many as fit in max_n
    vertices. Half the time the first is a star K_{1,3}, K_{1,4} or spider
    S(1,1,2): beside another small star, at q = 1, it makes a union worth
    less than the sum of its parts. The others are trees, graphs, block
    graphs and cacti of at most 5 vertices, one in seven an isolated
    vertex."""
    makers = (
        lambda n: random_tree(n, rng),
        lambda n: random_connected_graph(n, rng.random() * 0.5, rng),
        lambda n: random_block_graph(max(n, 3), rng),
        lambda n: random_cactus(n, rng),
    )
    parts = [star(rng.choice(([1, 1, 1], [1, 1, 1, 1], [1, 1, 2])))] if rng.random() < 0.5 else []
    for _ in range(rng.randint(2, 3) - len(parts)):
        part = rng.choice(makers)(1 if rng.random() < 1 / 7 else rng.randint(2, 5))
        if sum(p.n for p in parts) + part.n <= max_n:
            parts.append(part)
    return parts


def triangle_chain(t: int) -> Graph:
    """t triangles where consecutive triangles share a cut vertex."""
    edges = []
    base = 0
    for _ in range(t):
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
        base += 2
    return Graph.from_edges(2 * t + 1, edges)


# --- independent oracles -------------------------------------------------


def brute_articulation_points(g: Graph) -> set:
    """Cut vertices by removal enumeration: v is a cut vertex of the
    connected graph g iff deleting v leaves more than one component."""
    cuts = set()
    for v in range(g.n):
        if g.n > 1 and len(unfilled_components(g, frozenset({v}))) > 1:
            cuts.add(v)
    return cuts


def _induced_connected(g: Graph, vertices) -> bool:
    vertices = set(vertices)
    if not vertices:
        return True
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in g.adjacency[x]:
            if y in vertices and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == vertices


def induced_edge_count(g: Graph, vertices) -> int:
    """Edges of g with both endpoints in `vertices`, by scanning their
    adjacency lists."""
    total = 0
    for v in vertices:
        for u in g.adjacency[v]:
            if u in vertices:
                total += 1
    return total // 2


def brute_blocks(g: Graph) -> set:
    """Blocks by subset enumeration (n <= 10): maximal vertex sets whose
    induced subgraph is a single edge or 2-connected."""
    assert g.n <= 10, "subset enumeration oracle is for small graphs"
    edge_set = set(g.edges)
    candidates = [frozenset(e) for e in edge_set]
    for size in range(3, g.n + 1):
        for vs in combinations(range(g.n), size):
            vset = set(vs)
            if not _induced_connected(g, vset):
                continue
            if all(_induced_connected(g, vset - {v}) for v in vs):
                candidates.append(frozenset(vs))
    return {c for c in candidates if not any(c < d for d in candidates)}


def block_dfs_reference(g: Graph) -> tuple:
    """find_blocks by the Hopcroft-Tarjan edge-stack traversal (neighbors in
    adjacency order, roots in increasing order), the reference that pins the
    order, vertices, anchors and edge counts graphs._block_dfs returns.

    Each edge is pushed on the edge stack exactly once: as a tree edge, or
    as a back edge from its deeper end. Each pushed edge is popped into
    exactly one block, whose vertices it joins; the edges popped into a
    block are its edge count.
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


_INF = float("inf")


def _min_defined(*values):
    best = _INF
    for v in values:
        if v is not None and v < best:
            best = v
    return best


def cactus_Z0_dp(g: Graph) -> int:
    """Oracle for cactus_Z0: the block-tree dynamic program it replaced, one
    pass over the find_blocks order rooted at vertex 0. For a block hanging
    from vertex v, val[i][j] is the token cost of the block's whole subtree
    when v is pre-filled by i in {0,1} outside fills and j in {0,1,2} member
    subtrees deliver their own shared vertex. Per vertex, dp1 accumulates the
    cheapest pre-filled variant of each attached block and dp0 adds the
    cheapest single-block upgrade to self-delivery. The cactus check
    counts each block's edges afresh rather than reading Block.edges."""
    n = g.n
    if n == 1:
        return 1
    dp0 = [0.0] * n  # subtree cost when the vertex must deliver itself
    dp1 = [0.0] * n  # subtree cost when the vertex is filled from outside
    min_upgrade = [_INF] * n
    for block in find_blocks(g):
        size = len(block.vertices)
        if size > 2 and induced_edge_count(g, block.vertices) != size:
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


def closure_with_forces_reference(g: Graph, filled) -> tuple:
    """Reference for forcing.closure_with_forces, which counts from the
    unfilled side: the same work queue, with every vertex's unfilled
    neighbors counted by scanning its own adjacency, and the queue seeded
    from the filled vertices of count 1 in increasing order. Pins the
    closure and the force list, so certificates stay byte-identical."""
    filled = frozenset(filled)
    mark = bytearray(g.n)
    for v in filled:
        mark[v] = 1
    unfilled_count = [sum(1 - mark[w] for w in g.adjacency[v]) for v in range(g.n)]
    queue = deque(v for v in sorted(filled) if unfilled_count[v] == 1)
    forces = []
    while queue:
        u = queue.popleft()
        if unfilled_count[u] != 1:
            continue  # stale entry
        t = next(w for w in g.adjacency[u] if not mark[w])
        forces.append(ForceMove(u, t))
        mark[t] = 1
        if unfilled_count[t] == 1:
            queue.append(t)
        for w in g.adjacency[t]:
            unfilled_count[w] -= 1
            if mark[w] and unfilled_count[w] == 1:
                queue.append(w)
    return frozenset(v for v in range(g.n) if mark[v]), forces


def verify_certificate_reference(g: Graph, q: int, cert: Certificate) -> CheckResult:
    """Reference for certificates.verify_certificate, which keeps the
    filled vertices and the reveal window as bytearrays of flags: the same
    replay over a set and a frozenset. The two must agree on the verdict,
    the failed step and the reason of every certificate."""
    filled = set()
    window = None  # revealed subgraph's vertex set while a reveal is active
    pending = None  # announced components awaiting the reveal

    def fail(step, reason):
        return CheckResult(ok=False, failed_step=step, reason=reason)

    vertices = range(g.n)

    def malformed(comps):
        return not isinstance(comps, tuple) or any(
            not isinstance(c, frozenset) or any(type(v) is not int for v in c) for c in comps
        )

    for step, mv in enumerate(cert.trace):
        if pending is not None and not isinstance(mv, RevealMove):
            return fail(step, "announcement must be followed by a reveal")
        if isinstance(mv, TokenMove):
            v = mv.vertex
            if type(v) is not int or v not in vertices:
                return fail(step, f"token on invalid vertex {v!r}")
            if v in filled:
                return fail(step, f"token on already-filled vertex {v}")
            filled.add(v)
            window = None
        elif isinstance(mv, AnnounceMove):
            if malformed(mv.components):
                return fail(step, "announced component is not a frozenset of ints")
            comps = unfilled_components(g, filled)
            if len(comps) <= q:
                return fail(step, f"only {len(comps)} unfilled components, need more than q={q}")
            announced = set(mv.components)
            if len(announced) != len(mv.components):
                return fail(step, "duplicate component in announcement")
            if len(announced) < q + 1:
                return fail(step, f"announced {len(announced)} components, need at least {q + 1}")
            actual = set(comps)
            if not announced <= actual:
                return fail(step, "announced set is not an unfilled component")
            pending = announced
            window = None
        elif isinstance(mv, RevealMove):
            if pending is None:
                return fail(step, "reveal without a preceding announcement")
            if malformed(mv.components):
                return fail(step, "revealed component is not a frozenset of ints")
            revealed = set(mv.components)
            if len(revealed) != len(mv.components):
                return fail(step, "duplicate component in reveal")
            if not revealed or not revealed <= pending:
                return fail(step, "reveal must be a nonempty subset of the announcement")
            window = frozenset(filled) | frozenset().union(*revealed)
            pending = None
        elif isinstance(mv, ForceMove):
            u, v = mv.source, mv.target
            if type(u) is not int or type(v) is not int or u not in vertices or v not in vertices:
                return fail(step, f"force with invalid endpoints ({u!r}, {v!r})")
            if u not in filled:
                return fail(step, f"force source {u} is unfilled")
            if v in filled:
                return fail(step, f"force target {v} is already filled")
            in_window = window is not None and [
                w for w in g.adjacency[u] if w in window and w not in filled
            ] == [v]
            whole = [w for w in g.adjacency[u] if w not in filled] == [v]
            if not in_window and not whole:
                return fail(step, f"{u} does not have {v} as its unique unfilled neighbor")
            if not in_window:
                # An ordinary forcing move is always available; taking one
                # leaves the announced window behind.
                window = None
            filled.add(v)
        else:
            return fail(step, f"unknown move {mv!r}")

    if pending is not None:
        return fail(len(cert.trace), "trace ends on an unanswered announcement")
    if len(filled) != g.n:  # every move checked its vertex against 0..n-1
        return fail(len(cert.trace), "trace does not fill every vertex")
    return CheckResult(ok=True)


def naive_components(g: Graph, filled) -> list:
    """Components of the unfilled subgraph, each a frozenset, ordered by
    lowest vertex."""
    rest = set(range(g.n)) - set(filled)
    out = []
    while rest:
        start = min(rest)
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g.adjacency[x]:
                if y in rest and y not in comp:
                    comp.add(y)
                    stack.append(y)
        out.append(frozenset(comp))
        rest -= comp
    return out


def naive_window_forces(g: Graph, filled, window) -> list:
    """Forces (u, target) with u filled and target its one unfilled neighbor
    inside `window`, sorted by u."""
    out = []
    for u in sorted(filled):
        unf = [w for w in g.adjacency[u] if w in window and w not in filled]
        if len(unf) == 1:
            out.append((u, unf[0]))
    return out


def naive_window_closure(g: Graph, filled, window) -> frozenset:
    filled = set(filled)
    while True:
        forces = naive_window_forces(g, filled, window)
        if not forces:
            return frozenset(filled)
        filled.add(forces[0][1])


def naive_brute_force_Z(g: Graph) -> tuple:
    """Reference for brute_force_Z: vertex sets by increasing size, each
    size in combinations order, each tested with naive_window_closure.
    Returns the first zero forcing set found, with its size."""
    everything = frozenset(range(g.n))
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if naive_window_closure(g, combo, everything) == everything:
                return k, frozenset(combo)
    raise AssertionError("the full vertex set is always a zero forcing set")


def naive_reveal_successors(g: Graph, filled, reveal, mode: str = "closure") -> list:
    """Filled sets the player can reach after the oracle reveals the
    components in `reveal`: the in-window closure in closure mode, or one
    set per in-window force in single_force mode. Empty for a dead reveal,
    one that admits no force."""
    filled = frozenset(filled)
    window = filled.union(*reveal)
    if mode == "closure":
        closed = naive_window_closure(g, filled, window)
        return [closed] if closed != filled else []
    return [filled | {t} for _, t in naive_window_forces(g, filled, window)]


def naive_zq_value(g: Graph, q: int, mode: str = "closure") -> int:
    return naive_zq_table(g, q, mode)[frozenset()]


def naive_zq_table(g: Graph, q: int, mode: str = "closure") -> dict:
    """Reference game solver, deliberately unoptimized: plain sets, its own
    component/force scans, announcements of every size >= q+1, no token-move
    pruning, and a memo keyed by every filled set it reaches. Returns that
    memo, which holds all 2^n filled sets. Exponential; keep n tiny."""

    full = frozenset(range(g.n))
    memo = {full: 0}

    def value(filled):
        if filled in memo:
            return memo[filled]
        best = len(full - filled)  # tokens on everything always works
        for u, t in naive_window_forces(g, filled, full):
            best = min(best, value(filled | {t}))
        comps = naive_components(g, filled)
        if len(comps) > q:
            for size in range(q + 1, len(comps) + 1):
                for ann in combinations(comps, size):
                    worst = -1
                    dead = False
                    for rsize in range(1, size + 1):
                        for reveal in combinations(ann, rsize):
                            succs = naive_reveal_successors(g, filled, reveal, mode)
                            if not succs:
                                dead = True
                                break
                            worst = max(worst, min(value(s) for s in succs))
                        if dead:
                            break
                    if not dead:
                        best = min(best, worst)
        for v in sorted(full - filled):
            best = min(best, 1 + value(filled | {v}))
        memo[filled] = best
        return best

    value(frozenset())
    return memo
