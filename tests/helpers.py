"""Shared graphs, random corpora, and independent oracles for the tests."""

from __future__ import annotations

import random
from itertools import combinations

from zqforce import FamilyParams, Graph, cactus_Z0, generate_family, unfilled_components

BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


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


def cactus_Z0_all_roots(g: Graph) -> int:
    """Oracle for cactus_Z0: the minimum of cactus_Z0 over every relabelling
    of g that swaps some vertex r with vertex 0, so that the DP, which roots
    itself at vertex 0, is rooted at every vertex in turn."""

    def rooted_at(r):
        swap = {0: r, r: 0}
        return Graph.from_edges(g.n, [(swap.get(u, u), swap.get(v, v)) for u, v in g.edges])

    return min(cactus_Z0(rooted_at(r)) for r in range(g.n))


def naive_zq_value(g: Graph, q: int, mode: str = "closure") -> int:
    """Reference game solver, deliberately unoptimized: plain sets, its own
    component/force scans, announcements of every size >= q+1, and no
    token-move pruning. Exponential; keep n tiny."""

    full = frozenset(range(g.n))

    def components(filled):
        rest = set(full - filled)
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

    def window_forces(filled, window):
        out = []
        for u in sorted(filled):
            unf = [w for w in g.adjacency[u] if w in window and w not in filled]
            if len(unf) == 1:
                out.append((u, unf[0]))
        return out

    def window_closure(filled, window):
        filled = set(filled)
        while True:
            forces = window_forces(filled, window)
            if not forces:
                return frozenset(filled)
            filled.add(forces[0][1])

    memo = {full: 0}

    def value(filled):
        if filled in memo:
            return memo[filled]
        best = len(full - filled)  # tokens on everything always works
        for u, t in window_forces(filled, full):
            best = min(best, value(filled | {t}))
        comps = components(filled)
        if len(comps) > q:
            for size in range(q + 1, len(comps) + 1):
                for ann in combinations(comps, size):
                    worst = -1
                    dead = False
                    for rsize in range(1, size + 1):
                        for reveal in combinations(ann, rsize):
                            window = frozenset(filled).union(*reveal)
                            if mode == "closure":
                                closed = window_closure(filled, window)
                                succs = [closed] if closed != filled else []
                            else:
                                succs = [
                                    filled | {t} for _, t in window_forces(filled, window)
                                ]
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

    return value(frozenset())
