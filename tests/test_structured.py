import random

import pytest

from zqforce import (
    GameConfig,
    ScopeError,
    block_Z0,
    block_graph_Z,
    brute_force_Z,
    cactus_Z0,
    certificate_from_tokens,
    check_certificate,
    find_blocks,
    solve_zq,
    Graph,
)
from zqforce.structured import _block_graph

from helpers import (
    BOWTIE,
    cactus_Z0_dp,
    clique,
    cycle,
    induced_edge_count,
    naive_window_closure,
    path,
    random_block_graph,
    random_connected_graph,
    random_cactus,
    random_tree,
    star,
    triangle_chain,
)


def test_block_solver_cliques():
    for n in range(3, 8):
        value, tokens = block_graph_Z(clique(n))
        assert value == n - 1
        assert naive_window_closure(clique(n), tokens, range(n)) == frozenset(range(n))


def test_block_solver_bowtie_matches_brute_force():
    value, tokens = block_graph_Z(BOWTIE)
    assert value == brute_force_Z(BOWTIE)[0] == 3
    assert check_certificate(BOWTIE, BOWTIE.n, certificate_from_tokens(BOWTIE, tokens))


def test_block_solver_single_vertex():
    g = Graph.from_edges(1, [])
    assert block_graph_Z(g) == (1, [0])


def test_block_solver_formula_and_brute_agreement():
    rng = random.Random(43)
    for _ in range(60):
        g = random_block_graph(rng.randint(3, 12), rng)
        value, tokens = block_graph_Z(g)
        assert value == g.n - len(find_blocks(g))
        assert value == brute_force_Z(g)[0]
        assert naive_window_closure(g, tokens, range(g.n)) == frozenset(range(g.n))
        assert len(set(tokens)) == value


def test_block_solver_per_block_token_counts():
    # Each block carries eta-2 or eta-1 tokens, and an eta-2 block never
    # includes its anchor among them.
    rng = random.Random(47)
    for _ in range(60):
        g = random_block_graph(rng.randint(3, 14), rng)
        cert = certificate_from_tokens(g, block_graph_Z(g)[1])
        for block in find_blocks(g):
            eta = len(block.vertices)
            spent = cert.tokens & block.vertices
            assert len(spent) in (eta - 2, eta - 1)
            if len(spent) == eta - 2:
                assert block.anchor not in spent


def test_block_solver_zq_equals_game():
    rng = random.Random(53)
    for _ in range(12):
        n = rng.randint(3, 10)
        g = random_block_graph(n, rng)
        value, _ = block_graph_Z(g)
        for q in (0, 1, 2, n):
            assert value == solve_zq(g, GameConfig(q=q)).value


def test_block_solver_rejects_wrong_class():
    with pytest.raises(ScopeError) as excinfo:
        block_graph_Z(path(4))
    assert "block" in str(excinfo.value)
    with pytest.raises(ScopeError):
        block_graph_Z(cycle(5))


def test_structured_solvers_decompose_once(monkeypatch):
    import zqforce.graphs
    import zqforce.structured

    real = zqforce.graphs.find_blocks
    calls = []

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(zqforce.graphs, "find_blocks", counting)
    monkeypatch.setattr(zqforce.structured, "find_blocks", counting)
    for solve in (
        lambda: block_graph_Z(BOWTIE),
        lambda: cactus_Z0(BOWTIE),
        lambda: block_Z0(BOWTIE, 16),
    ):
        calls.clear()
        solve()
        assert len(calls) == 1


def test_cactus_single_cycles():
    for n in range(3, 9):
        assert cactus_Z0(cycle(n)) == 2


def test_cactus_bowtie():
    assert cactus_Z0(BOWTIE) == 3


def test_cactus_trees_match_game():
    rng = random.Random(59)
    samples = [path(1), path(2), path(7), star((1, 1, 1)), star((3, 2, 1, 1))]
    samples += [random_tree(rng.randint(2, 12), rng) for _ in range(20)]
    for g in samples:
        assert cactus_Z0(g) == solve_zq(g, GameConfig(q=0)).value


def test_cactus_triangle_chains():
    # Validate small sizes against the game first, then the pattern.
    for t in (1, 2, 3):
        g = triangle_chain(t)
        assert cactus_Z0(g) == solve_zq(g, GameConfig(q=0)).value == t + 1
    for t in (4, 6, 9):
        assert cactus_Z0(triangle_chain(t)) == t + 1


def test_cactus_random_instances_match_game():
    rng = random.Random(61)
    for _ in range(40):
        g = random_cactus(rng.randint(1, 12), rng)
        assert cactus_Z0(g) == solve_zq(g, GameConfig(q=0)).value


def test_cactus_rejects_non_cactus():
    with pytest.raises(ScopeError):
        cactus_Z0(clique(4))


def _atlas_connected(max_n):
    import networkx as nx

    for nxg in nx.graph_atlas_g()[1:]:
        if 1 <= len(nxg) <= max_n and nx.is_connected(nxg):
            yield Graph.from_edges(len(nxg), list(nxg.edges()))


def test_cactus_exhaustive_up_to_7_vertices():
    # Every connected cactus with at most 7 vertices, up to isomorphism.
    from zqforce import is_cactus

    count = 0
    for g in _atlas_connected(7):
        if not is_cactus(g):
            continue
        assert cactus_Z0(g) == solve_zq(g, GameConfig(q=0)).value, g.edges
        count += 1
    assert count > 100


def test_block_solver_exhaustive_up_to_7_vertices():
    # Every connected block graph (blocks >= 3) with at most 7 vertices.
    from zqforce import is_block_graph

    count = 0
    for g in _atlas_connected(7):
        if g.n < 3 or not is_block_graph(g):
            continue
        value, tokens = block_graph_Z(g)
        assert value == brute_force_Z(g)[0], g.edges
        assert value == g.n - len(find_blocks(g)), g.edges
        assert check_certificate(g, g.n, certificate_from_tokens(g, tokens))
        count += 1
    assert count > 10


def test_cactus_closed_form_matches_dp():
    # The closed form against the block-tree DP it replaced, on every
    # connected cactus up to 7 vertices and random cacti up to 200, each also
    # under one seeded relabelling so that the DP's root, vertex 0, varies.
    from zqforce import is_cactus

    rng = random.Random(67)
    corpus = [g for g in _atlas_connected(7) if is_cactus(g)]
    corpus += [random_cactus(rng.randint(1, 200), rng) for _ in range(200)]
    for g in corpus:
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        for h in (g, relabelled):
            assert cactus_Z0(h) == cactus_Z0_dp(h), h.edges


def test_fold_matches_game_on_the_atlas_and_seeded_graphs():
    # Every atlas graph with n <= 7, connected or not, then seeded sparse
    # graphs with n = 8..12; most of the latter have several blocks, and
    # many a block that is no bridge, cycle or clique, which the fold
    # searches.
    import networkx as nx

    rng = random.Random(71)
    atlas = [Graph.from_edges(len(nxg), list(nxg.edges())) for nxg in nx.graph_atlas_g()[1:]]
    seeded = [random_connected_graph(rng.randint(8, 12), rng.choice((0.05, 0.1, 0.15)), rng)
              for _ in range(300)]
    for g in atlas + seeded:
        assert block_Z0(g, 16) == solve_zq(g, GameConfig(q=0)).value, g.edges

    def searched(block):
        size = len(block.vertices)
        return size > 2 and block.edges not in (size, size * (size - 1) // 2)

    multi_block = [g for g in seeded if len(find_blocks(g)) > 1]
    assert len(multi_block) > 250
    assert sum(any(map(searched, find_blocks(g))) for g in multi_block) > 150


def test_fold_matches_the_cactus_and_block_counts_at_scale():
    rng = random.Random(73)
    g = random_cactus(1_200, rng)
    assert block_Z0(g, 16) == cactus_Z0(g) == g.m - g.n + 2
    g = random_block_graph(10_000, rng)
    assert block_Z0(g, 16) == block_graph_Z(g)[0] == g.n - len(find_blocks(g))


def test_fold_refuses_a_block_it_can_neither_count_nor_search():
    # A diamond (K4 minus the edge 03) with a pendant edge at 3.
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])
    assert block_Z0(g, 4) == 2
    with pytest.raises(ScopeError, match=r"block \[0, 1, 2, 3\] has over 3 vertices and no closed-form Z_0"):
        block_Z0(g, 3)
    # Cliques and cycles of any size need no search.
    assert block_Z0(clique(20), 3) == 19
    assert block_Z0(cycle(40), 3) == 2
    assert block_Z0(Graph.from_edges(3, []), 1) == 3


def test_block_graph_is_the_induced_subgraph():
    # Built from the non-anchor members' adjacency only, each block's graph
    # is still the subgraph induced on the block, renumbered in vertex order.
    rng = random.Random(79)
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 14), rng.random() * 0.3, rng)
        for block in find_blocks(g):
            sub = _block_graph(g, block)
            old = sorted(block.vertices)
            assert sub.n == len(old)
            assert sub.m == block.edges == induced_edge_count(g, block.vertices)
            assert all(old[v] in g.adjacency[old[u]] for u, v in sub.edges)
