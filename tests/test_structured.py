import json
import random

import pytest

from zqforce import (
    GameConfig,
    ScopeError,
    block_graph_Z,
    block_graph_Zq,
    brute_force_Z,
    cactus_Z0,
    check_certificate,
    find_blocks,
    is_zero_forcing_set,
    solve_zq,
    Graph,
)

from helpers import (
    BOWTIE,
    cactus_Z0_all_roots,
    clique,
    cycle,
    path,
    random_block_graph,
    random_cactus,
    random_tree,
    star,
    triangle_chain,
)


def test_block_solver_cliques():
    for n in range(3, 8):
        value, cert = block_graph_Z(clique(n))
        assert value == n - 1
        assert is_zero_forcing_set(clique(n), cert.tokens)


def test_block_solver_bowtie_matches_brute_force():
    value, cert = block_graph_Z(BOWTIE)
    assert value == brute_force_Z(BOWTIE)[0] == 3
    assert check_certificate(BOWTIE, None, cert)


def test_block_solver_single_vertex():
    g = Graph.from_edges(1, [])
    value, cert = block_graph_Z(g)
    assert value == 1 and cert.tokens == frozenset({0})


def test_block_solver_formula_and_brute_agreement():
    rng = random.Random(43)
    for _ in range(60):
        g = random_block_graph(rng.randint(3, 12), rng)
        value, cert = block_graph_Z(g)
        assert value == g.n - len(find_blocks(g))
        assert value == brute_force_Z(g)[0]
        assert is_zero_forcing_set(g, cert.tokens)
        assert len(cert.tokens) == value


def test_block_solver_per_block_token_counts():
    # Each block carries eta-2 or eta-1 tokens, and an eta-2 block never
    # includes its anchor among them.
    rng = random.Random(47)
    for _ in range(60):
        g = random_block_graph(rng.randint(3, 14), rng)
        value, cert = block_graph_Z(g)
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
        for q in (0, 1, 2, n):
            assert block_graph_Zq(g, q) == solve_zq(g, GameConfig(q=q)).value


def test_block_solver_rejects_wrong_class():
    with pytest.raises(ScopeError) as excinfo:
        block_graph_Z(path(4))
    assert "block" in str(excinfo.value)
    with pytest.raises(ScopeError):
        block_graph_Zq(cycle(5), 1)
    with pytest.raises(ScopeError):
        block_graph_Zq(BOWTIE, -1)


def test_block_solver_debug_log_is_json_ready():
    log = []
    block_graph_Z(BOWTIE, debug_log=log)
    assert len(log) == 2
    json.dumps(log)
    assert log[0]["anchor"] == 2


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
        if g.n < 3 or not is_block_graph(g, 3):
            continue
        value, cert = block_graph_Z(g)
        assert value == brute_force_Z(g)[0], g.edges
        assert value == g.n - len(find_blocks(g)), g.edges
        assert check_certificate(g, None, cert)
        count += 1
    assert count > 10


def test_cactus_root_zero_matches_all_roots_minimum():
    # cactus_Z0 roots its DP at vertex 0 only; the oracle reroots it at every
    # vertex by relabelling and keeps the minimum.
    # Every connected cactus up to 7 vertices, then random cacti up to 200.
    from zqforce import is_cactus

    rng = random.Random(67)
    corpus = [g for g in _atlas_connected(7) if is_cactus(g)]
    corpus += [random_cactus(rng.randint(1, 200), rng) for _ in range(200)]
    for g in corpus:
        assert cactus_Z0(g) == cactus_Z0_all_roots(g), g.edges
