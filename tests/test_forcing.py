import random
from itertools import combinations

import pytest

import zqforce.forcing
from zqforce import (
    Certificate,
    ForceMove,
    Graph,
    GraphValidationError,
    ScopeError,
    TokenMove,
    brute_force_Z,
    check_certificate,
    closure_with_forces,
    is_connected,
    mask_to_vertices,
    vertices_to_mask,
)
from zqforce.forcing import _adjacency_masks, _window_closure

from helpers import (
    BOWTIE,
    clique,
    closure_with_forces_reference,
    cycle,
    disjoint_union,
    naive_brute_force_Z,
    naive_window_closure,
    naive_window_forces,
    path,
    random_cactus,
    random_connected_graph,
    random_forest_parts,
    random_tree,
)


# The game tests' reference solver reads rule 2 off naive_window_forces; with
# the whole graph as the window it lists the applicable forces.


def test_applicable_forces_path_endpoint():
    assert naive_window_forces(path(3), {0}, range(3)) == [(0, 1)]


def test_applicable_forces_triangle_one_filled():
    assert naive_window_forces(clique(3), {0}, range(3)) == []


def test_applicable_forces_triangle_two_filled():
    assert naive_window_forces(clique(3), {0, 1}, range(3)) == [(0, 2), (1, 2)]


def test_closure_path_fills_from_endpoint():
    assert closure_with_forces(path(5), {0})[0] == frozenset(range(5))


def test_closure_cycle_single_token_is_stuck():
    assert closure_with_forces(cycle(5), {0})[0] == frozenset({0})


def test_closure_bowtie_partial():
    assert closure_with_forces(BOWTIE, {0, 1})[0] == frozenset({0, 1, 2})


def test_closure_force_sequence_is_legal_replay():
    g = path(6)
    closed, forces = closure_with_forces(g, {0})
    assert closed == frozenset(range(6))
    filled = {0}
    for f in forces:
        unfilled = [w for w in g.adjacency[f.source] if w not in filled]
        assert f.source in filled and unfilled == [f.target]
        filled.add(f.target)


def test_closure_properties_on_random_graphs():
    # extensive, monotone, idempotent
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(2, 12)
        g = random_connected_graph(n, rng.random() * 0.5, rng)
        a = frozenset(v for v in range(n) if rng.random() < 0.3)
        b = a | frozenset(v for v in range(n) if rng.random() < 0.2)
        ca, cb = closure_with_forces(g, a)[0], closure_with_forces(g, b)[0]
        assert a <= ca
        assert ca <= cb
        assert closure_with_forces(g, ca)[0] == ca
        assert ca == naive_window_closure(g, a, range(n))


def _seeded_graphs(rng, count, max_n):
    """count graphs with at most max_n vertices, one in three a shuffled
    union of random parts (isolated vertices among them), the rest random
    connected graphs, trees and cacti."""
    makers = (
        lambda n: random_connected_graph(n, rng.random() * 0.5, rng),
        lambda n: random_tree(n, rng),
        lambda n: random_cactus(n, rng),
    )
    graphs = []
    for i in range(count):
        if i % 3 == 2:
            graphs.append(disjoint_union(*random_forest_parts(rng, max_n), rng=rng))
        else:
            graphs.append(makers[i % 3](rng.randint(2, max_n)))
    return graphs


@pytest.mark.parametrize("vertices", [[True], [False, 3], [-1], [1.5]], ids=["true", "false", "negative", "float"])
def test_vertices_to_mask_refuses_an_id_that_is_no_vertex(vertices):
    # 1 << v would read a bool as vertex 0 or 1, and meets -1 or 1.5 with an
    # untyped error.
    with pytest.raises(GraphValidationError, match=r"is not a nonnegative int"):
        vertices_to_mask(vertices)


def test_bitmask_closure_matches_closure_with_forces_on_every_subset():
    # Brute force and the game search close bitmasks, certificates close
    # sets; all three closures must agree on every filled set.
    graphs = [Graph.from_edges(1, []), Graph.from_edges(4, []), Graph.from_edges(5, [(1, 3)]), BOWTIE]
    graphs += _seeded_graphs(random.Random(71), 45, 7)
    assert sum(not is_connected(g) for g in graphs) >= 5
    assert any(not nbrs for g in graphs[4:] for nbrs in g.adjacency)
    for g in graphs:
        masks = _adjacency_masks(g)
        full = (1 << g.n) - 1
        for k in range(g.n + 1):
            for s in combinations(range(g.n), k):
                closed = closure_with_forces(g, s)[0]
                assert mask_to_vertices(_window_closure(masks, vertices_to_mask(s), full)) == closed, (g.n, g.edges, s)
                assert naive_window_closure(g, s, range(g.n)) == closed, (g.n, g.edges, s)


def test_closure_and_forces_match_reference_on_the_atlas():
    # Every atlas graph with n <= 7, connected or not, and every filled set:
    # the same closure and the same force list, move for move.
    import networkx as nx

    for nxg in nx.graph_atlas_g()[1:]:
        g = Graph.from_edges(len(nxg), list(nxg.edges()))
        for mask in range(1 << g.n):
            s = [v for v in range(g.n) if mask >> v & 1]
            assert closure_with_forces(g, s) == closure_with_forces_reference(g, s), (g.n, g.edges, s)


def test_closure_and_forces_match_reference_on_seeded_graphs():
    # Seeded graphs up to 60 vertices, disconnected ones and isolated
    # vertices among them, each with the empty set, the full set and random
    # sets from sparse to nearly full.
    rng = random.Random(79)
    graphs = [Graph.from_edges(1, []), Graph.from_edges(7, [(2, 5)])] + _seeded_graphs(rng, 90, 60)
    assert sum(not is_connected(g) for g in graphs) >= 25
    assert sum(any(not nbrs for nbrs in g.adjacency) for g in graphs) >= 5
    for g in graphs:
        sets = [[], list(range(g.n))]
        sets += [[v for v in range(g.n) if rng.random() < p] for p in (0.1, 0.3, 0.6, 0.9)]
        for s in sets:
            assert closure_with_forces(g, s) == closure_with_forces_reference(g, s), (g.n, g.edges, s)


def test_brute_force_witness_matches_naive_reference():
    # The witness is the first zero forcing set in (size, combinations)
    # order, whatever closure tests it; CLI certificates print it.
    graphs = _seeded_graphs(random.Random(73), 120, 9)
    assert sum(not is_connected(g) for g in graphs) >= 30
    for g in graphs:
        assert brute_force_Z(g) == naive_brute_force_Z(g), (g.n, g.edges)


def _zero_forcing(g, s):
    return closure_with_forces(g, s)[0] == frozenset(range(g.n))


def test_is_zero_forcing_set_examples():
    assert _zero_forcing(cycle(5), {0, 1})
    assert not _zero_forcing(cycle(5), {0})
    assert _zero_forcing(BOWTIE, {0, 1, 3})


def test_brute_force_paths_and_cliques():
    for n in range(2, 8):
        assert brute_force_Z(path(n))[0] == 1
        assert brute_force_Z(clique(n))[0] == n - 1


def test_brute_force_bowtie():
    value, witness = brute_force_Z(BOWTIE)
    assert value == 3
    assert _zero_forcing(BOWTIE, witness)
    assert len(witness) == 3


def test_brute_force_witness_is_lex_smallest():
    assert brute_force_Z(path(3)) == (1, frozenset({0}))


def test_brute_force_cap_refusal(monkeypatch):
    with pytest.raises(ScopeError):
        brute_force_Z(path(21))
    monkeypatch.setattr(zqforce.forcing, "BRUTE_FORCE_CAP", 25)
    assert brute_force_Z(path(21))[0] == 1


def test_applicable_forces_replay_as_legal_certificate_steps():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 9)
        g = random_connected_graph(n, rng.random() * 0.5, rng)
        filled = frozenset(v for v in range(n) if rng.random() < 0.4)
        for u in sorted(filled):
            unfilled = [w for w in g.adjacency[u] if w not in filled]
            if len(unfilled) != 1:
                continue
            t = unfilled[0]
            # pad with tokens and closure forces to a full fill, so only the
            # probed force's own legality can make the check fail
            extra = sorted(set(range(n)) - closure_with_forces(g, filled | {t})[0])
            trace = [TokenMove(v) for v in sorted(filled)]
            trace.append(ForceMove(u, t))
            trace.extend(TokenMove(v) for v in extra)
            _, tail = closure_with_forces(g, filled | {t} | set(extra))
            trace.extend(tail)
            cert = Certificate(tuple(trace))
            assert check_certificate(g, g.n, cert)
