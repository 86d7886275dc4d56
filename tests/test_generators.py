import random

import pytest

from zqforce import (
    FamilyParams,
    GraphValidationError,
    ResourceLimitError,
    generate_family,
    is_block_graph,
    is_cactus,
    is_connected,
)

from zqforce import generators, graphs
from zqforce.cli import main

from helpers import clique


def test_windmill_I_1_1_l_is_a_clique():
    g = generate_family("windmill_I", FamilyParams(eta=1, k=1, l=3))
    assert g.edges == clique(4).edges


def test_generalized_star_unit_arms_is_a_star():
    g = generate_family("generalized_star", FamilyParams(path_lengths=(1, 1, 1)))
    assert g.n == 4
    assert sorted(len(g.adjacency[v]) for v in range(4)) == [1, 1, 1, 3]
    assert len(g.adjacency[0]) == 3


def test_windmill_II_center_is_independent():
    g = generate_family("windmill_II", FamilyParams(eta=2, k=2, l=2))
    assert g.n == 6
    centers = (4, 5)
    assert (4, 5) not in g.edges
    for c in centers:
        assert set(g.adjacency[c]) == {0, 1, 2, 3}
    assert (0, 1) in g.edges and (2, 3) in g.edges


def test_windmill_I_center_is_a_clique():
    g = generate_family("windmill_I", FamilyParams(eta=2, k=2, l=2))
    assert (4, 5) in g.edges


def test_path_cycle_clique_shapes():
    assert generate_family("path", FamilyParams(n=4)).edges == ((0, 1), (1, 2), (2, 3))
    assert generate_family("cycle", FamilyParams(n=3)).m == 3
    assert generate_family("clique", FamilyParams(n=5)).m == 10


def test_random_kinds_are_deterministic():
    for kind in ("random_block_graph", "random_cactus"):
        a = generate_family(kind, FamilyParams(n=30), seed=99)
        b = generate_family(kind, FamilyParams(n=30), seed=99)
        assert a.edges == b.edges
        c = generate_family(kind, FamilyParams(n=30), seed=100)
        assert c.edges != a.edges


def test_random_block_graph_is_a_block_graph():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(3, 40)
        g = generate_family("random_block_graph", FamilyParams(n=n), seed=rng.randrange(1 << 30))
        assert g.n == n
        assert is_connected(g)
        assert is_block_graph(g)


def test_random_cactus_is_a_cactus():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(1, 40)
        g = generate_family("random_cactus", FamilyParams(n=n), seed=rng.randrange(1 << 30))
        assert g.n == n
        assert is_connected(g)
        assert is_cactus(g)


def test_invalid_params_rejected():
    with pytest.raises(GraphValidationError):
        generate_family("windmill_I", FamilyParams(eta=1, k=0, l=1))
    with pytest.raises(GraphValidationError):
        generate_family("cycle", FamilyParams(n=2))
    with pytest.raises(GraphValidationError):
        generate_family("generalized_star", FamilyParams(path_lengths=()))
    with pytest.raises(GraphValidationError):
        generate_family("random_cactus", FamilyParams(n=5))  # seed required
    with pytest.raises(GraphValidationError):
        generate_family("mystery", FamilyParams(n=5))
    with pytest.raises(GraphValidationError):
        generate_family("random_block_graph", FamilyParams(n=7, blocks=4), seed=1)


def test_generate_family_refuses_oversized_instances_before_building_them(monkeypatch, capsys):
    # Each limit is set to the instance's own size, then one below it: the
    # up-front counts are exact for every kind but random_cactus, whose
    # edge count is bounded by 3(n - 1)/2.
    for kind, params, seed in (
        ("path", FamilyParams(n=30), None),
        ("cycle", FamilyParams(n=30), None),
        ("clique", FamilyParams(n=12), None),
        ("generalized_star", FamilyParams(path_lengths=(3, 1, 4)), None),
        ("windmill_I", FamilyParams(eta=3, k=4, l=2), None),
        ("windmill_II", FamilyParams(eta=3, k=4, l=2), None),
        ("random_block_graph", FamilyParams(n=40, blocks=5), 3),
        ("random_cactus", FamilyParams(n=40), 3),
    ):
        g = generate_family(kind, params, seed=seed)
        with monkeypatch.context() as limits:
            limits.setattr(graphs, "MAX_VERTICES", g.n)
            limits.setattr(graphs, "MAX_EDGES", g.m if kind != "random_cactus" else 3 * (g.n - 1) // 2)
            assert generate_family(kind, params, seed=seed).edges == g.edges
            if kind != "random_cactus":
                limits.setattr(graphs, "MAX_EDGES", g.m - 1)
                with pytest.raises(ResourceLimitError, match=f"edge count {g.m} exceeds the limit of {g.m - 1}"):
                    generate_family(kind, params, seed=seed)
                limits.setattr(graphs, "MAX_EDGES", g.m)
            limits.setattr(graphs, "MAX_VERTICES", g.n - 1)
            with pytest.raises(ResourceLimitError, match=f"vertex count {g.n} exceeds the limit of {g.n - 1}"):
                generate_family(kind, params, seed=seed)

    def unbuilt(*args):
        raise AssertionError("the edge list was built")

    monkeypatch.setattr(generators, "_clique_edges", unbuilt)
    monkeypatch.setattr(graphs, "MAX_VERTICES", 100)
    monkeypatch.setattr(graphs, "MAX_EDGES", 1000)
    assert main(["compute", "--family", "clique", "--n", "46"]) == 3
    assert capsys.readouterr().err == "error: edge count 1035 exceeds the limit of 1000\n"
    assert main(["compute", "--family", "path", "--n", "101"]) == 3
    assert capsys.readouterr().err == "error: vertex count 101 exceeds the limit of 100\n"
