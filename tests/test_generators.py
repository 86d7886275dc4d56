import random

import pytest

from zqforce import (
    FamilyParams,
    GraphValidationError,
    generate_family,
    is_block_graph,
    is_cactus,
    is_connected,
)

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
