import random
import re

import networkx as nx
import pytest

from zqforce import (
    EdgeListParseError,
    Graph,
    GraphValidationError,
    ResourceLimitError,
    closure_with_forces,
    connected_components,
    find_blocks,
    format_edge_list,
    is_block_graph,
    is_cactus,
    is_connected,
    parse_edge_list,
    unfilled_components,
)

from zqforce import graphs
from zqforce.cli import main

from helpers import (
    BOWTIE,
    block_dfs_reference,
    brute_articulation_points,
    brute_blocks,
    clique,
    cycle,
    disjoint_union,
    induced_edge_count,
    parse_outcome,
    path,
    random_block_graph,
    random_cactus,
    random_connected_graph,
    random_tree,
)


def test_parse_simple_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))


def test_parse_header_isolated_vertices():
    g = parse_edge_list("n 4\n0 1")
    assert g.n == 4
    assert g.edges == ((0, 1),)
    assert g.adjacency[2] == g.adjacency[3] == ()


def test_parse_collapses_duplicates_and_orientation():
    g = parse_edge_list("0 1\n0 1\n1 0")
    assert g.edges == ((0, 1),)


def test_parse_comments_and_blank_lines():
    g = parse_edge_list("# a path\n\n0 1  # first edge\n1 2\n")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_malformed_line_reports_lineno():
    with pytest.raises(EdgeListParseError) as excinfo:
        parse_edge_list("0 1\n1 2 3")
    assert excinfo.value.lineno == 2


def test_parse_self_loop_is_validation_error():
    with pytest.raises(GraphValidationError):
        parse_edge_list("0 1\n2 2")


def test_parse_rejects_empty_input():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("# nothing here\n")


def test_parse_header_must_cover_endpoints():
    with pytest.raises(GraphValidationError):
        parse_edge_list("n 2\n0 5")


def test_parse_refuses_vertex_counts_above_limit(monkeypatch, tmp_path):
    monkeypatch.setattr(graphs, "MAX_VERTICES", 100)
    assert parse_edge_list("0 99").n == 100
    for text in ("0 5000\n", "n 5000\n0 1\n"):
        with pytest.raises(ResourceLimitError):
            parse_edge_list(text)
        big = tmp_path / "big.el"
        big.write_text(text)
        assert main(["compute", "--file", str(big)]) == 3


def test_parse_refuses_edge_counts_above_limit(monkeypatch, tmp_path):
    monkeypatch.setattr(graphs, "MAX_EDGES", 3)
    assert parse_edge_list("n 9\n0 1\n0 1\n1 0").m == 1  # every line counts, duplicates too
    text = "0 1\n1 2\n2 3\n3 4\n"
    with pytest.raises(ResourceLimitError, match="line 4: edge count exceeds the limit of 3"):
        parse_edge_list(text)
    big = tmp_path / "big.el"
    big.write_text(text)
    assert main(["compute", "--file", str(big)]) == 3


def test_parse_errors_keep_their_precedence(monkeypatch):
    # A self-loop is reported last: after line errors and both limits. The
    # edge limit stops the read loop, so it beats a line error after it and
    # the vertex limit; a line error before it still comes first.
    with pytest.raises(EdgeListParseError):
        parse_edge_list("0 0\nx y")
    monkeypatch.setattr(graphs, "MAX_VERTICES", 100)
    with pytest.raises(ResourceLimitError):
        parse_edge_list("0 0\n0 500")
    with pytest.raises(GraphValidationError, match="line 2: self-loop at vertex 1"):
        parse_edge_list("0 1\n1 1\n2 2")
    monkeypatch.setattr(graphs, "MAX_EDGES", 2)
    with pytest.raises(EdgeListParseError):
        parse_edge_list("0 1\nx y\n1 2\n2 3")
    with pytest.raises(ResourceLimitError, match="edge count"):
        parse_edge_list("0 0\n0 500\n1 2\nx y")


@pytest.mark.parametrize("text,lineno", [
    ("1_0 2\n", 1),  # int() reads 10
    ("0 1\n+3 1\n", 2),  # int() reads 3
    ("\u0661 2\n", 1),  # an Arabic-Indic one, which int() reads as 1
    ("n 1_0\n0 1\n", 1),  # a header count int() reads as 10
])
def test_ids_and_vertex_count_are_ascii_digits(text, lineno, tmp_path):
    with pytest.raises(EdgeListParseError) as excinfo:
        parse_edge_list(text)
    assert excinfo.value.lineno == lineno
    assert graphs._parse_plain(text) is None
    path = tmp_path / "g.el"
    path.write_text(text, encoding="utf-8")
    assert main(["compute", "--file", str(path)]) == 2


@pytest.mark.parametrize("chunk", [graphs._CHUNK, 1, 8])
@pytest.mark.parametrize("text, bulk", [
    ("0 1\n" * 40 + "01 2\n", False),  # JSON refuses a leading zero; int() reads it
    ("0 1\n" * 40 + "9" * 5000 + " 1\n", False),  # more digits than int() converts
    ("n 4\n00 01\n1 2\n002 3\n", False),
    ("0 1\n1 2\n2 3\n3 0\n", True),  # the last chunk ends in a line end
    ("0 1\n1 2\n2 3\n3 0", True),  # and here it does not
], ids=["late-zero", "late-long-id", "zeros", "final-newline", "no-final-newline"])
def test_bulk_ids_convert_a_chunk_at_a_time_as_the_line_loop_reads_them(monkeypatch, chunk, text, bulk):
    # The bulk path converts each chunk of whole lines with the JSON
    # decoder. An id JSON refuses, in any chunk, hands the whole text to the
    # line loop, which accepts a leading zero and words a long id's error.
    monkeypatch.setattr(graphs, "_CHUNK", chunk)
    assert (graphs._parse_plain(text) is not None) == bulk
    assert parse_outcome(parse_edge_list, text) == parse_outcome(graphs._parse_lines, text)
    if text.startswith("n 4"):
        assert parse_edge_list(text) == path(4)


def test_edge_list_round_trip():
    g = BOWTIE
    assert parse_edge_list(format_edge_list(g)) == g


def test_graph_adjacency_is_sorted_and_symmetric():
    g = parse_edge_list("2 0\n0 1\n2 1")
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))


def test_graph_is_its_edge_set_whatever_the_edge_order():
    # Adjacency is the only stored form: any order, orientation or
    # repetition of the same pairs gives an equal graph with an equal hash.
    g = random_connected_graph(12, 0.3, random.Random(5))
    listed = list(g.edges) + [(v, u) for u, v in g.edges] + list(g.edges)
    random.Random(6).shuffle(listed)
    got = Graph.from_edges(g.n, listed)
    assert got == g and hash(got) == hash(g)
    assert got.edges == g.edges and got.m == g.m == len(g.edges)


def _int_objects(g):
    """The number of distinct int objects in g's neighbor lists."""
    return len({id(w) for nbrs in g.adjacency for w in nbrs})


def test_graphs_hold_one_int_object_per_vertex_id():
    # The interpreter caches the ints up to 256 only, so above that each
    # int() or range() makes a new object per edge end unless a graph
    # swaps it for its one object of that id. Plain files, with and
    # without a header and with repeats, take the bulk path; the messy
    # one, the line loop; the generator builds through from_edges.
    g = random_block_graph(600, random.Random(11), blocks=120)
    ids = len({w for nbrs in g.adjacency for w in nbrs})
    assert ids > 256 and _int_objects(g) <= ids
    headed = format_edge_list(g)
    headless = headed.split("\n", 1)[1]
    repeated = headless + "".join(f"{v} {u}\n" for u, v in g.edges[::7])
    messy = "# edges\r\n" + "".join(f"{v}\t{u}  # e\r\n" for u, v in g.edges)
    assert all(graphs._parse_plain(text) is not None for text in (headed, headless, repeated))
    assert graphs._parse_plain(messy) is None
    for text in (headed, headless, repeated, messy):
        parsed = parse_edge_list(text)
        assert parsed == g
        assert _int_objects(parsed) <= ids


@pytest.mark.parametrize("pair", [(0, True), (False, 1), (0, 1.0), ("0", 1), (0, None)])
def test_from_edges_refuses_endpoints_that_are_not_ints(pair):
    # A bool is an int to 0 <= u < n and to list indexing, so it would be
    # stored as is and written out as "True"; the rest raised TypeError.
    with pytest.raises(GraphValidationError, match=re.escape(f"edge {pair!r}")):
        Graph.from_edges(3, [(1, 2), pair])


@pytest.mark.parametrize("n, edges, message", [
    (0, [], "graph needs at least one vertex"),
    (-1, [], "graph needs at least one vertex"),
    (3, [(0, 1), (1, 3)], "edge (1, 3) outside vertex range 0..2"),
    (3, [(0, 1), (-1, 2)], "edge (-1, 2) outside vertex range 0..2"),
    (3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
], ids=["no-vertex", "negative-n", "endpoint-past-n", "negative-endpoint", "self-loop"])
def test_from_edges_refuses_bad_graphs(n, edges, message):
    with pytest.raises(GraphValidationError, match=re.escape(message)):
        Graph.from_edges(n, edges)


def test_unfilled_components_cycle_single_gap():
    comps = unfilled_components(cycle(5), frozenset({0}))
    assert comps == [frozenset({1, 2, 3, 4})]


def test_unfilled_components_cycle_two_gaps():
    comps = unfilled_components(cycle(5), frozenset({0, 2}))
    assert comps == [frozenset({1}), frozenset({3, 4})]


def test_unfilled_components_everything_filled():
    g = cycle(5)
    assert unfilled_components(g, frozenset(range(5))) == []


@pytest.mark.parametrize("vertices, message", [
    ([7], "vertex 7 outside range 0..2"),
    ([-1], "vertex -1 outside range 0..2"),
    ([1.5], "vertex 1.5 is not an int"),
    (["a"], "vertex 'a' is not an int"),
    ([True], "vertex True is not an int"),
    ([False], "vertex False is not an int"),
], ids=["past-n", "negative", "float", "str", "true", "false"])
def test_unfilled_components_rejects_foreign_vertex(vertices, message):
    # Both readers of a caller's vertex set refuse the same ids with the same
    # words; a bool is not read as vertex 0 or 1.
    for read in (unfilled_components, closure_with_forces):
        with pytest.raises(GraphValidationError, match=re.escape(message)):
            read(path(3), vertices)


def test_vertex_set_readers_ignore_a_repeated_vertex():
    for g in (path(3), cycle(5), BOWTIE):
        assert unfilled_components(g, [0, 0]) == unfilled_components(g, {0})
        assert closure_with_forces(g, [0, 0]) == closure_with_forces(g, {0})


def test_find_blocks_triangle():
    order = find_blocks(clique(3))
    assert len(order) == 1
    assert order[0].vertices == frozenset({0, 1, 2})
    assert order[0].anchor is None


def test_find_blocks_path_gives_bridge_blocks():
    order = find_blocks(path(4))
    assert [len(b.vertices) for b in order] == [2, 2, 2]
    assert order[-1].anchor is None
    assert all(b.anchor is not None for b in order[:-1])


def test_find_blocks_bowtie_matches_brute_force():
    order = find_blocks(BOWTIE)
    assert {b.vertices for b in order} == brute_blocks(BOWTIE)
    assert order[0].anchor == 2
    assert order[-1].anchor is None
    assert brute_articulation_points(BOWTIE) == {2}


def test_find_blocks_anchors_each_component():
    # A path 0-5-2, the isolated vertex 1, a bowtie on 3,4,6,7,8, and the
    # isolated vertex 9: one anchorless block per component with an edge,
    # components in the order of their smallest vertex.
    g = Graph.from_edges(10, [(0, 5), (5, 2), (3, 4), (3, 6), (4, 6), (6, 7), (6, 8), (7, 8)])
    order = find_blocks(g)
    assert [b.anchor for b in order] == [5, None, 6, None]
    assert [b.vertices for b in order] == [
        frozenset({2, 5}), frozenset({0, 5}), frozenset({6, 7, 8}), frozenset({3, 4, 6}),
    ]
    assert find_blocks(Graph.from_edges(3, [])) == ()
    rng = random.Random(5)
    for _ in range(40):
        parts = [random_connected_graph(rng.randint(1, 6), rng.random() * 0.6, rng) for _ in range(3)]
        g = disjoint_union(*parts, rng=rng)
        order = find_blocks(g)
        assert sum(b.anchor is None for b in order) == sum(part.m > 0 for part in parts)
        covered = frozenset().union(*(b.vertices for b in order))
        assert covered == {v for v in range(g.n) if g.adjacency[v]}


def test_blocks_partition_edges_and_overlap_in_at_most_one_vertex():
    # Every atlas graph with n <= 7, connected or not, then seeded random
    # disjoint unions.
    corpus = [Graph.from_edges(len(nxg), list(nxg.edges())) for nxg in nx.graph_atlas_g()[1:]]
    rng = random.Random(7)
    for _ in range(40):
        parts = [random_connected_graph(rng.randint(1, 12), rng.random() * 0.6, rng)
                 for _ in range(rng.randint(1, 3))]
        corpus.append(disjoint_union(*parts, rng=rng))
    for g in corpus:
        order = find_blocks(g)
        seen = []
        for block in order:
            for u in block.vertices:
                for v in g.adjacency[u]:
                    if v > u and v in block.vertices:
                        seen.append((u, v))
            assert block.edges == induced_edge_count(g, block.vertices), g.edges
        assert sorted(seen) == list(g.edges)
        assert len(seen) == g.m  # each edge in exactly one block
        assert sum(block.edges for block in order) == g.m, g.edges
        blocks = [b.vertices for b in order]
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                assert len(blocks[i] & blocks[j]) <= 1


def test_find_blocks_decomposes_each_graph_object_once(monkeypatch):
    runs = []
    real = graphs._block_dfs

    def counting(g):
        runs.append(g)
        return real(g)

    monkeypatch.setattr(graphs, "_block_dfs", counting)
    g = Graph.from_edges(BOWTIE.n, BOWTIE.edges)
    assert find_blocks(g) is find_blocks(g)
    assert is_block_graph(g) and is_cactus(g)
    assert len(runs) == 1
    # An equal but distinct graph gets its own decomposition, and the memo
    # leaves equality, hashing and repr alone.
    twin = Graph.from_edges(BOWTIE.n, BOWTIE.edges)
    assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
    assert find_blocks(twin) == find_blocks(g) and find_blocks(twin) is not find_blocks(g)
    assert len(runs) == 2


def test_block_dfs_returns_the_edge_stack_traversals_blocks_in_its_order():
    # The order, anchors and edge counts fix block_graph_Z's token order and
    # so the certificate bytes; the reference is the edge-stack traversal.
    corpus = [Graph.from_edges(len(nxg), list(nxg.edges())) for nxg in nx.graph_atlas_g()[1:]]
    rng = random.Random(19)
    for _ in range(10):
        n = rng.randint(2, 200)
        p = rng.uniform(0.5, 3) / n
        corpus += [
            random_tree(n, rng),
            random_cactus(n, rng),
            random_block_graph(max(n, 3), rng),
            Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]),
        ]
    for _ in range(20):
        parts = [random_connected_graph(rng.randint(1, 30), rng.random() * 0.3, rng)
                 for _ in range(rng.randint(1, 3))]
        parts += [Graph.from_edges(rng.randint(1, 3), [])] * rng.randint(1, 2)
        corpus.append(disjoint_union(*parts, rng=rng))
    for g in corpus:
        assert graphs._block_dfs(g) == block_dfs_reference(g), g.edges


def test_find_blocks_agrees_with_networkx_on_random_graphs():
    rng = random.Random(11)
    isolated = 0
    for _ in range(60):
        parts = [random_connected_graph(rng.randint(1, 25), rng.random() * 0.4, rng)
                 for _ in range(rng.randint(1, 3))]
        g = disjoint_union(*parts, rng=rng)
        isolated += g.adjacency.count(())
        ours = {b.vertices for b in find_blocks(g)}
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(range(g.n))
        theirs = {frozenset(c) for c in nx.biconnected_components(nxg)}
        assert ours == theirs
        assert is_connected(g) == nx.is_connected(nxg)
        assert connected_components(g) == sorted(map(frozenset, nx.connected_components(nxg)), key=min)
    assert isolated > 0  # each one is a component of its own


def test_block_order_prefix_invariant_on_random_block_graphs():
    # Removing each block except its anchor must leave the next block
    # sharing exactly one vertex with what remains.
    rng = random.Random(13)
    for _ in range(100):
        g = random_block_graph(rng.randint(3, 50), rng)
        order = find_blocks(g)
        removed = set()
        for i, block in enumerate(order):
            remaining = set()
            for later in order[i + 1 :]:
                remaining |= later.vertices
            shared = block.vertices & remaining
            if i < len(order) - 1:
                assert shared == {block.anchor}
            else:
                assert block.anchor is None
            removed |= block.vertices - {block.anchor}


def test_is_block_graph_examples():
    assert is_block_graph(BOWTIE)
    assert not is_block_graph(path(4))
    assert is_block_graph(clique(4))


def test_is_cactus_examples():
    assert is_cactus(BOWTIE)
    assert not is_cactus(clique(4))
    assert is_cactus(path(6))


def test_cactus_vertex_pairs_share_at_most_one_cycle():
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        g = random_connected_graph(rng.randint(3, 10), rng.random() * 0.4, rng)
        if not is_cactus(g):
            continue
        checked += 1
        nxg = nx.Graph(list(g.edges))
        pair_counts = {}
        for cyc in nx.simple_cycles(nxg):
            if len(cyc) < 3:
                continue
            for i in range(len(cyc)):
                for j in range(i + 1, len(cyc)):
                    key = (min(cyc[i], cyc[j]), max(cyc[i], cyc[j]))
                    pair_counts[key] = pair_counts.get(key, 0) + 1
        assert all(c <= 1 for c in pair_counts.values())


def test_connectivity_helpers():
    assert is_connected(BOWTIE)
    assert not is_connected(Graph.from_edges(3, [(0, 1)]))
    assert is_connected(Graph.from_edges(1, []))
    assert not is_connected(Graph.from_edges(3, []))
