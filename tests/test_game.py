import gc
import hashlib
import json
import random
from itertools import combinations, product

import pytest

import zqforce.game
from zqforce import (
    MODE_CLOSURE,
    MODE_SINGLE_FORCE,
    AnnounceMove,
    ForceMove,
    GameConfig,
    GameSolution,
    GraphValidationError,
    OracleProtocolError,
    ResourceLimitError,
    RevealMove,
    TokenMove,
    adversarial_oracle,
    brute_force_Z,
    check_certificate,
    extract_player_trace,
    generate_family,
    FamilyParams,
    Graph,
    format_certificate,
    mask_to_vertices,
    solve_zq,
    vertices_to_mask,
)
from zqforce.forcing import _adjacency_masks, _window_closure
from zqforce.game import _ANNOUNCE, _TOKEN, _twin_classes

from helpers import (
    BOWTIE,
    clique,
    cycle,
    disjoint_union,
    naive_components,
    naive_reveal_successors,
    naive_window_closure,
    naive_zq_table,
    path,
    random_block_graph,
    random_cactus,
    random_connected_graph,
    random_tree,
    star,
)


def test_clique_value_for_every_q():
    for q in range(5):
        assert solve_zq(clique(4), GameConfig(q=q)).value == 3


def test_path_value_for_every_q():
    for n in (2, 4, 6):
        for q in (0, 1, n):
            assert solve_zq(path(n), GameConfig(q=q)).value == 1


def test_bowtie_q0():
    assert solve_zq(BOWTIE, GameConfig(q=0)).value == 3


def test_monotone_chain_and_brute_agreement():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 7)
        g = random_connected_graph(n, rng.random() * 0.5, rng)
        values = [solve_zq(g, GameConfig(q=q)).value for q in range(n + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == brute_force_Z(g)[0]


def test_game_with_q_equal_n_matches_brute_force_up_to_18():
    # At q >= n the exact search is the only route, so brute force checks it
    # on each seeded family up to n = 18. Dense G(n, 0.5) stops at n = 17 to
    # keep the test short: there both solves take about twice as long per
    # added vertex.
    rng = random.Random(33)
    samples = [cycle(8), clique(8), star((3, 2, 2))]
    samples += [random_connected_graph(8, rng.random() * 0.4, rng) for _ in range(8)]
    families = (
        (random_tree, range(9, 19)),
        (random_cactus, range(9, 19)),
        (random_block_graph, range(9, 19)),
        (lambda n, rng: random_connected_graph(n, 0.15, rng), range(9, 19)),
        (lambda n, rng: random_connected_graph(n, 0.5, rng), range(9, 18)),
    )
    samples += [make(n, random.Random(1000 * n + 7)) for make, sizes in families for n in sizes]
    for g in samples:
        assert solve_zq(g, GameConfig(q=g.n)).value == brute_force_Z(g)[0], g.edges


def test_memo_consistency():
    for g in (cycle(6), BOWTIE, star((2, 2, 1))):
        sol = solve_zq(g, GameConfig(q=1))
        value = _table_reader(sol)
        full = (1 << g.n) - 1
        for state, val in list(sol.values.items()):
            assert value(state) == val
            rest = full & ~state
            while rest:
                low = rest & -rest
                rest ^= low
                assert val <= 1 + value(state | low)
        for state, bound in list(sol.bounds.items()):
            assert value(state) >= bound >= 1


def _table_reader(sol):
    """The exact value of a state by the solution's own scorer: read under
    the canonical key of the state's forcing closure, and searched with a
    budget above every value where the memos fall short."""
    return lambda filled: sol._capped(filled, sol._exact)


def _closed_states(g):
    """Every forcing-closed filled set of g, as a mask."""
    masks = _adjacency_masks(g)
    full = (1 << g.n) - 1
    return [s for s in range(1 << g.n) if _window_closure(masks, s, full) == s]


def _naive_twin_pairs(g):
    """Pairs u < v with equal open or equal closed neighbourhoods."""
    nbrs = [set(g.adjacency[v]) for v in range(g.n)]
    return [
        (u, v)
        for u, v in combinations(range(g.n), 2)
        if nbrs[u] == nbrs[v] or nbrs[u] | {u} == nbrs[v] | {v}
    ]


def _is_canonical(g, state):
    """Whether each twin class of g is filled lowest-indexed member first."""
    return not any(state >> v & 1 and not state >> u & 1 for u, v in _naive_twin_pairs(g))


def _reveal_values(g, sol, filled, announcement):
    """Player's value after each reveal, from the reference's successors and
    the table; None if some reveal is dead."""
    value = _table_reader(sol)
    per_reveal = {}
    for size in range(1, len(announcement) + 1):
        for reveal in combinations(announcement, size):
            succs = naive_reveal_successors(g, filled, reveal, sol.rule3_mode)
            if not succs:
                return None
            per_reveal[frozenset(reveal)] = min(value(vertices_to_mask(s)) for s in succs)
    return per_reveal


def test_oracle_response_attains_reveal_maximum():
    # The oracle answers at every forcing-closed state, in the memos or not,
    # so every case needs a closed state with a live (q+1)-announcement:
    # star((1, 1, 2)) at q=1 and the bowtie at q=0 have none. Its answer is
    # the first maximal reveal in subset order, where bit j of a subset's
    # index stands for the announcement's j-th component.
    cases = ((cycle(5), 0), (cycle(6), 1), (star((1, 1, 2)), 0), (star((2, 2, 2)), 1), (star((1, 1, 1)), 0))
    for (g, q), mode in product(cases, (MODE_CLOSURE, MODE_SINGLE_FORCE)):
        sol = solve_zq(g, GameConfig(q=q, rule3_mode=mode))
        assert sol.oracle_response == {}
        oracle = adversarial_oracle(sol)
        checked = 0
        for state in _closed_states(g):
            filled = mask_to_vertices(state)
            for announcement in combinations(naive_components(g, filled), q + 1):
                per_reveal = _reveal_values(g, sol, filled, announcement)
                if per_reveal is None:
                    with pytest.raises(OracleProtocolError):
                        oracle(filled, announcement)
                    continue
                subsets = [
                    frozenset(c for j, c in enumerate(announcement) if sub >> j & 1)
                    for sub in range(1, 1 << len(announcement))
                ]
                worst = max(per_reveal.values())
                first = next(reveal for reveal in subsets if per_reveal[reveal] == worst)
                assert frozenset(oracle(filled, announcement)) == first, (g.edges, q, mode, sorted(filled))
                checked += 1
        assert checked, (g.edges, q, mode)
        assert len(sol.oracle_response) == checked


def test_adversarial_oracle_refuses_unevaluated_announcements():
    oracle = adversarial_oracle(solve_zq(cycle(5), GameConfig(q=0)))
    assert oracle({0, 2}, (frozenset({3, 4}),)) == (frozenset({3, 4}),)
    assert oracle({0, 2}, (frozenset({1}),)) == (frozenset({1}),)
    with pytest.raises(OracleProtocolError):  # the answered announcement, listed twice
        oracle({0, 2}, (frozenset({1}), frozenset({1})))
    # A closed state that is no memo key: leaf 3 is filled before its twins.
    sol = solve_zq(star((1, 1, 1)), GameConfig(q=0))
    assert vertices_to_mask({0, 3}) not in sol.values.keys() | sol.bounds.keys()
    assert adversarial_oracle(sol)({0, 3}, (frozenset({1}),)) == (frozenset({1}),)
    for g, q, filled, announcement in (
        (cycle(5), 0, {0, 2}, (frozenset({1}), frozenset({3, 4}))),  # q+2 components
        (cycle(5), 0, {0, 2}, (frozenset({1}), frozenset({1}))),  # one component twice
        (cycle(5), 0, {0, 2}, (frozenset({1, 3}),)),  # not a component
        (cycle(5), 0, {0}, (frozenset({1, 2, 3, 4}),)),  # dead: revealing it admits no force
        (cycle(5), 0, {0, 1}, (frozenset({2, 3, 4}),)),  # not forcing-closed: 0 forces 4
        (cycle(5), 2, {0, 2}, (frozenset({1}), frozenset({3, 4}))),  # 2 components, q+1 = 3
        (BOWTIE, 0, {0, 1, 2}, (frozenset({3, 4}),)),  # dead: 2 sees both 3 and 4
        (clique(4), 0, {0}, (frozenset({1, 2, 3}),)),  # dead: 0 sees all of it
    ):
        oracle = adversarial_oracle(solve_zq(g, GameConfig(q=q)))
        with pytest.raises(OracleProtocolError, match="announcement is not q\\+1 distinct unfilled components"):
            oracle(filled, announcement)


@pytest.mark.parametrize("filled, announcement", [
    ({0, 2, -1}, (frozenset({1}),)),
    ({0, 2}, (frozenset({3, 4, -1}),)),
    ({0, 2, 5}, (frozenset({1}),)),
    ({0, 2.0}, (frozenset({1}),)),
    ({0, 2}, (frozenset({"1"}),)),
    ({False, 3}, (frozenset({1, 2}),)),
    ({0, 2}, (frozenset({True}),)),
    ({0, 10**9}, (frozenset({1}),)),
    ({0, 2}, (frozenset({10**12}),)),
    ({0, 10**5000}, (frozenset({1}),)),
], ids=["negative-filled", "negative-announced", "filled-past-n", "float-filled", "str-announced",
        "bool-filled", "bool-announced", "filled-1e9", "announced-1e12", "filled-1e5000"])
def test_adversarial_oracle_refuses_vertices_outside_the_graph(filled, announcement):
    # 1 << v refuses a negative or non-int vertex, and a filled vertex at n
    # or above would index past the adjacency masks. A bool is no vertex,
    # though 1 << True would read it as vertex 1. The ids are checked before
    # any mask is built: 1 << v for a huge v costs time and memory, or
    # raises MemoryError or OverflowError.
    oracle = adversarial_oracle(solve_zq(cycle(5), GameConfig(q=0)))
    with pytest.raises(OracleProtocolError, match=r"names a vertex outside 0\.\.4"):
        oracle(filled, announcement)


def test_solver_matches_unoptimized_reference():
    # The reference enumerates announcements of every size and all token
    # moves and memoizes every filled set, so this exercises the solver's
    # q+1-announcement restriction and its closure-keyed memo against
    # unrestricted play.
    import networkx as nx

    from helpers import naive_zq_value

    graphs = []
    for nxg in nx.graph_atlas_g()[1:]:
        if 1 <= len(nxg) <= 5 and nx.is_connected(nxg):
            graphs.append(Graph.from_edges(len(nxg), list(nxg.edges())))
    rng = random.Random(67)
    graphs += [random_connected_graph(6, rng.random() * 0.6, rng) for _ in range(10)]
    for g in graphs:
        for q in (0, 1, 2):
            fast = solve_zq(g, GameConfig(q=q)).value
            for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
                assert fast == naive_zq_value(g, q, mode), (g.edges, q, mode)


def test_best_move_achieves_memoized_value_everywhere():
    # At every closed state, _best() must pick the move a full value table
    # would: the least (value, kind, key) over every live announcement and
    # every token, scored with exact values. Its value is the state's, a
    # token attains it, and so does the oracle's reveal of an announcement.
    cases = ((cycle(6), 0), (BOWTIE, 0), (star((1, 1, 2)), 1), (star((1, 1, 1, 2)), 1), (clique(4), 1))
    for (g, q), mode in zip(cases * 2, (MODE_CLOSURE,) * len(cases) + (MODE_SINGLE_FORCE,) * len(cases)):
        sol = solve_zq(g, GameConfig(q=q, rule3_mode=mode))
        value = _table_reader(sol)
        oracle = adversarial_oracle(sol)
        full = (1 << g.n) - 1
        for state in _closed_states(g):
            if state == full:
                continue
            filled = mask_to_vertices(state)
            val = value(state)
            moves = [(1 + value(state | 1 << v), _TOKEN, (v,)) for v in range(g.n) if not state >> v & 1]
            for announcement in combinations(naive_components(g, filled), q + 1):
                per_reveal = _reveal_values(g, sol, filled, announcement)
                if per_reveal is not None:
                    key = tuple(vertices_to_mask(c) for c in announcement)
                    moves.append((max(per_reveal.values()), _ANNOUNCE, key))
            move = sol._best(state)
            case = (g.edges, q, mode, sorted(filled))
            assert move == min(moves), case
            move_val, kind, key = move
            assert move_val == val, case
            if kind == _TOKEN:
                assert val == 1 + value(state | (1 << key[0])), case
            else:
                announcement = tuple(mask_to_vertices(c) for c in key)
                per_reveal = _reveal_values(g, sol, filled, announcement)
                assert val == max(per_reveal.values()), case
                assert per_reveal[frozenset(oracle(filled, announcement))] == val, case


def test_values_invariant_under_closure_and_monotone():
    # Closure-canonical memoization relies on both: forcing never changes the
    # value, and an extra filled vertex never raises it. Both are checked on
    # every filled set of the reference table, which memoizes each set under
    # itself, and the solver's value(), which reads and searches under the
    # closure, must match the reference on every set, closed or not.
    rng = random.Random(43)
    for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
        for q in (0, 1, 2):
            for _ in range(50):
                n = rng.randint(2, 8)
                g = random_connected_graph(n, rng.random() * 0.5, rng)
                sol = solve_zq(g, GameConfig(q=q, rule3_mode=mode))
                value = _table_reader(sol)
                table = naive_zq_table(g, q, mode)
                for filled, val in table.items():
                    case = (g.edges, q, mode, sorted(filled))
                    assert table[naive_window_closure(g, filled, range(n))] == val, case
                    assert value(vertices_to_mask(filled)) == val, case
                    for v in range(n):
                        assert table[filled | {v}] <= val, case


def test_both_rule3_modes_produce_the_same_table():
    # Rule 3's closure mode and single_force mode give every filled set the
    # same value, not just the root (the proof is in game.py), so both modes
    # run one search and the mode changes only replay. The two solutions
    # therefore store the same states with the same values and bounds.
    # Criterion 10 checks the theorem itself on the naive tables.
    rng = random.Random(43)
    makers = (
        lambda n: random_connected_graph(n, rng.random() * 0.5, rng),
        lambda n: random_tree(n, rng),
        lambda n: random_cactus(n, rng),
    )
    for i in range(300):
        g = makers[i % 3](rng.randint(4, 9))
        for q in (0, 1, 2):
            closure = solve_zq(g, GameConfig(q, MODE_CLOSURE))
            single = solve_zq(g, GameConfig(q, MODE_SINGLE_FORCE))
            assert closure.value == single.value, (g.edges, q)
            assert closure.values == single.values, (g.edges, q)
            assert closure.bounds == single.bounds, (g.edges, q)
            assert closure.states_explored == single.states_explored, (g.edges, q)


def test_search_skips_tokens_where_an_announcement_costs_at_most_one():
    # A token costs at least 1 and loses ties to an announcement, so the
    # search scores no token where an announcement is worth 0 or 1. Scoring
    # every token successor reaches all 2,208 closed states of C16 at each q.
    # Upper bounds, so that a search that skips more still passes.
    for q, bound in ((0, 122), (1, 474), (2, 1134)):
        sol = solve_zq(cycle(16), GameConfig(q=q))
        assert sol.value == 2
        assert sol.states_explored <= bound, (q, sol.states_explored)


def test_q0_search_settles_each_state_at_its_first_live_announcement():
    # At q = 0 the search keeps the value of the first live announcement and
    # scores no other move there, which halves the states it stores on these
    # cacti. An upper bound, so that a search that stores fewer still passes.
    values = []
    states = 0
    for seed in (1, 2, 3):
        sol = solve_zq(generate_family("random_cactus", FamilyParams(n=20), seed=seed), GameConfig(q=0))
        values.append(sol.value)
        states += sol.states_explored
    assert values == [6, 5, 4], values
    assert states <= 4300, states


def test_a_token_inside_a_grown_key_has_its_key_inside_it():
    # The search keys no token that lies inside the key of an earlier
    # token. That is sound because a key K of F + w is closed, canonical and
    # holds F, so the key of F + v lies inside K for each token v in K. A
    # token is the lowest unfilled member of its twin class, or a vertex
    # with no twin. Checked on the memo keys of solves of graphs with twin
    # classes.
    graphs = [
        generate_family("windmill_I", FamilyParams(eta=3, k=3, l=1)),
        generate_family("windmill_II", FamilyParams(eta=2, k=3, l=2)),
        # W''(a, 1, b) is K_{a,b}.
        generate_family("windmill_II", FamilyParams(eta=3, k=1, l=4)),
        generate_family("windmill_II", FamilyParams(eta=2, k=1, l=5)),
    ]
    for make in (random_block_graph, random_cactus, random_tree):
        seeded = (make(n, random.Random(seed)) for seed in range(1, 100) for n in (12, 14))
        graphs += [g for g in seeded if _naive_twin_pairs(g)][:2]
    inside = 0
    for g in graphs:
        twins = _naive_twin_pairs(g)
        assert twins, g.edges
        masks = _adjacency_masks(g)
        full = (1 << g.n) - 1
        sol = solve_zq(g, GameConfig(q=1))
        for state in sol.values.keys() | sol.bounds.keys():
            case = (g.edges, state)
            assert _window_closure(masks, state, full) == state and _is_canonical(g, state), case
            unfilled = [v for v in range(g.n) if not state >> v & 1]
            tokens = [v for v in unfilled if not any(b == v and not state >> a & 1 for a, b in twins)]
            for w in tokens:
                key = sol._key(state | 1 << w)
                assert key & state == state, case + (w,)
                for v in tokens:
                    if v != w and key >> v & 1:
                        inside += 1
                        assert sol._key(state | 1 << v) | key == key, case + (w, v)
    assert inside > 1000


def test_search_keys_no_token_inside_a_key_it_has_found(monkeypatch):
    # The states and window closures of the search at q = 1 on these trees
    # and cacti, with the counts that each of its skips saved:
    # - a token whose successor's closure lies inside another token's is
    #   worth no less (monotonicity), so the search scores tokens largest
    #   key first and skips one inside a scored key. Without the skip it
    #   stored 4,440 and 11,450 states;
    # - every live announcement attains the state's value, so the search
    #   scores no token where one is live. Before that it scored every
    #   announcement and then the tokens, and stored 1,395 and 3,519 states;
    # - skipping the tokens inside a key already found leaves every scored
    #   key, its budget and its order as they were, so the states stay
    #   exactly those of a search that keys every token successor. The
    #   closures fell from 2,959 to 2,892 and from 12,925 to 10,240. Each
    #   closure bound lies between the two counts.
    # The counts were measured in closure mode; both rule-3 modes run the
    # same search.
    expected = {random_tree: ([4, 3, 4], 505, 2920), random_cactus: ([4, 6, 6], 2677, 11500)}
    calls = []

    def closure_spy(masks, filled, window, check=None):
        calls.append(filled)
        return _window_closure(masks, filled, window, check)

    monkeypatch.setattr(zqforce.game, "_window_closure", closure_spy)
    for make, (values, states, closures) in expected.items():
        calls.clear()
        sols = [solve_zq(make(20, random.Random(seed)), GameConfig(q=1)) for seed in (1, 2, 3)]
        assert [sol.value for sol in sols] == values, make.__name__
        assert sum(sol.states_explored for sol in sols) == states, make.__name__
        assert len(calls) <= closures, (make.__name__, len(calls))


def test_naive_table_is_closure_invariant_and_monotone():
    # The reference memoizes every filled set under itself, not under its
    # closure, so it checks without assuming them the two facts the solver's
    # closure-keyed memo rests on. Every key the solver stores, after the
    # solve and after trace replay has searched on, must then be
    # forcing-closed and canonical, and carry the reference's value in
    # values or a lower bound on it in bounds.
    rng = random.Random(53)
    for _ in range(150):
        g = random_connected_graph(rng.randint(2, 7), rng.random() * 0.5, rng)
        for q in (0, 1, 2):
            for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
                table = naive_zq_table(g, q, mode)
                assert len(table) == 1 << g.n
                for filled, val in table.items():
                    case = (g.edges, q, mode, sorted(filled))
                    assert table[naive_window_closure(g, filled, range(g.n))] == val, case
                    for v in range(g.n):
                        assert table[filled | {v}] <= val, case
                sol = solve_zq(g, GameConfig(q=q, rule3_mode=mode))
                for replayed in (False, True):
                    if replayed:
                        extract_player_trace(sol)
                    assert not sol.values.keys() & sol.bounds.keys()
                    for state, val in [*sol.values.items(), *sol.bounds.items()]:
                        filled = mask_to_vertices(state)
                        case = (g.edges, q, mode, sorted(filled), replayed)
                        assert naive_window_closure(g, filled, range(g.n)) == filled, case
                        assert _is_canonical(g, state), case
                        if state in sol.values:
                            assert table[filled] == val, case
                        else:
                            assert table[filled] >= val, case


def test_every_live_reveal_keeps_the_value_at_q0():
    # At q = 0 an announcement names one component and the oracle must
    # reveal all of it, so every successor of a live reveal has the value
    # of the state it came from, in both rule-3 modes: the search settles a
    # q = 0 state at its first live announcement. At q = 1 the oracle picks
    # among reveals, and some successors fall below the state's value, so
    # the check is not vacuous.
    rng = random.Random(107)
    makers = (
        lambda n: random_connected_graph(n, rng.random() * 0.5, rng),
        lambda n: random_tree(n, rng),
        lambda n: random_cactus(n, rng),
    )
    checks = below = 0
    for i in range(60):
        g = makers[i % 3](rng.randint(3, 7))
        for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
            for q in (0, 1):
                table = naive_zq_table(g, q, mode)
                for filled, val in table.items():
                    for comp in naive_components(g, filled):
                        for succ in naive_reveal_successors(g, filled, (comp,), mode):
                            if q == 0:
                                assert table[succ] == val, (g.edges, mode, sorted(filled), sorted(comp))
                                checks += 1
                            else:
                                below += table[succ] < val
    assert checks > 5000 and below > 500, (checks, below)


def test_every_live_announcement_attains_the_value_at_every_q():
    # Each reveal of a live announcement at F leads to filled sets that
    # contain F and so are worth at most V(F), and announcing is one of the
    # player's moves, so its worst reveal is worth exactly V(F) at every q,
    # in both rule-3 modes. The search settles a state at its first live
    # announcement, and trace replay announces the first live one in key
    # order, on the strength of this.
    rng = random.Random(109)
    makers = (
        lambda n: random_connected_graph(n, rng.random() * 0.5, rng),
        lambda n: random_tree(n, rng),
        lambda n: random_cactus(n, rng),
    )
    checks = 0
    for i in range(64):
        g = makers[i % 3](rng.randint(4, 7))
        for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
            for q in (0, 1, 2):
                table = naive_zq_table(g, q, mode)
                for filled, val in table.items():
                    for announcement in combinations(naive_components(g, filled), q + 1):
                        worst = -1
                        for size in range(1, q + 2):
                            for reveal in combinations(announcement, size):
                                succs = naive_reveal_successors(g, filled, reveal, mode)
                                if not succs:
                                    worst = None
                                    break
                                worst = max(worst, min(table[s] for s in succs))
                            if worst is None:
                                break
                        if worst is not None:
                            assert worst == val, (g.edges, mode, q, sorted(filled), announcement)
                            checks += 1
    assert checks > 15000, checks


def test_naive_value_never_falls_as_q_grows_at_any_state():
    # V_q(F) <= V_{q+1}(F) at every filled set F, in both rule-3 modes: an
    # announcement legal at q + 1 contains one legal at q whose reveals are
    # among its own. A warm solve seeds its bounds memo with this.
    rng = random.Random(97)
    makers = (
        lambda n: random_connected_graph(n, rng.random() * 0.5, rng),
        lambda n: random_tree(n, rng),
        lambda n: random_cactus(n, rng),
    )
    for i in range(45):
        g = makers[i % 3](rng.randint(4, 8))
        for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
            tables = [naive_zq_table(g, q, mode) for q in range(4)]
            for q, (lower, upper) in enumerate(zip(tables, tables[1:])):
                for filled, val in lower.items():
                    assert val <= upper[filled], (g.edges, mode, q, sorted(filled))


def test_a_warm_chain_gives_the_cold_values_and_certificates():
    # Seeded floors change which keys the search stores, never a value, so
    # each warm solve must give the cold solve's value and, replayed, the
    # same certificate, which checks and spends exactly the value.
    rng = random.Random(101)
    makers = (
        random_cactus,
        random_tree,
        random_block_graph,
        lambda n, rng: random_connected_graph(n, 0.15, rng),
        lambda n, rng: random_connected_graph(n, 0.5, rng),
    )
    for i in range(30):
        g = makers[i % 5](rng.randint(5, 11), rng)
        for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
            chain = [solve_zq(g, GameConfig(q=0, rule3_mode=mode))]
            for q in (1, 2, g.n):
                chain.append(solve_zq(g, GameConfig(q=q, rule3_mode=mode), chain[-1]))
            for below, sol in zip(chain, chain[1:]):
                case = (g.edges, mode, sol.q)
                cold = solve_zq(g, GameConfig(q=sol.q, rule3_mode=mode))
                assert sol.value == cold.value >= below.value, case
                assert sol._raw is below._raw, case
                cert = extract_player_trace(sol)
                assert len(cert.tokens) == sol.value and check_certificate(g, sol.q, cert), case
                assert format_certificate(cert) == format_certificate(extract_player_trace(cold)), case


def test_a_solve_refuses_a_seed_it_cannot_use():
    # A seed from another graph or a larger q would give wrong floors, so it
    # is refused before any search. The values do not depend on the rule-3
    # mode, so a seed from the other mode gives a cold solve's value and play.
    g = cycle(6)
    below = solve_zq(g, GameConfig(q=1))
    assert solve_zq(g, GameConfig(q=1), below).value == below.value == 2
    single = GameConfig(q=2, rule3_mode=MODE_SINGLE_FORCE)
    warm, cold = solve_zq(g, single, below), solve_zq(g, single)
    assert (warm.value, extract_player_trace(warm)) == (cold.value, extract_player_trace(cold))
    refused = (
        (cycle(7), GameConfig(q=2)),
        (path(6), GameConfig(q=2)),
        (g, GameConfig(q=0)),
    )
    for other, cfg in refused:
        with pytest.raises(GraphValidationError, match="same graph at a q no larger"):
            solve_zq(other, cfg, below)


def test_memo_limit_counts_the_seeded_keys(monkeypatch):
    # A warm solve starts with below's keys in its memos and counts them
    # against MEMO_LIMIT: with room for exactly its memos it completes with
    # the same memos, and with room for the seeded keys alone it raises.
    # The graph is one whose warm solve stores keys of its own besides the
    # full state; on many cacti the seeded floors answer every question.
    g = random_tree(12, random.Random(64))
    below = solve_zq(g, GameConfig(q=1))
    reference = solve_zq(g, GameConfig(q=2), below)
    seeded = sum(1 for val in below.values.values() if val) + len(below.bounds)
    assert reference.states_explored > seeded + 1
    monkeypatch.setattr(zqforce.game, "MEMO_LIMIT", reference.states_explored)
    sol = solve_zq(g, GameConfig(q=2), below)
    assert (sol.value, sol.values, sol.bounds) == (reference.value, reference.values, reference.bounds)
    monkeypatch.setattr(zqforce.game, "MEMO_LIMIT", seeded + 1)
    with pytest.raises(ResourceLimitError, match=f"memo limit {seeded + 1} reached"):
        solve_zq(g, GameConfig(q=2), below)


def _with_twin(g, v, adjacent):
    """g plus a new vertex with v's neighbours, and v itself if adjacent: a
    true twin of v if adjacent, else a false twin."""
    extra = [(w, g.n) for w in g.adjacency[v]] + ([(v, g.n)] if adjacent else [])
    return Graph.from_edges(g.n + 1, list(g.edges) + extra)


def _twin_corpus():
    """Seeded graphs with twins: cliques, leaves on one vertex, small block
    graphs, and random graphs with a twin added."""
    rng = random.Random(73)
    graphs = [clique(4), clique(5), star((1, 1, 1)), star((1, 1, 1, 2)), star((1, 1, 2, 2))]
    graphs += [random_block_graph(rng.randint(4, 7), rng) for _ in range(6)]
    for _ in range(8):
        g = random_connected_graph(rng.randint(3, 6), rng.random() * 0.5, rng)
        graphs.append(_with_twin(g, rng.randrange(g.n), rng.random() < 0.5))
    return graphs


def test_twin_swaps_leave_the_naive_table_unchanged():
    # The canonical memo key rests on this: swapping two vertices with equal
    # open or equal closed neighbourhoods maps the graph onto itself, so it
    # preserves the reference's value of every filled set. _twin_classes
    # must find exactly those pairs.
    import networkx as nx

    atlas = [Graph.from_edges(len(h), list(h.edges())) for h in nx.graph_atlas_g()[1:] if len(h) <= 6]
    swaps = 0
    for g in atlas + _twin_corpus():
        pairs = _naive_twin_pairs(g)
        classes = _twin_classes(_adjacency_masks(g))
        assert sorted(p for members in classes for p in combinations(members, 2)) == pairs, g.edges
        if not pairs:
            continue
        for q in (0, 1, 2):
            for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
                table = naive_zq_table(g, q, mode)
                for u, v in pairs:
                    swap = {u: v, v: u}
                    for filled, val in table.items():
                        assert table[frozenset(swap.get(x, x) for x in filled)] == val, (g.edges, q, mode, u, v)
                    swaps += 1
    assert swaps > 1000


def test_bounded_value_is_the_value_capped_at_the_budget():
    # _capped(F, k) == min(V(F), k) for every filled set F and every budget
    # k in 0..n+1, asked in a shuffled order of one unsolved solution, so
    # that answers come from exact values, from lower bounds and from new
    # searches alike.
    rng = random.Random(79)
    graphs = _twin_corpus()[::2]
    graphs += [random_connected_graph(rng.randint(4, 7), rng.random() * 0.5, rng) for _ in range(8)]
    for g in graphs:
        for q in (0, 1, 2):
            for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
                table = naive_zq_table(g, q, mode)
                sol = GameSolution(g, GameConfig(q=q, rule3_mode=mode))
                questions = [(filled, k) for filled in table for k in range(g.n + 2)]
                rng.shuffle(questions)
                for filled, k in questions:
                    expected = min(table[filled], k)
                    assert sol._capped(vertices_to_mask(filled), k) == expected, (g.edges, q, mode, sorted(filled), k)


def test_budget_search_solves_long_cycles_from_a_few_states():
    # Every cycle has Z_q = 2 for q <= 2; a full value table of C20 holds
    # thousands of closed states, the bounded search a few dozen.
    for q in (0, 1, 2):
        for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
            sol = solve_zq(cycle(20), GameConfig(q=q, rule3_mode=mode, vertex_cap=20))
            assert sol.value == 2
            assert sol.states_explored <= 40, (q, mode, sol.states_explored)
            assert check_certificate(sol.graph, q, extract_player_trace(sol))


def test_extract_trace_p3_q1_exact_moves():
    g = path(3)
    sol = solve_zq(g, GameConfig(q=1))
    cert = extract_player_trace(sol)
    assert cert.trace == (TokenMove(0), ForceMove(0, 1), ForceMove(1, 2))


def test_adversarial_certificates_keep_their_move_order():
    # Forces after a token replay lowest (u, target) first; after a reveal,
    # closure mode replays the in-window closure first and single_force mode
    # one force before the remaining forces, lowest first.
    tree = Graph.from_edges(6, [(0, 2), (0, 4), (1, 4), (1, 5), (2, 3)])
    star_cert = "token 1\ntoken 3\nannounce 2;4\nreveal 2\nforce 1 2\nforce 1 0\nforce 0 5\nforce 3 4\nforce 5 6\n"
    for g, q, mode, expected in (
        (star((2, 2, 2)), 1, MODE_CLOSURE, star_cert),
        (star((2, 2, 2)), 1, MODE_SINGLE_FORCE, star_cert),
        (tree, 0, MODE_CLOSURE,
         "token 0\nannounce 2,3\nreveal 2,3\nforce 0 2\nforce 2 3\nforce 0 4\nforce 4 1\nforce 1 5\n"),
        (tree, 0, MODE_SINGLE_FORCE,
         "token 0\nannounce 2,3\nreveal 2,3\nforce 0 2\nforce 0 4\nforce 2 3\nforce 4 1\nforce 1 5\n"),
    ):
        sol = solve_zq(g, GameConfig(q=q, rule3_mode=mode))
        assert format_certificate(extract_player_trace(sol)) == expected, (g.edges, mode)


def test_extract_trace_c5_q0():
    g = cycle(5)
    sol = solve_zq(g, GameConfig(q=0))
    cert = extract_player_trace(sol)
    assert len(cert.tokens) == sol.value == 2
    assert check_certificate(g, 0, cert)


def test_extract_trace_windmill_needs_no_rule3():
    g = generate_family("windmill_I", FamilyParams(eta=2, k=3, l=1))
    sol = solve_zq(g, GameConfig(q=1))
    cert = extract_player_trace(sol)
    assert len(cert.tokens) == sol.value == 5
    assert not any(isinstance(mv, AnnounceMove) for mv in cert.trace)
    assert check_certificate(g, 1, cert)


def test_traces_check_out_on_random_graphs_both_modes():
    rng = random.Random(37)
    for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
        for _ in range(25):
            n = rng.randint(2, 7)
            g = random_connected_graph(n, rng.random() * 0.5, rng)
            sol = solve_zq(g, GameConfig(q=rng.randint(0, 2), rule3_mode=mode))
            cert = extract_player_trace(sol)
            assert len(cert.tokens) == sol.value
            assert check_certificate(g, sol.q, cert)


def test_replay_is_the_same_however_warm_the_memos_are():
    # Replay searches on where the memos fall short and keeps the raw memo
    # of the solve, so a second replay of one solution starts warmer than
    # the first, and both warmer than replay after a fresh solve. The
    # certificate must not depend on it.
    rng = random.Random(89)
    makers = (
        random_block_graph,
        random_cactus,
        lambda n, rng: random_connected_graph(n, 0.15, rng),
        lambda n, rng: star([rng.randint(1, 2) for _ in range(rng.randint(3, 5))]),
    )
    for i in range(16):
        g = makers[i % 4](rng.randint(6, 11), rng)
        for q in (0, 1, 2):
            for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
                cfg = GameConfig(q=q, rule3_mode=mode)
                sol = solve_zq(g, cfg)
                texts = [format_certificate(extract_player_trace(sol)) for _ in range(2)]
                texts.append(format_certificate(extract_player_trace(solve_zq(g, cfg))))
                assert texts[0] == texts[1] == texts[2], (g.edges, q, mode)


# sha256 prefixes of each corpus graph's values and certificate texts, in
# corpus order (see the test below).
TRANSCRIPT_DIGESTS = """
    8bda2edf 5c71b1c4 95ff38fa 996cecad 57bf42df e854a117 70dfa447 77ad5bf1 96916843 0e58fc02
    47c696e3 8a999c8a b5b20eae bfbd24d5 34a83bb7 b43e7153 d1db5301 a9fa61b0 29407a6d b280562a
    6ee0c23f 38941128 a6a9b3e5 6c9ab79d dfd2981e f34da927 256262b9 dcbc52a7 6c480dda 46ac8dce
    d1db5e34 fc20b3dd 1a3a370f f10eedca 4adfccb1 97e6386e 5bb244f1 fa5cf6eb 60499894 0d13b4f6
    5259012e f2797d7a 5839699a 19d29172 114152e9 bab43b1a 2809aeb8 9f42203b 653468e1 0938ee31
    db41a55b 7cd0a342 1bc87743 bacc62c5 4c32a37e c61ff1ed 96916843 685b7c62 297107a3 bca198db
    404b527e 54028379 92aecba7 ce117e88 92456162 8c2bed83 7a44a85b 4802974f 8310dc5e 4720bb4f
    112fcac0 90afa1f7 8033d826 939b9061 06bceb34 6215b088 3d6767f0 934a0689 4e09161e b5b702ac
    9bb8cf05 68662f46 80cd5375 3c7c330e abbeac29 834803b0 240b3f95 cc22d1ad 7240412c a84d4909
    8d3ee86b 56e1f581 3b5161c8 fec9d6fe 997d345c 54ffdce3 3f7dd895 0e0f7d5f d1c6f3a8 dfd31957
    f6b23ee1 d16ff0f6 3c8ea91d 9e0fd7ce f4a1fbef 49add5e9 6c833c71 96aed2a8 9bfe7915 eb8b901b
    c78309f4 db2ed6e4 04bd7ba2 92ad8614 b8375fe6 a451eab4 74904db1 41d27344 12a84cdb 003aa94c
    ca29a1d9 e5734668 db41a55b 1974f793 c6dff1e8 20cb2fa1 0746637e 9d21812a f4a1fbef b68926e5
    e3691d82 ce3ec5c1 0ea09006 ab3f5a4f 163dc2db 1386c7b1 8bda2edf 8c479be4 5d167b9f f531af38
    22a26c24 5cc51b8c fdab44b7 4480b020 a02dc12c 19ad6496 3982e89e 02dcbd69 43ce3af1 58879d37
    3a2bd8f8 5b03badd 995bbaf1 e5d0f714 1a1b0bcc bf472333 46d10b88 ec0afa4a 0f249480 1931b48c
""".split()


def test_values_and_certificates_keep_their_recorded_digests():
    # Byte-identity of the exact solver's output: 160 graphs with n = 5..12,
    # each solved at q in (0, 1, 2, 3, n) in both rule-3 modes, hashed per
    # graph so that a failure names the graph. A search or replay change
    # meant to keep its output leaves every digest as it is; a change that
    # alters values or transcripts on purpose updates the digests and says
    # so in CHANGES.md.
    rng = random.Random(2026)
    makers = (lambda n, rng: random_connected_graph(n, rng.random() * 0.5, rng), random_tree, random_cactus)
    changed = []
    for i, recorded in enumerate(TRANSCRIPT_DIGESTS):
        g = makers[i % 3](5 + i % 8, rng)
        h = hashlib.sha256()
        for q in (0, 1, 2, 3, g.n):
            for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
                sol = solve_zq(g, GameConfig(q=q, rule3_mode=mode))
                h.update(f"{q} {mode} {sol.value}\n{format_certificate(extract_player_trace(sol))}".encode())
        if h.hexdigest()[:8] != recorded:
            changed.append((i, g.edges))
    assert len(TRANSCRIPT_DIGESTS) == 160 and not changed, changed


def _random_oracle(rng):
    def policy(filled, announcement):
        count = rng.randint(1, len(announcement))
        return tuple(rng.sample(list(announcement), count))

    return policy


def test_player_never_exceeds_value_against_random_oracles():
    rng = random.Random(41)
    cases = [(cycle(5), 0), (cycle(6), 0), (BOWTIE, 0), (star((2, 1, 1)), 1), (cycle(7), 1)]
    for g, q in cases:
        sol = solve_zq(g, GameConfig(q=q))
        for _ in range(10):
            cert = extract_player_trace(sol, oracle=_random_oracle(rng))
            assert len(cert.tokens) <= sol.value
            assert check_certificate(g, q, cert)


def test_trace_follows_each_reveal_with_a_reveal_outcome():
    # Closure mode records the whole in-window closure right after a reveal;
    # single_force mode records one force to a listed successor.
    rng = random.Random(47)
    reveals = 0
    for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
        for _ in range(30):
            g = random_connected_graph(rng.randint(3, 8), rng.random() * 0.4, rng)
            sol = solve_zq(g, GameConfig(q=rng.randint(0, 1), rule3_mode=mode))
            trace = extract_player_trace(sol, oracle=_random_oracle(rng)).trace
            filled = frozenset()
            for i, mv in enumerate(trace):
                if isinstance(mv, RevealMove):
                    succ = naive_reveal_successors(g, filled, mv.components, mode)
                    count = len(succ[0] - filled) if mode == MODE_CLOSURE else 1
                    forces = trace[i + 1:i + 1 + count]
                    assert all(isinstance(f, ForceMove) for f in forces)
                    assert filled | {f.target for f in forces} in succ
                    reveals += 1
                elif isinstance(mv, (TokenMove, ForceMove)):
                    filled |= {mv.vertex if isinstance(mv, TokenMove) else mv.target}
    assert reveals > 20


def test_illegal_oracle_reveal_is_reported():
    # Optimal play on a star at q=0 puts a token on the center and then has
    # to announce, so a misbehaving oracle is always consulted.
    g = star((1, 1, 1))
    sol = solve_zq(g, GameConfig(q=0))

    def empty_reveal(filled, announcement):
        return ()

    def foreign_reveal(filled, announcement):
        return (frozenset({99}),)

    for oracle in (empty_reveal, foreign_reveal):
        with pytest.raises(OracleProtocolError):
            extract_player_trace(sol, oracle=oracle)


def test_vertex_cap_and_memo_limit_errors(monkeypatch):
    with pytest.raises(ResourceLimitError):
        solve_zq(path(21), GameConfig(q=0))
    monkeypatch.setattr(zqforce.game, "MEMO_LIMIT", 4)
    with pytest.raises(ResourceLimitError, match="memo limit 4 reached") as err:
        solve_zq(cycle(6), GameConfig(q=0))
    assert "raise memo_limit" not in str(err.value)
    assert "MEMO_LIMIT" in str(err.value)


def test_memo_limit_bounds_both_memos_together(monkeypatch):
    # The limit counts the keys of values and bounds together: a solve
    # whose memos hold exactly MEMO_LIMIT keys completes with the same
    # memos, and one key fewer raises.
    g = random_cactus(12, random.Random(61))
    for q in (0, 1, 2):
        reference = solve_zq(g, GameConfig(q=q))
        limit = reference.states_explored
        assert limit == len(reference.values) + len(reference.bounds) > 1
        with monkeypatch.context() as m:
            m.setattr(zqforce.game, "MEMO_LIMIT", limit)
            sol = solve_zq(g, GameConfig(q=q))
            assert (sol.value, sol.values, sol.bounds) == (reference.value, reference.values, reference.bounds)
            m.setattr(zqforce.game, "MEMO_LIMIT", limit - 1)
            with pytest.raises(ResourceLimitError, match=f"memo limit {limit - 1} reached"):
                solve_zq(g, GameConfig(q=q))


def test_replay_and_its_default_oracle_build_no_masks(monkeypatch):
    # The adjacency masks, twin classes and raw memo are built once, with the
    # solution: trace replay and its default oracle read the solution's own.
    sol = solve_zq(star((2, 2, 2)), GameConfig(q=1))
    calls = []

    def masks_spy(g):
        calls.append(g)
        return _adjacency_masks(g)

    monkeypatch.setattr(zqforce.game, "_adjacency_masks", masks_spy)
    cert = extract_player_trace(sol)
    assert any(isinstance(move, AnnounceMove) for move in cert.trace) and sol.oracle_response
    assert calls == []


def test_oracle_answers_a_repeated_announcement_from_its_store(monkeypatch):
    # A stored reveal passed the closure check when it was derived, so the
    # same announcement asked again is answered without closing the state.
    oracle = adversarial_oracle(solve_zq(cycle(5), GameConfig(q=0)))
    asked = ({0, 2}, (frozenset({3, 4}),))
    first = oracle(*asked)
    calls = []

    def closure_spy(masks, filled, window, check=None):
        calls.append(filled)
        return _window_closure(masks, filled, window, check)

    monkeypatch.setattr(zqforce.game, "_window_closure", closure_spy)
    assert oracle(*asked) == first
    assert calls == []


def test_raw_memo_gives_a_warm_evaluator_the_fresh_values():
    # _capped() finds the canonical key of an argument it has seen in the raw
    # memo, without closing it again. After the whole solve the solution
    # must still agree, on every filled set, with a new unsolved solution,
    # and the memos must hold closed canonical states only.
    rng = random.Random(59)
    graphs = [cycle(6), star((1, 1, 2)), random_connected_graph(7, 0.1, rng), random_connected_graph(7, 0.1, rng)]
    for g in graphs:
        full = (1 << g.n) - 1
        masks = _adjacency_masks(g)
        for q in (0, 1, 2):
            case = (g.edges, q)
            cfg = GameConfig(q=q)
            warm = solve_zq(g, cfg)
            keys = warm.values.keys() | warm.bounds.keys()
            assert any(state not in keys for state in warm._raw), case
            for filled in range(1 << g.n):
                fresh = GameSolution(g, cfg)
                assert warm._capped(filled, g.n + 1) == fresh._capped(filled, g.n + 1), case + (filled,)
            assert all(_window_closure(masks, state, full) == state for state in keys), case
            assert all(_is_canonical(g, state) for state in keys), case


def test_raw_memo_is_cleared_at_the_memo_limit(monkeypatch):
    # The search looks up more distinct arguments in the raw memo than it
    # stores keys. With room for exactly the memos, the raw memo must be
    # cleared to stay within the limit, which changes neither the value nor
    # the memos. The solution is searched as solve_zq searches it.
    g = random_cactus(14, random.Random(71))
    reference = solve_zq(g, GameConfig(q=1))
    limit = reference.states_explored
    monkeypatch.setattr(zqforce.game, "MEMO_LIMIT", limit)
    sol = GameSolution(g, GameConfig(q=1))
    sizes = []

    def closure_spy(masks, filled, window, check=None):
        sizes.append(len(sol._raw))
        return _window_closure(masks, filled, window, check)

    monkeypatch.setattr(zqforce.game, "_window_closure", closure_spy)
    assert sol._capped(0, g.n + 1) == reference.value
    assert (sol.values, sol.bounds) == (reference.values, reference.bounds)
    sizes.append(len(sol._raw))
    assert max(sizes) <= limit
    assert any(b < a for a, b in zip(sizes, sizes[1:])), "the raw memo was never cleared"


def test_a_dropped_solve_leaves_no_cyclic_garbage():
    # A solution's methods call each other through it, with no reference
    # back to them, so a dropped solve, a dropped trace and a dropped oracle
    # are freed by reference counting and the cyclic GC finds nothing to
    # collect.
    sol = solve_zq(cycle(12), GameConfig(q=1))
    cases = (
        lambda: solve_zq(cycle(16), GameConfig(q=2)),
        lambda: extract_player_trace(sol),
        lambda: adversarial_oracle(sol),
        lambda: adversarial_oracle(sol)({0, 2, 4}, (frozenset({1}), frozenset(range(5, 12)))),
        lambda: extract_player_trace(solve_zq(star((1, 1, 1, 2)), GameConfig(q=1, rule3_mode=MODE_SINGLE_FORCE))),
    )
    gc.collect()
    gc.disable()
    try:
        found = []
        for make in cases:
            make()
            found.append(gc.collect())
    finally:
        gc.enable()
    assert found == [0] * len(cases)


def test_solver_plays_two_stars_as_one_game():
    # Two disjoint K_{1,3}: each alone has Z_1 = 2, but at q = 1 one
    # announcement can name a leaf of each star, and the union needs 3.
    g = disjoint_union(star([1, 1, 1]), star([1, 1, 1]))
    for q, expected in ((0, 2), (1, 3), (2, 4), (8, 4)):
        sol = solve_zq(g, GameConfig(q=q))
        assert sol.value == expected == naive_zq_table(g, q)[frozenset()]
        cert = extract_player_trace(sol)
        assert len(cert.tokens) == expected and check_certificate(g, q, cert)


def test_config_validation():
    with pytest.raises(GraphValidationError):
        GameConfig(q=-1)
    with pytest.raises(GraphValidationError):
        GameConfig(q=0, rule3_mode="bogus")
    with pytest.raises(GraphValidationError):
        GameConfig(q=0, vertex_cap=65)
    # q and vertex_cap are ints, and a bool is not one.
    for kwargs in ({"q": 1.5}, {"q": True}, {"q": "1"}, {"q": 0, "vertex_cap": 20.5}, {"q": 0, "vertex_cap": True}):
        with pytest.raises(GraphValidationError, match="must be an int"):
            GameConfig(**kwargs)



def test_solution_report_shape(tmp_path, capsys):
    # The exact solver's report, as `compute --method exact --json` prints it.
    from zqforce.cli import main

    f = tmp_path / "c5.el"
    f.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    assert main(["compute", "--file", str(f), "--q", "0", "--method", "exact", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["solver"]
    sol = solve_zq(cycle(5), GameConfig(q=0))
    assert report["value"] == 2
    assert report["q"] == 0
    assert report["rule3_mode"] == MODE_CLOSURE
    assert report["states_explored"] == sol.states_explored == len(sol.values) + len(sol.bounds) > 0
    assert report["trace"] == format_certificate(extract_player_trace(sol)).splitlines()
