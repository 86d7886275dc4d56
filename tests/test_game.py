import gc
import random
from itertools import combinations

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
    solution_report,
    solve_zq,
    vertices_to_mask,
)
from zqforce.forcing import _adjacency_masks, _window_closure
from zqforce.game import _TOKEN, _move_evaluator

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
    random_cactus,
    random_connected_graph,
    random_tree,
    star,
)


def test_cycle_values():
    for n in range(3, 9):
        assert solve_zq(cycle(n), GameConfig(q=0)).value == 2


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


def test_game_with_q_equal_n_matches_brute_force_up_to_8():
    rng = random.Random(33)
    samples = [cycle(8), clique(8), star((3, 2, 2))]
    samples += [random_connected_graph(8, rng.random() * 0.4, rng) for _ in range(8)]
    for g in samples:
        assert solve_zq(g, GameConfig(q=g.n)).value == brute_force_Z(g)[0]


def test_memo_consistency():
    for g in (cycle(6), BOWTIE, star((2, 2, 1))):
        sol = solve_zq(g, GameConfig(q=1))
        value = _table_reader(sol)
        full = (1 << g.n) - 1
        for state, val in sol.values.items():
            rest = full & ~state
            while rest:
                low = rest & -rest
                rest ^= low
                assert val <= 1 + value(state | low)


def _table_reader(sol):
    """The evaluator's value() over the finished table: it reads a state
    through its forcing closure and raises on a miss instead of searching."""
    return _move_evaluator(sol, len(sol.values))[0]


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
    # The table holds forcing-closed states only, so every case needs a closed
    # state with a live (q+1)-announcement: star((1, 1, 2)) at q=1 and the
    # bowtie at q=0 have none.
    for g, q in ((cycle(5), 0), (cycle(6), 1), (star((1, 1, 2)), 0), (star((2, 2, 2)), 1)):
        sol = solve_zq(g, GameConfig(q=q))
        assert sol.oracle_response == {}
        oracle = adversarial_oracle(sol)
        checked = 0
        for state in sol.values:
            filled = mask_to_vertices(state)
            for announcement in combinations(naive_components(g, filled), q + 1):
                per_reveal = _reveal_values(g, sol, filled, announcement)
                if per_reveal is None:
                    with pytest.raises(OracleProtocolError):
                        oracle(filled, announcement)
                    continue
                stored = frozenset(oracle(filled, announcement))
                assert per_reveal[stored] == max(per_reveal.values())
                checked += 1
        assert checked, (g.edges, q)
        assert len(sol.oracle_response) == checked


def test_adversarial_oracle_refuses_unevaluated_announcements():
    oracle = adversarial_oracle(solve_zq(cycle(5), GameConfig(q=0)))
    assert oracle({0, 2}, (frozenset({3, 4}),)) == (frozenset({3, 4}),)
    assert oracle({0, 2}, (frozenset({1}),)) == (frozenset({1}),)
    with pytest.raises(OracleProtocolError):  # the answered announcement, listed twice
        oracle({0, 2}, (frozenset({1}), frozenset({1})))
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
        sol = solve_zq(g, GameConfig(q=q))
        oracle = adversarial_oracle(sol)
        if naive_window_closure(g, filled, range(g.n)) == filled:
            # A table state, so the rule itself refuses the announcement.
            assert vertices_to_mask(filled) in sol.values
        with pytest.raises(OracleProtocolError):
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
            for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
                fast = solve_zq(g, GameConfig(q=q, rule3_mode=mode)).value
                assert fast == naive_zq_value(g, q, mode), (g.edges, q, mode)


def test_best_move_achieves_memoized_value_everywhere():
    for g, q in ((cycle(6), 0), (BOWTIE, 0), (star((1, 1, 2)), 1)):
        sol = solve_zq(g, GameConfig(q=q))
        value, best, _, _ = _move_evaluator(sol, len(sol.values))
        oracle = adversarial_oracle(sol)
        full = (1 << g.n) - 1
        for state, val in sol.values.items():
            if state == full:
                continue
            move_val, kind, key = best(state)
            assert move_val == val
            if kind == _TOKEN:
                assert val == 1 + value(state | (1 << key[0]))
            else:
                filled = mask_to_vertices(state)
                announcement = tuple(mask_to_vertices(c) for c in key)
                per_reveal = _reveal_values(g, sol, filled, announcement)
                assert val == max(per_reveal.values())
                assert per_reveal[frozenset(oracle(filled, announcement))] == val


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
                value = _move_evaluator(sol, 1 << n)[0]
                table = naive_zq_table(g, q, mode)
                for filled, val in table.items():
                    case = (g.edges, q, mode, sorted(filled))
                    assert table[naive_window_closure(g, filled, range(n))] == val, case
                    assert value(vertices_to_mask(filled)) == val, case
                    for v in range(n):
                        assert table[filled | {v}] <= val, case


def test_both_rule3_modes_produce_the_same_table():
    # Rule 3's closure mode and single_force mode give every filled set the
    # same value, not just the root. A proof of this would let one search
    # serve both modes; per reveal the claim is false, so it has to go
    # through the oracle's maximum. The two searches skip different token
    # moves and so store different states; each value is read through that
    # mode's searching evaluator.
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
            closure_value = _move_evaluator(closure, 1 << g.n)[0]
            single_value = _move_evaluator(single, 1 << g.n)[0]
            for filled in range(1 << g.n):
                assert closure_value(filled) == single_value(filled), (g.edges, q, filled)


def test_search_skips_tokens_where_an_announcement_costs_at_most_one():
    # A token costs at least 1 and loses ties to an announcement, so the
    # search scores no token where an announcement is worth 0 or 1. Scoring
    # every token successor reaches all 2,208 closed states of C16 at each q.
    # Upper bounds, so that a search that skips more still passes.
    for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
        for q, bound in ((0, 122), (1, 474), (2, 1134)):
            sol = solve_zq(cycle(16), GameConfig(q=q, rule3_mode=mode))
            assert sol.value == 2
            assert sol.states_explored <= bound, (mode, q, sol.states_explored)


def test_naive_table_is_closure_invariant_and_monotone():
    # The reference memoizes every filled set under itself, not under its
    # closure, so it checks without assuming them the two facts the solver's
    # closure-keyed memo rests on. Every key the solver stores must then be forcing-closed
    # and carry the reference's value.
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
                for state, val in sol.values.items():
                    filled = mask_to_vertices(state)
                    case = (g.edges, q, mode, sorted(filled))
                    assert naive_window_closure(g, filled, range(g.n)) == filled, case
                    assert table[filled] == val, case


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
        solve_zq(path(17), GameConfig(q=0))
    monkeypatch.setattr(zqforce.game, "MEMO_LIMIT", 4)
    with pytest.raises(ResourceLimitError, match="memo limit 4 reached") as err:
        solve_zq(cycle(6), GameConfig(q=0))
    assert "raise memo_limit" not in str(err.value)
    assert "MEMO_LIMIT" in str(err.value)


def _keep_evaluators(m):
    """Make solve_zq keep each value() it builds, with that value()'s raw
    argument memo read from the closure's cells, and never release them;
    returns the list of (value, raw memo) pairs."""
    kept = []

    def keep(sol, memo_limit):
        value, best, worst_reveal, _ = _move_evaluator(sol, memo_limit)
        cells = dict(zip(value.__code__.co_freevars, value.__closure__))
        kept.append((value, cells["raw"].cell_contents))
        return value, best, worst_reveal, lambda: None

    m.setattr(zqforce.game, "_move_evaluator", keep)
    return kept


def test_raw_memo_gives_a_warm_evaluator_the_fresh_values(monkeypatch):
    # value() answers an argument it has seen from the raw memo without
    # closing it. After the whole solve the search's own evaluator must
    # still agree, on every filled set, with a new evaluator over an empty
    # table, and the table must hold closed states only.
    rng = random.Random(59)
    graphs = [cycle(6), random_connected_graph(7, 0.1, rng), random_connected_graph(7, 0.1, rng)]
    for g in graphs:
        full = (1 << g.n) - 1
        masks = _adjacency_masks(g)
        for q in (0, 1, 2):
            for mode in (MODE_CLOSURE, MODE_SINGLE_FORCE):
                case = (g.edges, q, mode)
                with monkeypatch.context() as m:
                    kept = _keep_evaluators(m)
                    sol = solve_zq(g, GameConfig(q=q, rule3_mode=mode))
                ((warm, raw),) = kept
                assert any(state not in sol.values for state in raw), case
                for filled in range(1 << g.n):
                    fresh_sol = GameSolution(value=0, values={full: 0}, q=q, rule3_mode=mode, graph=g)
                    fresh = _move_evaluator(fresh_sol, 1 << g.n)[0]
                    assert warm(filled) == fresh(filled), case + (filled,)
                assert all(_window_closure(masks, state, full) == state for state in sol.values), case


def test_raw_memo_is_cleared_at_the_memo_limit(monkeypatch):
    # C16 at q = 1 stores 474 closed states but calls value() on about
    # 1,900 distinct arguments. With room for exactly the value table, the
    # raw memo must be cleared to stay within the limit, which changes
    # neither the value nor the states searched.
    reference = solve_zq(cycle(16), GameConfig(q=1))
    limit = reference.states_explored
    monkeypatch.setattr(zqforce.game, "MEMO_LIMIT", limit)
    kept = _keep_evaluators(monkeypatch)
    sizes = []

    def closure_spy(masks, filled, window):
        sizes.append(len(kept[0][1]))
        return _window_closure(masks, filled, window)

    monkeypatch.setattr(zqforce.game, "_window_closure", closure_spy)
    sol = solve_zq(cycle(16), GameConfig(q=1))
    assert sol.value == reference.value == 2
    assert sol.values == reference.values
    sizes.append(len(kept[0][1]))
    assert max(sizes) <= limit
    assert any(b < a for a, b in zip(sizes, sizes[1:])), "the raw memo was never cleared"


def test_a_dropped_solve_leaves_no_cyclic_garbage():
    # The evaluator's closures call each other. solve_zq releases its
    # evaluator before it returns, so a dropped result is freed by
    # reference counting and the cyclic GC finds nothing to collect.
    gc.collect()
    gc.disable()
    try:
        sol = solve_zq(cycle(16), GameConfig(q=2))
        assert sol.value == 2
        del sol
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


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


def test_solution_report_shape():
    g = cycle(5)
    sol = solve_zq(g, GameConfig(q=0))
    cert = extract_player_trace(sol)
    report = solution_report(sol, cert)
    assert report["value"] == 2
    assert report["q"] == 0
    assert report["rule3_mode"] == MODE_CLOSURE
    assert report["states_explored"] == sol.states_explored == len(sol.values) > 0
    assert report["trace"] == format_certificate(cert).splitlines()
