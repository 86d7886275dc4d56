"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import json
import math
import random
import time
from functools import lru_cache
from pathlib import Path

import networkx as nx

from zqforce import (
    MODE_CLOSURE,
    MODE_SINGLE_FORCE,
    AnnounceMove,
    Certificate,
    FamilyParams,
    ForceMove,
    GameConfig,
    RevealMove,
    ScopeError,
    TokenMove,
    block_graph_Z,
    block_graph_Zq,
    brute_force_Z,
    cactus_Z0,
    certificate_from_tokens,
    check_certificate,
    extract_player_trace,
    find_blocks,
    generate_family,
    solve_zq,
    star_Zq,
    windmill_I_Zq,
    windmill_II_Zq,
    Graph,
)

from helpers import (
    BOWTIE,
    cycle,
    random_block_graph,
    random_cactus,
    random_connected_graph,
    star,
    triangle_chain,
)

REPORT_DIR = Path(__file__).resolve().parent.parent / "reports"


def _report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'} [criterion {criterion}] {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@lru_cache(maxsize=1)
def _block_corpus():
    """200 random connected block graphs (blocks >= 3, n <= 12) with the
    block solver's value and certificate."""
    rng = random.Random(20240601)
    corpus = []
    while len(corpus) < 200:
        n = rng.randint(3, 12)
        g = random_block_graph(n, rng)
        value, cert = block_graph_Z(g)
        corpus.append((g, value, cert))
    return corpus


def test_criterion_1_cycle_law():
    started = time.perf_counter()
    values = {n: solve_zq(cycle(n), GameConfig(q=0)).value for n in range(3, 9)}
    elapsed = time.perf_counter() - started
    ok = all(v == 2 for v in values.values()) and elapsed < 5.0
    _report(1, ok, f"Z_0(C_n)=2 for n=3..8 (got {values}) in {elapsed:.2f}s (< 5s)")


def test_criterion_2_monotone_chain():
    started = time.perf_counter()
    rng = random.Random(20240602)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 7)
        g = random_connected_graph(n, rng.random() * 0.6, rng)
        values = [solve_zq(g, GameConfig(q=q)).value for q in range(n + 1)]
        assert all(a <= b for a, b in zip(values, values[1:])), (g.edges, values)
        assert values[-1] == brute_force_Z(g)[0], (g.edges, values)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked >= 200 and elapsed < 600
    _report(2, ok, f"Z_0<=...<=Z_n=Z on {checked} random graphs (n<=7) in {elapsed:.1f}s (< 600s)")


def test_criterion_3_block_graph_optimality():
    started = time.perf_counter()
    for g, value, _ in _block_corpus():
        b = len(find_blocks(g))
        assert value == g.n - b, (g.edges, value, b)
        assert value == brute_force_Z(g)[0], (g.edges, value)
    elapsed = time.perf_counter() - started
    ok = len(_block_corpus()) >= 200 and elapsed < 600
    _report(
        3,
        ok,
        f"block_graph_Z = brute_force_Z = n - b on {len(_block_corpus())} block graphs "
        f"in {elapsed:.1f}s (< 600s)",
    )


def test_criterion_4_block_Zq_matches_game():
    started = time.perf_counter()
    rng = random.Random(20240604)
    count = 0
    for _ in range(50):
        n = rng.randint(3, 12)
        g = random_block_graph(n, rng)
        for q in (0, 1, 2, n):
            assert block_graph_Zq(g, q) == solve_zq(g, GameConfig(q=q)).value, (g.edges, q)
        count += 1
    elapsed = time.perf_counter() - started
    ok = count >= 50 and elapsed < 1200
    _report(4, ok, f"block_graph_Zq = solve_zq for q in {{0,1,2,n}} on {count} graphs "
                   f"in {elapsed:.1f}s (< 1200s)")


def test_criterion_5_cactus_dp():
    started = time.perf_counter()
    corpus = [Graph.from_edges(1, []), BOWTIE, triangle_chain(1), triangle_chain(2), triangle_chain(3)]
    for order in range(2, 10):  # every tree shape up to 9 vertices
        for t in nx.nonisomorphic_trees(order):
            corpus.append(Graph.from_edges(order, list(t.edges())))
    rng = random.Random(20240605)
    while len(corpus) < 210:
        corpus.append(random_cactus(rng.randint(2, 12), rng))
    for g in corpus:
        assert cactus_Z0(g) == solve_zq(g, GameConfig(q=0)).value, g.edges
    assert cactus_Z0(BOWTIE) == 3
    elapsed = time.perf_counter() - started
    ok = len(corpus) >= 200 and elapsed < 900
    _report(5, ok, f"cactus_Z0 = Z_0 game value on {len(corpus)} cacti (all tree shapes n<=9, "
                   f"bowtie=3) in {elapsed:.1f}s (< 900s)")


def test_criterion_6_closed_forms_grid():
    started = time.perf_counter()
    checks = 0
    refusals = 0
    for count in range(1, 5):
        for arms in itertools.combinations_with_replacement((1, 2, 3), count):
            g = star(arms)
            for q in range(g.n + 1):
                assert star_Zq(arms, q) == solve_zq(g, GameConfig(q=q)).value, (arms, q)
                checks += 1
    for eta, k, l in itertools.product((1, 2, 3), repeat=3):
        for kind, formula in (("windmill_I", windmill_I_Zq), ("windmill_II", windmill_II_Zq)):
            g = generate_family(kind, FamilyParams(eta=eta, k=k, l=l))
            for q in range(g.n + 1):
                try:
                    expected = formula(eta, k, l, q)
                except ScopeError:
                    assert kind == "windmill_II" and k == 1 and eta > 1 and l > 1
                    refusals += 1
                    continue
                assert expected == solve_zq(g, GameConfig(q=q)).value, (kind, eta, k, l, q)
                checks += 1
    elapsed = time.perf_counter() - started
    ok = checks > 500 and refusals > 0 and elapsed < 1800
    _report(6, ok, f"{checks} closed-form values match solve_zq over the full grid "
                   f"({refusals} bipartite refusals) in {elapsed:.1f}s (< 1800s)")


def test_criterion_7_block_token_audits():
    audited = 0
    for g, _, cert in _block_corpus():
        for block in find_blocks(g):
            eta = len(block.vertices)
            spent = cert.tokens & block.vertices
            assert len(spent) >= eta - 2, (g.edges, sorted(block.vertices))
            assert len(spent) <= eta - 1, (g.edges, sorted(block.vertices))
            if len(spent) == eta - 2:
                assert block.anchor not in spent, (g.edges, sorted(block.vertices))
            audited += 1
    _report(7, True, f"{audited} blocks audited: eta-2 <= tokens <= eta-1, "
                     "anchor never inside an eta-2 block")


def _corrupted_variants(cert: Certificate):
    trace = list(cert.trace)
    # claimed token set disagrees with the trace
    yield Certificate(tokens=cert.tokens | {max(cert.tokens) + 1}, trace=cert.trace)
    # truncated trace no longer fills the graph
    yield Certificate(tokens=cert.tokens, trace=tuple(trace[:-1]))
    # retarget the last force at an absurd vertex
    for i in range(len(trace) - 1, -1, -1):
        if isinstance(trace[i], ForceMove):
            bad = list(trace)
            bad[i] = ForceMove(trace[i].source, trace[i].source)
            yield Certificate(tokens=cert.tokens, trace=tuple(bad))
            break
    # duplicate the first token
    for mv in trace:
        if isinstance(mv, TokenMove):
            yield Certificate(tokens=cert.tokens, trace=tuple(trace + [mv]))
            break
    # make a reveal that was never announced
    for i, mv in enumerate(trace):
        if isinstance(mv, RevealMove):
            bad = list(trace)
            bad[i] = RevealMove((frozenset({9999}),))
            yield Certificate(tokens=cert.tokens, trace=tuple(bad))
            break


def test_criterion_8_certificates():
    rng = random.Random(20240608)
    cases = []
    for g, value, cert in _block_corpus()[:60]:
        cases.append((g, None, value, cert))
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_connected_graph(n, rng.random() * 0.5, rng)
        q = rng.randint(0, 2)
        sol = solve_zq(g, GameConfig(q=q))
        cases.append((g, q, sol.value, extract_player_trace(g, sol)))
    announced = 0
    for arms in ((1, 1, 1), (2, 2, 1)):
        g = star(arms)
        sol = solve_zq(g, GameConfig(q=0))
        cert = extract_player_trace(g, sol)
        announced += sum(isinstance(mv, AnnounceMove) for mv in cert.trace)
        cases.append((g, 0, sol.value, cert))
    assert announced > 0  # the fuzz below must cover announcement steps
    for _ in range(10):
        n = rng.randint(2, 9)
        g = random_connected_graph(n, rng.random() * 0.5, rng)
        value, witness = brute_force_Z(g)
        cases.append((g, None, value, certificate_from_tokens(g, sorted(witness))))

    rejected = 0
    for g, q, value, cert in cases:
        assert check_certificate(g, q, cert), (g.edges, q)
        assert len(cert.tokens) == value, (g.edges, q)
        for bad in _corrupted_variants(cert):
            assert not check_certificate(g, q, bad), (g.edges, q, bad)
            rejected += 1
    _report(8, True, f"{len(cases)} certificates verified at their claimed values; "
                     f"{rejected} corrupted variants all rejected")


def _fit_slope(sizes, times):
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


def _best_time(fn, repeats=3):
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_criterion_9_scaling():
    sizes = (100, 200, 400, 800)
    block_times = []
    for n in sizes:
        g = generate_family("random_block_graph", FamilyParams(n=n, blocks=max(1, n // 8)), seed=n)
        block_times.append(_best_time(lambda: block_graph_Z(g)))
    cactus_times = []
    for n in sizes:
        g = generate_family("random_cactus", FamilyParams(n=n), seed=n)
        cactus_times.append(_best_time(lambda: cactus_Z0(g)))

    g1000 = generate_family("random_block_graph", FamilyParams(n=1000, blocks=125), seed=1000)
    block_1000 = _best_time(lambda: block_graph_Z(g1000))
    c1000 = generate_family("random_cactus", FamilyParams(n=1000), seed=1000)
    cactus_1000 = _best_time(lambda: cactus_Z0(c1000))

    block_slope = _fit_slope(sizes, block_times)
    cactus_slope = _fit_slope(sizes, cactus_times)
    ok = (
        block_1000 < 1.0
        and cactus_1000 < 120.0
        and abs(block_slope - 1.0) <= 0.5
        and abs(cactus_slope - 1.0) <= 0.5
    )
    _report(9, ok, f"block n=1000 in {block_1000:.3f}s (< 1s), cactus n=1000 in "
                   f"{cactus_1000:.3f}s (< 120s); log-log slopes block={block_slope:.2f} "
                   f"(1±0.5), cactus={cactus_slope:.2f} (1±0.5)")


def test_criterion_10_rule3_mode_report():
    started = time.perf_counter()
    atlas = [g for g in nx.graph_atlas_g()[1:] if 1 <= len(g) <= 6 and nx.is_connected(g)]
    discrepancies = []
    solved = 0
    for nxg in atlas:
        g = Graph.from_edges(len(nxg), list(nxg.edges()))
        for q in (0, 1, 2):
            a = solve_zq(g, GameConfig(q=q, rule3_mode=MODE_CLOSURE)).value
            b = solve_zq(g, GameConfig(q=q, rule3_mode=MODE_SINGLE_FORCE)).value
            solved += 2
            if a != b:
                discrepancies.append(
                    {"n": g.n, "edges": list(map(list, g.edges)), "q": q,
                     "closure": a, "single_force": b}
                )
    REPORT_DIR.mkdir(exist_ok=True)
    artifact = REPORT_DIR / "rule3-mode-report.json"
    artifact.write_text(
        json.dumps(
            {
                "graphs": len(atlas),
                "q_values": [0, 1, 2],
                "solves": solved,
                "discrepancies": discrepancies,
            },
            indent=2,
        )
    )
    elapsed = time.perf_counter() - started
    ok = artifact.exists() and elapsed < 600
    _report(10, ok, f"both rule-3 modes solved on {len(atlas)} connected graphs (n<=6), "
                    f"{len(discrepancies)} discrepancies logged to {artifact.name} "
                    f"in {elapsed:.1f}s (< 600s)")
