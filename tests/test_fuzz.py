"""Seeded mutation fuzzing of the two text parsers and the certificate checker.

Every malformed input must surface as one of the documented error types (the
CLI maps them to exit code 2 or 3) or as a failed CheckResult, never as any
other exception. The edge-list parser's bulk path must agree with its line
loop on every text, and the flag-based certificate checker must give the
set-based reference's CheckResult on every certificate.
"""

import random

from zqforce import (
    AnnounceMove,
    Certificate,
    CheckResult,
    EdgeListParseError,
    ForceMove,
    GameConfig,
    Graph,
    GraphValidationError,
    ResourceLimitError,
    RevealMove,
    TokenMove,
    certificate_from_tokens,
    extract_player_trace,
    format_certificate,
    format_edge_list,
    parse_certificate,
    parse_edge_list,
    solve_zq,
    verify_certificate,
)

from zqforce.cli import main
from zqforce.graphs import _parse_lines, _parse_plain

from helpers import (
    BOWTIE,
    cycle,
    disjoint_union,
    parse_outcome,
    random_cactus,
    random_connected_graph,
    star,
    verify_certificate_reference,
)

_JUNK = ("x", "1.5", "0x1", "-1", "-0", "", "1e3", "n", "#", ";", ",", "1,", ";1", "99999999999")


def _mutate_lines(lines, rng, junk_line):
    """Apply one to three line- or token-level mutations."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(8)
        i = rng.randrange(len(lines)) if lines else 0
        if op == 0 and lines:
            del lines[i]
        elif op == 1 and lines:
            lines.insert(i, lines[i])
        elif op == 2 and len(lines) > 1:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3 and lines:
            toks = lines[i].split(" ")
            rng.shuffle(toks)
            lines[i] = " ".join(toks)
        elif op == 4 and lines:
            toks = lines[i].split(" ")
            toks[rng.randrange(len(toks))] = rng.choice(_JUNK)
            lines[i] = " ".join(toks)
        elif op == 5 and lines:
            toks = lines[i].split(" ")
            k = rng.randrange(len(toks))
            toks[k] = "-" + toks[k]
            lines[i] = " ".join(toks)
        elif op == 6:
            lines.insert(i, f"n {rng.choice((-3, 0, 1, 2, 5, 40, 10**9))}")
        else:
            lines.insert(i, junk_line(rng))
    return lines


def _assert_canonical(g: Graph):
    assert all(u < v for u, v in g.edges)
    assert list(g.edges) == sorted(set(g.edges))
    assert g.m == len(g.edges)
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    assert g.adjacency == tuple(tuple(sorted(a)) for a in nbrs)


def _edge_list_junk(rng):
    return rng.choice(("", "# comment", "0", "1 2 3", "a b", "n", "n 3 4", "0 0", "3 -4"))


def test_fuzz_parse_edge_list():
    rng = random.Random(101)
    parsed = refused = 0
    for _ in range(400):
        g = random_connected_graph(rng.randint(1, 9), rng.random() * 0.5, rng)
        lines = format_edge_list(g).splitlines()
        if rng.random() < 0.5:
            lines = lines[1:]  # no header
        text = "\n".join(_mutate_lines(lines, rng, _edge_list_junk))
        try:
            got = parse_edge_list(text)
        except (EdgeListParseError, GraphValidationError, ResourceLimitError):
            refused += 1
            continue
        _assert_canonical(got)
        parsed += 1
    assert parsed > 50 and refused > 50


def _plain_edge_list(rng):
    """A valid edge list in the plain shape: seeded graph with isolated
    vertices, its pairs repeated, reversed and shuffled, with or without
    the header and the final newline."""
    parts = [random_connected_graph(rng.randint(1, 12), rng.random() * 0.5, rng)
             for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        parts.append(Graph.from_edges(rng.randint(1, 3), []))
    g = disjoint_union(*parts, rng=rng)
    pairs = list(g.edges)
    pairs += [(v, u) for u, v in rng.sample(pairs, len(pairs) // 3)]
    pairs += rng.sample(pairs, len(pairs) // 4)
    rng.shuffle(pairs)
    lines = [f"{u} {v}" for u, v in pairs]
    if rng.random() < 0.6 or not lines:
        lines.insert(0, f"n {g.n}")
    return lines, "\n" if rng.random() < 0.7 else ""


def _spoil(lines, rng):
    """One mutation the bulk path must hand to the line loop, or one that
    keeps the text plain."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    op = rng.randrange(15)
    if op == 0:
        lines[i] = lines[i].replace(" ", "\t", 1)
    elif op == 1:
        lines = [line + "\r" for line in lines]  # CRLF once joined
    elif op == 2:
        lines.insert(i, "# a comment")
    elif op == 3:
        lines[i] += "  # a comment"
    elif op == 4:
        lines.insert(i, rng.choice(("", " ", "\t")))
    elif op == 5:
        lines.insert(0, f"n {rng.choice((0, 1, 2, 3))}")
    elif op == 6:
        lines.append(f"0 {rng.randint(10, 60)}")  # out of range when a header says less
    elif op == 7:
        k = rng.randint(0, 9)
        lines.insert(i, f"{k} {k}")
    elif op == 8:
        lines[i] = rng.choice((" ", "  ")) + lines[i] + rng.choice(("", " "))
    elif op == 9:
        lines[i] = lines[i].replace(" ", "  ", 1)
    elif op == 10:
        toks = lines[i].split(" ")
        toks[-1] = rng.choice(("+", "-", "0", "\u0661", "\u00b2")) + toks[-1]
        lines[i] = " ".join(toks)
    elif op == 11:
        lines[i] = lines[i].split(" ")[-1]  # one id alone
    elif op == 12:
        lines[i] = "9" * 5000 + " 1"  # more digits than int() converts
    elif op == 13:
        lines[i] += "_0"
    return lines


def test_bulk_parse_agrees_with_the_line_loop(monkeypatch):
    rng = random.Random(104)
    texts = []
    for _ in range(300):
        lines, end = _plain_edge_list(rng)
        texts.append("\n".join(lines) + end)
        texts.append("\n".join(_spoil(lines, rng)) + end)
        texts.append("\n".join(_mutate_lines(lines, rng, _edge_list_junk)) + end)
    texts += ["", "\n", "n 5", "n 5\n", "0 1", "0 1\n\n", "0 1\n2", "0 1\n2 ", "0 1 ",
              "n 3\n0 1\nn 3\n"]
    # Under each limit, the number of texts the bulk path takes. A chunk of
    # 1 or 8 characters splits every text into several, so a leading zero,
    # a long id or a self-loop also turns up in a later chunk.
    for chunk in (None, 1, 8):
        for limits, least in (({}, 300), ({"MAX_EDGES": 3}, 20), ({"MAX_VERTICES": 12}, 150)):
            if chunk is not None:
                monkeypatch.setattr("zqforce.graphs._CHUNK", chunk)
            for name, value in limits.items():
                monkeypatch.setattr(f"zqforce.graphs.{name}", value)
            bulk = 0
            for text in texts:
                got = parse_outcome(parse_edge_list, text)
                assert got == parse_outcome(_parse_lines, text), (chunk, repr(text))
                bulk += _parse_plain(text) is not None
            assert bulk >= least, (chunk, limits)
            monkeypatch.undo()


def _certificate_corpus(rng):
    """Valid certificates with tokens, forces, announcements and reveals."""
    corpus = [(BOWTIE, None, certificate_from_tokens(BOWTIE, [0, 1, 3]))]
    graphs = [cycle(5), cycle(7), star((1, 1, 1)), star((2, 1, 2)), BOWTIE]
    graphs += [random_connected_graph(rng.randint(3, 8), rng.random() * 0.4, rng) for _ in range(15)]
    for g in graphs:
        q = rng.randrange(3)
        cert = extract_player_trace(solve_zq(g, GameConfig(q=q)))
        corpus.append((g, q, cert))
    assert any(isinstance(mv, AnnounceMove) for _, _, cert in corpus for mv in cert.trace)
    return corpus


def _certificate_junk(rng):
    return rng.choice((
        "", "# comment", "token", "force 1", "force 1 2 3", "announce", "announce ;",
        "announce 1;;2", "reveal 1,", "reveal ,", "n 5", "jump 1 2", "token -2", "reveal",
    ))


def _assert_check_result(g, q, cert):
    result = verify_certificate(g, q, cert)
    assert isinstance(result, CheckResult)
    assert result == verify_certificate_reference(g, q, cert), (g.edges, q, cert)
    if not result.ok:
        assert 0 <= result.failed_step <= len(cert.trace)
        assert isinstance(result.reason, str) and result.reason


def test_fuzz_certificate_text():
    rng = random.Random(102)
    corpus = _certificate_corpus(rng)
    parsed = refused = 0
    for _ in range(600):
        g, q, cert = rng.choice(corpus)
        text = "\n".join(_mutate_lines(format_certificate(cert).splitlines(), rng, _certificate_junk))
        try:
            got = parse_certificate(text)
        except EdgeListParseError:
            refused += 1
            continue
        assert isinstance(got, Certificate)
        _assert_check_result(g, q, got)
        parsed += 1
    assert parsed > 100 and refused > 100


def _retarget(mv, g, rng):
    def vertex():
        return rng.randrange(-1, g.n + 2)

    if isinstance(mv, TokenMove):
        return TokenMove(vertex())
    if isinstance(mv, ForceMove):
        return ForceMove(mv.source, vertex()) if rng.random() < 0.5 else ForceMove(vertex(), mv.target)
    comps = [frozenset(rng.sample(range(-1, g.n + 1), rng.randint(1, 3))) for _ in range(rng.randint(0, 3))]
    return type(mv)(rng.choice((tuple(comps), tuple(comps), tuple(comps), comps, None, len(comps))))


def _move_mutant(g, cert, rng):
    """cert with one move deleted, repeated, swapped with another or retargeted."""
    trace = list(cert.trace)
    op = rng.randrange(4)
    i = rng.randrange(len(trace))
    if op == 0:
        del trace[i]
    elif op == 1:
        trace.insert(i, trace[i])
    elif op == 2:
        j = rng.randrange(len(trace))
        trace[i], trace[j] = trace[j], trace[i]
    else:
        trace[i] = _retarget(trace[i], g, rng)
    return Certificate(tuple(trace))


def test_fuzz_certificate_moves():
    rng = random.Random(103)
    corpus = _certificate_corpus(rng)
    for g, q, cert in corpus:
        assert verify_certificate(g, q, cert).ok
    rejected = 0
    for _ in range(1500):
        g, q, cert = rng.choice(corpus)
        mutant = _move_mutant(g, cert, rng)
        _assert_check_result(g, q, mutant)
        rejected += not verify_certificate(g, q, mutant).ok
    assert rejected > 500


def test_checker_agrees_with_the_set_reference_on_compute_certificates(tmp_path, capsys):
    # compute --method exact --trace at q = 0..2 in both rule-3 modes, on
    # seeded cacti and sparse graphs: their announce and reveal lines drive
    # the reveal window, which the fuzz corpus above reaches less often.
    rng = random.Random(104)
    graphs = [random_cactus(rng.randint(8, 12), rng) for _ in range(4)]
    graphs += [random_connected_graph(rng.randint(7, 11), 0.15, rng) for _ in range(4)]
    shapes = set()
    for k, g in enumerate(graphs):
        edges = tmp_path / f"g{k}.el"
        edges.write_text(format_edge_list(g))
        for q in (0, 1, 2):
            for mode in ("closure", "single"):
                trace = tmp_path / f"g{k}-{q}-{mode}.cert"
                argv = ["compute", "--file", str(edges), "--q", str(q), "--method", "exact",
                        "--rule3", mode, "--trace", str(trace)]
                assert main(argv) == 0
                cert = parse_certificate(trace.read_text())
                shapes.update(type(mv) for mv in cert.trace)
                assert verify_certificate(g, q, cert).ok
                _assert_check_result(g, q, cert)
                for _ in range(10):
                    _assert_check_result(g, q, _move_mutant(g, cert, rng))
    capsys.readouterr()
    assert shapes == {TokenMove, ForceMove, AnnounceMove, RevealMove}
