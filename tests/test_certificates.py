import pytest

from zqforce import (
    AnnounceMove,
    Certificate,
    EdgeListParseError,
    ForceMove,
    Graph,
    GraphValidationError,
    RevealMove,
    TokenMove,
    certificate_from_tokens,
    check_certificate,
    format_certificate,
    parse_certificate,
    verify_certificate,
)

from helpers import BOWTIE, clique, cycle, path, verify_certificate_reference

P3_TRACE = Certificate((TokenMove(0), ForceMove(0, 1), ForceMove(1, 2)))

# Announcement-driven play on C5 at q=0: two tokens, reveal-driven forces.
C5_TRACE = Certificate((
    TokenMove(0),
    TokenMove(2),
    AnnounceMove((frozenset({3, 4}),)),
    RevealMove((frozenset({3, 4}),)),
    ForceMove(2, 3),
    ForceMove(3, 4),
    AnnounceMove((frozenset({1}),)),
    RevealMove((frozenset({1}),)),
    ForceMove(0, 1),
))


def test_p3_trace_valid_for_any_q():
    for q in (0, 1, 3, 5):
        assert check_certificate(path(3), q, P3_TRACE)


def test_triangle_premature_force_rejected_with_step():
    cert = Certificate((TokenMove(0), ForceMove(0, 1)))
    result = verify_certificate(clique(3), 1, cert)
    assert not result.ok
    assert result.failed_step == 1


def test_c5_announcement_trace_valid_at_q0():
    assert check_certificate(cycle(5), 0, C5_TRACE)


def test_c5_trace_illegal_when_q_too_large():
    # With q=5 no announcement is ever legal on five vertices.
    result = verify_certificate(cycle(5), 5, C5_TRACE)
    assert not result.ok
    assert result.failed_step == 2


def test_announcements_illegal_in_plain_zero_forcing():
    # Plain zero forcing is q >= n: no announcement is legal there.
    assert not check_certificate(cycle(5), cycle(5).n, C5_TRACE)


def test_force_outside_window_rejected():
    cert = Certificate((
        TokenMove(0),
        TokenMove(2),
        AnnounceMove((frozenset({1}),)),
        RevealMove((frozenset({1}),)),
        ForceMove(2, 3),  # 3 is not in the revealed subgraph
    ))
    result = verify_certificate(cycle(5), 0, cert)
    assert not result.ok
    assert result.failed_step == 4


def test_reveal_must_follow_announcement():
    cert = Certificate((TokenMove(0), TokenMove(2), RevealMove((frozenset({1}),))))
    assert not check_certificate(cycle(5), 0, cert)


def test_reveal_must_be_subset_of_announcement():
    cert = Certificate((
        TokenMove(0),
        TokenMove(2),
        AnnounceMove((frozenset({1}),)),
        RevealMove((frozenset({3, 4}),)),
    ))
    result = verify_certificate(cycle(5), 0, cert)
    assert not result.ok
    assert result.failed_step == 3


def test_incomplete_fill_rejected():
    cert = Certificate((TokenMove(0),))
    result = verify_certificate(path(3), 0, cert)
    assert not result.ok
    assert result.failed_step == len(cert.trace)


def test_duplicate_token_rejected():
    cert = Certificate((TokenMove(0), TokenMove(0)))
    assert not check_certificate(path(2), 0, cert)


def test_bowtie_stuck_state_has_no_window_force():
    cert = Certificate((
        TokenMove(0),
        TokenMove(1),
        TokenMove(2),
        AnnounceMove((frozenset({3, 4}),)),
        RevealMove((frozenset({3, 4}),)),
        ForceMove(2, 3),  # 2 still has two unfilled neighbors in the window
    ))
    result = verify_certificate(BOWTIE, 0, cert)
    assert not result.ok
    assert result.failed_step == 5


def test_a_whole_graph_force_leaves_the_reveal_window_behind():
    # Filling 0 and 3 leaves {1}, {2} and {4} unfilled; {1} is revealed.
    g = Graph.from_edges(5, [(0, 1), (0, 2), (3, 4)])
    opening = (TokenMove(0), TokenMove(3), AnnounceMove((frozenset({1}), frozenset({2}))),
               RevealMove((frozenset({1}),)))
    # 0 -> 1 inside the window, then ordinary forces.
    assert check_certificate(g, 0, Certificate(opening + (ForceMove(0, 1), ForceMove(3, 4), ForceMove(0, 2))))
    # 3 -> 4 is an ordinary force, after which 0 -> 1 is judged in the whole
    # graph, where 0 has two unfilled neighbors.
    result = verify_certificate(g, 0, Certificate(opening + (ForceMove(3, 4), ForceMove(0, 1), ForceMove(0, 2))))
    assert (result.ok, result.failed_step) == (False, 5)


def test_certificate_from_tokens_builds_valid_replay():
    cert = certificate_from_tokens(BOWTIE, [0, 1, 3])
    assert cert.value == 3
    assert check_certificate(BOWTIE, BOWTIE.n, cert)
    with pytest.raises(GraphValidationError, match="not a zero forcing set"):
        certificate_from_tokens(cycle(5), [0])


def test_certificate_from_tokens_refuses_a_repeated_token():
    # Its own checker would reject the second token on vertex 1 at step 2.
    with pytest.raises(GraphValidationError, match="repeated token on vertex 1"):
        certificate_from_tokens(cycle(5), [0, 1, 1])


@pytest.mark.parametrize("tokens, message", [
    ([0, -1], "vertex -1 outside range 0..4"),  # a bytearray would read index -1 as 4
    ([0, 5], "vertex 5 outside range 0..4"),
    ([0, 5, 0], "repeated token on vertex 0"),  # a repeat is named before an outside vertex
    ([-1, 0, 0], "repeated token on vertex 0"),
    ([0, -1, -1], "repeated token on vertex -1"),
    ([1, 3], "token set is not a zero forcing set"),
    ([0, 1.5], "token 1.5 is not an int"),
    ([0, True], "token True is not an int"),  # a bool is no vertex id, though True == 1
])
def test_certificate_from_tokens_refusals(tokens, message):
    with pytest.raises(GraphValidationError, match=f"^{message}$"):
        certificate_from_tokens(cycle(5), tokens)


def test_text_round_trip():
    text = format_certificate(C5_TRACE)
    assert text.splitlines() == [
        "token 0",
        "token 2",
        "announce 3,4",
        "reveal 3,4",
        "force 2 3",
        "force 3 4",
        "announce 1",
        "reveal 1",
        "force 0 1",
    ]
    assert parse_certificate(text) == C5_TRACE


def test_multi_component_announce_round_trip():
    cert = Certificate((AnnounceMove((frozenset({1}), frozenset({3, 4}))),))
    text = format_certificate(cert)
    assert "announce 1;3,4" in text
    assert parse_certificate(text) == cert


def test_parse_certificate_rejects_garbage():
    with pytest.raises(EdgeListParseError):
        parse_certificate("token x")
    with pytest.raises(EdgeListParseError):
        parse_certificate("jump 1 2")
    with pytest.raises(EdgeListParseError):
        parse_certificate("force 1")


@pytest.mark.parametrize("move", ["token {}", "force {} 0", "force 0 {}", "announce 1;{},4", "reveal {}"])
@pytest.mark.parametrize("vertex", ["1_0", "+3", "١", "9" * 5000],
                         ids=["underscore", "plus", "arabic-indic", "past-int-digit-limit"])
def test_parse_certificate_reads_ids_in_ascii_digits_only(move, vertex):
    # int() reads the first three (as 10, 3 and 1) and refuses the last with
    # a plain ValueError, since it has more digits than int() converts. The
    # edge-list parser refuses all four, and so does the certificate parser,
    # at their line.
    text = f"token 0\n{move.format(vertex)}\n"
    with pytest.raises(EdgeListParseError, match=r"^line 2: bad vertex "):
        parse_certificate(text)
    assert parse_certificate(text.replace(vertex, "2")).trace[1:]


_C5_TOKENS = (TokenMove(0), TokenMove(2))  # unfilled components {1} and {3, 4}
_ANNOUNCE_1 = AnnounceMove((frozenset({1}),))


@pytest.mark.parametrize("q, trace, step, reason", [
    (0, _C5_TOKENS + (_ANNOUNCE_1, ForceMove(0, 1)), 3, "announcement must be followed by a reveal"),
    (0, (TokenMove(7),), 0, "token on invalid vertex 7"),
    (0, (TokenMove(-1),), 0, "token on invalid vertex -1"),
    (0, _C5_TOKENS + (AnnounceMove((frozenset({1}), frozenset({1}))),), 2,
     "duplicate component in announcement"),
    (0, _C5_TOKENS + (AnnounceMove((frozenset({1}), frozenset({3, 4}))),
                      RevealMove((frozenset({1}), frozenset({1})))), 3, "duplicate component in reveal"),
    (1, _C5_TOKENS + (_ANNOUNCE_1,), 2, "announced 1 components, need at least 2"),
    (0, _C5_TOKENS + (AnnounceMove((frozenset({3}),)),), 2, "announced set is not an unfilled component"),
    (0, (TokenMove(0), ForceMove(0, 9)), 1, "force with invalid endpoints (0, 9)"),
    (0, (TokenMove(0), ForceMove(0, -1)), 1, "force with invalid endpoints (0, -1)"),
    (0, (TokenMove(0), ForceMove(1, 2)), 1, "force source 1 is unfilled"),
    (0, _C5_TOKENS + (_ANNOUNCE_1,), 3, "trace ends on an unanswered announcement"),
    (0, (TokenMove(1.5),), 0, "token on invalid vertex 1.5"),
    (0, (TokenMove(0), TokenMove(True)), 1, "token on invalid vertex True"),
    (0, (TokenMove(0), ForceMove(0, None)), 1, "force with invalid endpoints (0, None)"),
    (0, _C5_TOKENS + (AnnounceMove(([1],)),), 2, "announced component is not a frozenset of ints"),
    (0, _C5_TOKENS + (_ANNOUNCE_1, RevealMove(([1],))), 3, "revealed component is not a frozenset of ints"),
    (0, _C5_TOKENS + (AnnounceMove(None),), 2, "announced component is not a frozenset of ints"),
    (0, _C5_TOKENS + (AnnounceMove(3),), 2, "announced component is not a frozenset of ints"),
    (0, _C5_TOKENS + (AnnounceMove([frozenset({1})]),), 2, "announced component is not a frozenset of ints"),
    (0, _C5_TOKENS + (_ANNOUNCE_1, RevealMove(None)), 3, "revealed component is not a frozenset of ints"),
    (0, _C5_TOKENS + (_ANNOUNCE_1, RevealMove(3)), 3, "revealed component is not a frozenset of ints"),
    (0, _C5_TOKENS + (_ANNOUNCE_1, RevealMove([frozenset({1})])), 3, "revealed component is not a frozenset of ints"),
], ids=["announce-not-revealed", "token-invalid-vertex", "token-negative-vertex", "duplicate-announced",
        "duplicate-revealed", "too-few-announced", "announced-non-component", "force-invalid-endpoints",
        "force-negative-endpoint", "force-unfilled-source", "unanswered-announcement", "token-float-vertex",
        "token-bool-vertex", "force-none-endpoint", "announced-list-component", "revealed-list-component",
        "announced-none", "announced-int", "announced-list", "revealed-none", "revealed-int", "revealed-list"])
def test_checker_failure_reasons(q, trace, step, reason):
    result = verify_certificate(cycle(5), q, Certificate(trace))
    assert (result.ok, result.failed_step, result.reason) == (False, step, reason)
    assert verify_certificate_reference(cycle(5), q, Certificate(trace)) == result


def test_a_trace_with_a_non_move_is_neither_formatted_nor_accepted():
    cert = Certificate(_C5_TOKENS + ("token 1",))
    with pytest.raises(TypeError, match=r"^unknown move 'token 1'$"):
        format_certificate(cert)
    result = verify_certificate(cycle(5), 0, cert)
    assert (result.ok, result.failed_step, result.reason) == (False, 2, "unknown move 'token 1'")


def test_parse_certificate_skips_comments_and_blank_lines():
    text = (
        "# C5 at q=0\n"
        "token 0\n"
        "token 2  # second token\n"
        "\n"
        "announce 3,4\n"
        "   # indented comment\n"
        "reveal 3,4\n"
        "force 2 3\nforce 3 4\nannounce 1\nreveal 1\nforce 0 1  # last force\n"
    )
    cert = parse_certificate(text)
    assert cert == C5_TRACE
    assert cert.tokens == {0, 2} and cert.value == 2
