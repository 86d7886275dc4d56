"""Machine-checkable certificates for claimed Z / Z_q values.

A certificate is a replayable trace of moves; the tokens it spends are its
token moves. The checker here is written against the game rules directly,
with one fill flag per vertex and none of the solvers' code, so it stays an
independent validator for their output. The builder `certificate_from_tokens`
fills its flags with `_close_marks`, the forcing loop that
`forcing.closure_with_forces` also runs; the checker does not call it.

Text form, one move per line:

    token 3
    force 2 3
    announce 1,2;4,5
    reveal 1,2

where announced/revealed components are comma-joined vertex lists separated
by semicolons.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, compress, repeat

from .errors import EdgeListParseError, GraphValidationError
from .graphs import Graph, _is_digits, unfilled_components

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # a fill mark to an unfilled mark


@dataclass(frozen=True, slots=True)
class TokenMove:
    vertex: int


@dataclass(frozen=True, slots=True)
class ForceMove:
    source: int
    target: int


@dataclass(frozen=True, slots=True)
class AnnounceMove:
    components: tuple  # tuple of frozensets


@dataclass(frozen=True, slots=True)
class RevealMove:
    components: tuple


@dataclass(frozen=True)
class Certificate:
    trace: tuple

    @property
    def tokens(self) -> frozenset:
        return frozenset(mv.vertex for mv in self.trace if isinstance(mv, TokenMove))

    @property
    def value(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failed_step: int | None = None
    reason: str | None = None


def _canon_components(comps) -> tuple:
    return tuple(sorted((frozenset(c) for c in comps), key=min))


def certificate_from_tokens(g: Graph, tokens) -> Certificate:
    """Certificate for a plain zero forcing set: all tokens up front, then
    one closure force sequence. Raises GraphValidationError if a token is
    not an int (a bool is not), repeats, lies outside g, or the tokens do
    not force all of g; a repeat is named before an outside vertex."""
    trace = list(map(TokenMove, tokens))
    n = g.n
    mark = bytearray(n)
    outside = {}  # ids outside 0..n-1 in token order; mark[-1] would wrap
    for mv in trace:
        v = mv.vertex
        if type(v) is not int:
            raise GraphValidationError(f"token {v!r} is not an int")
        if 0 <= v < n:
            if mark[v]:
                raise GraphValidationError(f"repeated token on vertex {v}")
            mark[v] = 1
        elif v in outside:
            raise GraphValidationError(f"repeated token on vertex {v}")
        else:
            outside[v] = None
    if outside:
        raise GraphValidationError(f"vertex {next(iter(outside))} outside range 0..{n - 1}")
    forces = _close_marks(g, mark)
    if mark.count(0):
        raise GraphValidationError("token set is not a zero forcing set")
    trace.extend(forces)
    return Certificate(tuple(trace))


def _close_marks(g: Graph, mark: bytearray) -> list:
    """Fill `mark`, one 0/1 flag per vertex of g, to its forcing closure in
    place, and return the ForceMoves that do it.

    Work-queue over potential sources, O(n + m) total: a vertex forces at
    most once, and each fill decrements its neighbors' unfilled counts.
    The counts are read from the unfilled side only: a vertex has as many
    unfilled neighbors as there are unfilled vertices that list it, so one
    Counter over the unfilled vertices' adjacency holds every nonzero
    count, and a set that is mostly filled costs little more than its
    unfilled part to count. The queue starts with the filled vertices of
    count 1 in increasing order.
    """
    adjacency = g.adjacency
    unfilled = compress(range(g.n), mark.translate(_FLIP))
    counts = Counter(chain.from_iterable(map(adjacency.__getitem__, unfilled)))
    # The loop reads a list: indexing a Counter, a dict subclass, is slower.
    unfilled_count = list(map(counts.get, range(g.n), repeat(0)))
    queue = deque(sorted(v for v, k in counts.items() if k == 1 and mark[v]))
    pop, push = queue.popleft, queue.append
    forces = []
    while queue:
        u = pop()
        if unfilled_count[u] != 1:
            continue  # stale entry
        for t in adjacency[u]:
            if not mark[t]:
                break
        forces.append(ForceMove(u, t))
        mark[t] = 1
        if unfilled_count[t] == 1:
            push(t)
        for w in adjacency[t]:
            unfilled_count[w] -= 1
            if mark[w] and unfilled_count[w] == 1:
                push(w)
    return forces


def certificate_lines(cert: Certificate):
    """The text form of cert, one newline-terminated line per move."""
    for mv in cert.trace:
        if isinstance(mv, TokenMove):
            yield f"token {mv.vertex}\n"
        elif isinstance(mv, ForceMove):
            yield f"force {mv.source} {mv.target}\n"
        elif isinstance(mv, AnnounceMove):
            yield f"announce {_format_components(mv.components)}\n"
        elif isinstance(mv, RevealMove):
            yield f"reveal {_format_components(mv.components)}\n"
        else:
            raise TypeError(f"unknown move {mv!r}")


def format_certificate(cert: Certificate) -> str:
    return "".join(certificate_lines(cert))


def _format_components(comps) -> str:
    return ";".join(",".join(str(v) for v in sorted(c)) for c in _canon_components(comps))


def _parse_components(text: str, lineno: int) -> tuple:
    comps = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise EdgeListParseError(lineno, "empty component in announce/reveal")
        comps.append(frozenset(_parse_int(tok.strip(), lineno) for tok in chunk.split(",")))
    return _canon_components(comps)


def parse_certificate(text: str) -> Certificate:
    trace = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        op, _, rest = line.partition(" ")
        rest = rest.strip()
        if op == "token":
            trace.append(TokenMove(_parse_int(rest, lineno)))
        elif op == "force":
            parts = rest.split()
            if len(parts) != 2:
                raise EdgeListParseError(lineno, f"expected 'force u v', got {line!r}")
            trace.append(ForceMove(_parse_int(parts[0], lineno), _parse_int(parts[1], lineno)))
        elif op == "announce":
            trace.append(AnnounceMove(_parse_components(rest, lineno)))
        elif op == "reveal":
            trace.append(RevealMove(_parse_components(rest, lineno)))
        else:
            raise EdgeListParseError(lineno, f"unknown move {op!r}")
    return Certificate(tuple(trace))


def _parse_int(text: str, lineno: int) -> int:
    if _is_digits(text):  # int() also reads "+3", "1_0" and non-ASCII digits
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise EdgeListParseError(lineno, f"bad vertex {text!r}")


def verify_certificate(g: Graph, q: int, cert: Certificate) -> CheckResult:
    """Replay the trace under the rules for the given q.

    q is the component-count threshold of the announcement rule; plain zero
    forcing is any q >= n, where no announcement is legal. Forces after a
    reveal are judged inside the revealed subgraph first and as ordinary
    whole-graph forces otherwise; a whole-graph force (like a token or a new
    announce) leaves the window behind. The filled vertices and the window
    are bytearrays of flags, one per vertex, so every vertex a move names is
    checked to be an int (a bool is not) in 0..n-1 before it is looked up,
    and every announcement and reveal to be a tuple of frozensets of ints.
    """
    filled = bytearray(g.n)
    window = None  # flags of the revealed subgraph's vertices while a reveal is active
    pending = None  # announced components awaiting the reveal

    def fail(step, reason):
        return CheckResult(ok=False, failed_step=step, reason=reason)

    def are_components(comps):
        return isinstance(comps, tuple) and all(
            isinstance(c, frozenset) and all(type(v) is int for v in c) for c in comps
        )

    for step, mv in enumerate(cert.trace):
        if pending is not None and not isinstance(mv, RevealMove):
            return fail(step, "announcement must be followed by a reveal")
        if isinstance(mv, TokenMove):
            v = mv.vertex
            if type(v) is not int or not 0 <= v < g.n:
                return fail(step, f"token on invalid vertex {v!r}")
            if filled[v]:
                return fail(step, f"token on already-filled vertex {v}")
            filled[v] = 1
            window = None
        elif isinstance(mv, AnnounceMove):
            if not are_components(mv.components):
                return fail(step, "announced component is not a frozenset of ints")
            comps = unfilled_components(g, compress(range(g.n), filled))
            if len(comps) <= q:
                return fail(step, f"only {len(comps)} unfilled components, need more than q={q}")
            announced = set(mv.components)
            if len(announced) != len(mv.components):
                return fail(step, "duplicate component in announcement")
            if len(announced) < q + 1:
                return fail(step, f"announced {len(announced)} components, need at least {q + 1}")
            actual = set(comps)
            if not announced <= actual:
                return fail(step, "announced set is not an unfilled component")
            pending = announced
            window = None
        elif isinstance(mv, RevealMove):
            if pending is None:
                return fail(step, "reveal without a preceding announcement")
            if not are_components(mv.components):
                return fail(step, "revealed component is not a frozenset of ints")
            revealed = set(mv.components)
            if len(revealed) != len(mv.components):
                return fail(step, "duplicate component in reveal")
            if not revealed or not revealed <= pending:
                return fail(step, "reveal must be a nonempty subset of the announcement")
            # The revealed components are unfilled components of g, so their ids are in range.
            window = bytearray(filled)
            for comp in revealed:
                for v in comp:
                    window[v] = 1
            pending = None
        elif isinstance(mv, ForceMove):
            u, v = mv.source, mv.target
            if not (type(u) is int and type(v) is int and 0 <= u < g.n and 0 <= v < g.n):
                return fail(step, f"force with invalid endpoints ({u!r}, {v!r})")
            if not filled[u]:
                return fail(step, f"force source {u} is unfilled")
            if filled[v]:
                return fail(step, f"force target {v} is already filled")
            in_window = window is not None and [
                w for w in g.adjacency[u] if window[w] and not filled[w]
            ] == [v]
            whole = [w for w in g.adjacency[u] if not filled[w]] == [v]
            if not in_window and not whole:
                return fail(step, f"{u} does not have {v} as its unique unfilled neighbor")
            if not in_window:
                # An ordinary forcing move is always available; taking one
                # leaves the announced window behind.
                window = None
            filled[v] = 1
        else:
            return fail(step, f"unknown move {mv!r}")

    if pending is not None:
        return fail(len(cert.trace), "trace ends on an unanswered announcement")
    if filled.count(0):
        return fail(len(cert.trace), "trace does not fill every vertex")
    return CheckResult(ok=True)


def check_certificate(g: Graph, q: int, cert: Certificate) -> bool:
    return verify_certificate(g, q, cert).ok
