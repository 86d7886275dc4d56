"""Exact Z_q via adversarial game search over filled-set states.

The game value V(F) of a filled set F is the minimum number of tokens the
player still has to spend against a worst-case oracle:

    V(V(G)) = 0
    V(F) = min over
        (a) 1 + V(F + v)          for every unfilled v            [token]
        (b) V(F + target)         for every applicable force      [force]
        (c) max over reveals L of the announcement's successors   [announce]

States are bitmasks and the memo holds game values only, keyed by
forcing-closed states. V(F) = V(closure(F)) holds one force at a time:

    a force is free, so V(F) <= V(F + t) for a force target t, and
    filling a vertex never hurts, so V(F + t) <= V(F) (monotonicity).

The search therefore reads and writes every state under its closure, never
meets a force move at a state it expands, and stores no non-closed state.
It scores a state's tokens only when no announcement there is worth 0 or 1:

    a token is worth 1 + V(F + v) >= 1, and on equal value an announcement
    beats a token, so such an announcement is the move the tie-break picks.

States reached only through the skipped tokens are never stored.

Each move evaluator also keeps a second, private memo from the raw argument
of value() to its value, read before the closure is computed: about half of
value()'s calls repeat an argument, a successor reached again from another
state, and a dict lookup costs less than closing it again. That memo is not
part of the value table: it keeps unclosed arguments too, is never
returned, and is cleared whenever it reaches the memo limit.

Optimal play for both sides is re-derived from that table on demand: one move
evaluator scores the player's moves and the oracle's reveals, and the search,
the trace and the adversarial oracle all call it. It picks moves at closed
states only; trace replay plays the forces of a non-closed state itself,
lowest (u, target) first.

An announcement is discarded when some nonempty reveal admits no force in
the revealed subgraph: the oracle would pick that reveal and the state would
not change, so the move is a value-neutral self-loop. Announcing more than
q+1 components only enlarges the oracle's choice set and can never help the
player, so the search enumerates announcements of exactly q+1 components.
The move evaluator, with `_window_forces` and forcing's `_window_closure`,
is the package's one statement of these rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .certificates import (
    AnnounceMove,
    Certificate,
    ForceMove,
    RevealMove,
    TokenMove,
    format_certificate,
)
from .errors import (
    GraphValidationError,
    OracleProtocolError,
    ResourceLimitError,
)
from .forcing import _adjacency_masks, _window_closure, vertices_to_mask
from .graphs import Graph

MODE_CLOSURE = "closure"
MODE_SINGLE_FORCE = "single_force"

DEFAULT_VERTEX_CAP = 16
# Bounds both memos of a move evaluator: the value table, which raises
# ResourceLimitError when full, and the raw-argument memo, which is cleared.
# About 73 B per table entry and 61 B per raw entry (tracemalloc, C16 at
# q=1): ~1.2 GB and ~1.0 GB at the limit.
MEMO_LIMIT = 1 << 24


@dataclass(frozen=True)
class GameConfig:
    q: int
    rule3_mode: str = MODE_CLOSURE
    vertex_cap: int = DEFAULT_VERTEX_CAP

    def __post_init__(self):
        if self.q < 0:
            raise GraphValidationError("q must be nonnegative")
        if self.rule3_mode not in (MODE_CLOSURE, MODE_SINGLE_FORCE):
            raise GraphValidationError(f"unknown rule3_mode {self.rule3_mode!r}")
        if not (1 <= self.vertex_cap <= 64):
            raise GraphValidationError("vertex_cap must be in 1..64")


@dataclass
class GameSolution:
    """Game value and the value table of a solve.

    States and components are vertex bitmasks; values maps every
    forcing-closed state the search scored to its game value, and a
    non-closed state has the value of its closure. states_explored counts
    those closed states, which leave out the ones reached only through
    token moves the search skipped. Moves and reveals are not stored:
    extract_player_trace and adversarial_oracle derive them on demand from
    values. oracle_response keeps the reveals the adversarial oracle has
    been asked for, keyed by (state, announced component masks); it is empty
    when solve_zq returns.
    """

    value: int
    values: dict
    q: int
    rule3_mode: str
    graph: Graph
    oracle_response: dict = field(default_factory=dict)

    @property
    def states_explored(self) -> int:
        return len(self.values)


def mask_to_vertices(mask: int) -> frozenset:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _mask_components(masks, live: int) -> list:
    """Connected components of the subgraph induced on the `live` mask,
    ordered by lowest vertex."""
    comps = []
    rest = live
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            grow = 0
            m = frontier
            while m:
                low = m & -m
                m ^= low
                grow |= masks[low.bit_length() - 1]
            frontier = grow & live & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _window_forces(masks, filled: int, window: int) -> list:
    """Forces (u, target) legal inside `window`: neighbors outside the window
    are ignored when counting a source's unfilled neighbors."""
    out = []
    m = filled
    while m:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        cand = masks[u] & window & ~filled
        if cand and not (cand & (cand - 1)):
            out.append((u, cand.bit_length() - 1))
    return out


# Move kinds, numbered in tie-break order so that free moves come first.
_ANNOUNCE, _TOKEN = 0, 1


def _move_evaluator(sol: GameSolution, memo_limit: int):
    """The one scorer of moves, shared by the search and by trace replay.

    Returns four closures over the value table `sol.values`:
      value(state): the game value, read under the forcing closure of
        `state` and computed and memoized there on a miss. It first looks
        `state` up, unclosed, in the evaluator's own raw memo, which maps
        each argument value() has seen to its value. That memo is not part
        of `sol.values`, which keeps closed states only; it is cleared when
        it reaches memo_limit entries;
      best(state) -> (value, kind, key): the optimal move at a forcing-closed
        state. Ties break by kind (announce, token), then by key: the
        component masks for an announcement, (v,) for a token;
      worst_reveal(state, combo, cache) -> (value, reveal) for the first
        strict-maximum reveal of the announcement in subset order, or None
        if some reveal is dead. `cache` maps a revealed union to its value
        and may be shared by the announcements of one state;
      release(): unlinks value() from best(). The two call each other, so
        without it the evaluator and its raw memo outlive their last caller
        until the cyclic GC runs; after it, value() may no longer be called
        on a miss, and reference counting frees the evaluator.

    best() is defined at closed states only: a closed state has no force
    move, and trace replay plays a non-closed state's forces itself. It
    scores every announcement and reveal, and the tokens only when no
    announcement is worth 0 or 1. The search memoizes every successor best()
    scores, so replay over a finished table, which calls the same best(),
    only reads it; replay passes a memo_limit of the table's size to make
    that a checked fact.
    """
    memo = sol.values
    raw = {}
    masks = _adjacency_masks(sol.graph)
    full = (1 << sol.graph.n) - 1
    q = sol.q
    closure_mode = sol.rule3_mode == MODE_CLOSURE

    def value(filled: int) -> int:
        val = raw.get(filled)
        if val is not None:
            return val
        closed = _window_closure(masks, filled, full)
        val = memo.get(closed)
        if val is None:
            if len(memo) >= memo_limit:
                raise ResourceLimitError(
                    f"memo limit {memo_limit} reached; solve a smaller graph or raise zqforce.game.MEMO_LIMIT"
                )
            val = memo[closed] = best(closed)[0]
        if len(raw) >= memo_limit:
            raw.clear()
        raw[filled] = val
        return val

    def best(filled: int) -> tuple:
        unfilled = full & ~filled

        # Rule 3: announcements of exactly q+1 unfilled components.
        moves = []
        if unfilled.bit_count() > q:
            comps = _mask_components(masks, unfilled)
            if len(comps) > q:
                cache = {}
                for combo in combinations(comps, q + 1):
                    worst = worst_reveal(filled, combo, cache)
                    if worst is not None:
                        moves.append((worst[0], _ANNOUNCE, combo))
        # A token costs at least 1 and loses ties to an announcement.
        if moves and min(moves)[0] <= 1:
            return min(moves)

        # Rule 1: tokens.
        m = unfilled
        while m:
            low = m & -m
            m ^= low
            moves.append((1 + value(filled | low), _TOKEN, (low.bit_length() - 1,)))
        return min(moves)  # tuple order is the tie-break order

    def worst_reveal(filled: int, combo: tuple, cache: dict):
        worst = -1
        worst_sub = 0
        for sub in range(1, 1 << len(combo)):
            union = 0
            for j, comp in enumerate(combo):
                if sub >> j & 1:
                    union |= comp
            res = cache.get(union)
            if res is None:
                res = cache[union] = _reveal_value(filled, union)
            if res < 0:
                return None
            if res > worst:
                worst, worst_sub = res, sub
        return worst, tuple(c for j, c in enumerate(combo) if worst_sub >> j & 1)

    def _reveal_value(filled: int, union: int) -> int:
        """Player's best continuation value after a reveal; -1 if the reveal
        admits no force (a dead reveal)."""
        window = filled | union
        if closure_mode:
            closed = _window_closure(masks, filled, window)
            if closed == filled:
                return -1
            return value(closed)
        return min((value(filled | 1 << t) for _, t in _window_forces(masks, filled, window)), default=-1)

    def release():
        nonlocal best
        best = None

    return value, best, worst_reveal, release


def solve_zq(g: Graph, cfg: GameConfig) -> GameSolution:
    """Exact game value and the value table of every state searched.

    g may be disconnected: the announcement rule counts the unfilled
    components of the whole graph, so it is one game, not one per component.
    Optimal moves for both sides are re-derived from the table on demand by
    `extract_player_trace` and `adversarial_oracle`.
    """
    n = g.n
    if n > cfg.vertex_cap:
        raise ResourceLimitError(f"n={n} exceeds vertex cap {cfg.vertex_cap}; raise the cap to allow this")

    sol = GameSolution(value=0, values={(1 << n) - 1: 0}, q=cfg.q, rule3_mode=cfg.rule3_mode, graph=g)
    value, _, _, release = _move_evaluator(sol, MEMO_LIMIT)
    sol.value = value(0)
    release()
    return sol


def adversarial_oracle(sol: GameSolution):
    """The solver's worst-case oracle as a reveal policy.

    Each reveal is derived from the value table when first asked for and
    kept in `sol.oracle_response`. The policy answers only at the
    forcing-closed states of the table, which are the only states where the
    player's optimal play announces (elsewhere a force is its best move).
    The search scored every announcement at each of them, skipping tokens
    only, so every live announcement there has an answer; an announcement
    at any other state, or one that is not q+1 distinct live components,
    raises OracleProtocolError.
    """
    _, _, worst_reveal, _ = _move_evaluator(sol, len(sol.values))
    masks = _adjacency_masks(sol.graph)
    full = (1 << sol.graph.n) - 1

    def policy(filled, announcement):
        state = vertices_to_mask(filled)
        announced = [vertices_to_mask(c) for c in announcement]
        combo = tuple(c for c in _mask_components(masks, full & ~state) if c in announced)
        key = (state, combo)
        # combo holds each unfilled component at most once, so equal lengths
        # rule out repeated entries and non-components alike.
        legal = state in sol.values and len(combo) == len(announced) == sol.q + 1
        if legal and key not in sol.oracle_response:
            worst = worst_reveal(state, combo, {})
            if worst is not None:
                sol.oracle_response[key] = worst[1]
        if not legal or key not in sol.oracle_response:
            raise OracleProtocolError("announcement was never evaluated by the solver")
        return tuple(mask_to_vertices(c) for c in sol.oracle_response[key])

    return policy


def extract_player_trace(sol: GameSolution, oracle=None) -> Certificate:
    """Play the solver's optimal moves against an oracle policy.

    The policy is a callable (filled set, announced components) -> revealed
    components; by default the solver's own adversarial oracle. The result
    spends exactly sol.value tokens against that default and never more than
    sol.value against any legal oracle.
    """
    if oracle is None:
        oracle = adversarial_oracle(sol)
    value, best, _, _ = _move_evaluator(sol, len(sol.values))
    masks = _adjacency_masks(sol.graph)
    full = (1 << sol.graph.n) - 1
    closure_mode = sol.rule3_mode == MODE_CLOSURE
    state = 0
    trace = []
    tokens = []
    while state != full:
        # Rule 2: a force keeps the closure and so the value; play them all,
        # lowest (u, target) first, before asking for a move.
        forces = _window_forces(masks, state, full)
        if forces:
            u, t = forces[0]
            trace.append(ForceMove(u, t))
            state |= 1 << t
            continue
        _, kind, key = best(state)
        if kind == _TOKEN:
            v = key[0]
            tokens.append(v)
            trace.append(TokenMove(v))
            state |= 1 << v
        else:
            announced = tuple(mask_to_vertices(c) for c in key)
            trace.append(AnnounceMove(announced))
            step = len(trace) - 1
            reveal = tuple(frozenset(c) for c in oracle(mask_to_vertices(state), announced))
            if not reveal or len(set(reveal)) != len(reveal) or not set(reveal) <= set(announced):
                raise OracleProtocolError(
                    f"step {step}: oracle reveal must be a nonempty subset of the announcement"
                )
            trace.append(RevealMove(reveal))
            window = state | vertices_to_mask(frozenset().union(*reveal))
            forces = _window_forces(masks, state, window)
            if not forces:
                raise OracleProtocolError(f"step {step}: reveal admits no force")
            # Closure mode records every in-window force, first found first;
            # single_force mode records the one force the player picks.
            while forces:
                if closure_mode:
                    u, t = forces[0]
                else:
                    u, t = min(forces, key=lambda f: (value(state | (1 << f[1])), f))
                trace.append(ForceMove(u, t))
                state |= 1 << t
                forces = _window_forces(masks, state, window) if closure_mode else None
    return Certificate(tokens=frozenset(tokens), trace=tuple(trace))


def solution_report(sol: GameSolution, cert: Certificate) -> dict:
    """JSON-ready report: {value, states_explored, q, rule3_mode, trace}."""
    return {
        "value": sol.value,
        "states_explored": sol.states_explored,
        "q": sol.q,
        "rule3_mode": sol.rule3_mode,
        "trace": format_certificate(cert).splitlines(),
    }
