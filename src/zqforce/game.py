"""Exact Z_q via adversarial game search over filled-set states.

The game value V(F) of a filled set F is the minimum number of tokens the
player still has to spend against a worst-case oracle:

    V(V(G)) = 0
    V(F) = min over
        (a) 1 + V(F + v)          for every unfilled v            [token]
        (b) V(F + target)         for every applicable force      [force]
        (c) max over reveals L of the announcement's successors   [announce]

States are bitmasks, and the search answers bounded questions:
capped(F, k) = min(V(F), k), which tells whether V(F) < k and, if so, gives
V(F). A search of F with budget k keeps the best value found so far, which
starts at k:

    a token is scored with budget best - 1: 1 + V(F + v) beats best only if
    V(F + v) < best - 1;
    the search stops once best reaches a known lower bound on V(F).

At every q the search keeps the value of a state's first live
announcement, one with no dead reveal (below), in `combinations` order of
the components, and scores no other move there. Each reveal of a live
announcement admits a force, and the state R the forces reach holds F and
more, so V(R) <= V(F) (monotonicity, below). The oracle takes the
maximum over the reveals, so the announcement is worth at most V(F), and
announcing is one of the player's moves, so it is worth at least V(F).
The reveals are scored with the search's budget, and the first whose value
reaches it settles the state at the budget, even if a later reveal is
dead, since V(F) >= V(R). A state with no live announcement scores its
tokens. At q = 0 an announcement names one component and the oracle must
reveal all of it, so it has one reveal (see `structured.block_Z0`).

Two memos keep the answers: exact values, for searches that found a value
below their budget, and lower bounds "V(F) >= k" for those that found none.
A question is answered from them whenever it can be; only a budget above
the stored lower bound searches again.

Both memos are keyed by a canonical form of the forcing closure of F.
V(F) = V(closure(F)) holds one force at a time:

    a force is free, so V(F) <= V(F + t) for a force target t, and
    filling a vertex never hurts, so V(F + t) <= V(F) (monotonicity).

The rules do not say whether a reveal grants the forcing cascade inside
the revealed window W, F and the revealed components, or one force. In
closure mode the player reaches cl_W(F), the closure of F inside W; in
single_force mode the player picks an in-window force t and reaches F + t.
The values agree, so the search scores every reveal as closure mode does.
Let V and V' be the closure-mode and single-force values. Every move fills
a vertex, so induct on the unfilled count: assume V = V' on every proper
superset of F:

    a reveal is dead in both modes when it admits no in-window force, and
    tokens and forces are worth the same in both by the hypothesis;
    V <= V': cl_W(F) holds every F + t, so V(cl_W(F)) <= V(F + t) = V'(F + t);
    V' <= V when F has a live announcement A: V'(F) is at most the maximum
    over A's reveals of the minimum over t of V(F + t), which is at most
    V(F), since every F + t holds F and more;
    with no live announcement, both are the minimum over the same moves.

So the memos do not depend on the mode, which changes only how trace
replay plays a reveal (below).

Twins are vertices with equal open or equal closed neighbourhoods; the two
kinds of twin class never share a vertex. Swapping two twins is an
automorphism of the graph, and the game is stated in terms of the graph
alone, so the swap maps states, components, forces and reveals onto each
other and leaves V unchanged. The canonical form fills the lowest-indexed
members of each twin class first. It is forcing-closed too, since an
automorphism maps a closed set onto a closed set. The search scores a token
only on the lowest unfilled vertex of each twin class: a token on another
member of the class leads to the same canonical state.

Each solution also keeps a private raw memo from each state it has keyed,
an argument of capped() or a token successor, to its key, read before the
closure is computed: a successor is often reached again, from another state
or with another budget, and a dict lookup costs less than closing it again.
That memo lives as long as the solutions that share it (see below), so
trace replay and the oracle read it too; it is never returned and is
cleared whenever it reaches the memo limit.

The search scores no dominated token. If the key of F + v lies inside the
key of F + w, then V(F + v) >= V(F + w) by monotonicity, since each key has
the value of its state, so the token on v never beats the token on w. The
search keys the token successors in vertex order, through the raw memo,
scores the keys in decreasing size and skips one that lies inside a key it
has scored. Only keys that grew past their token are kept for the
inclusion test, since a key F + v holds no other token's key. A token
inside a key already found is not keyed at all: the key K of F + w is
closed and canonical and holds F, so a token v in K has key(F + v) inside
K, and the inclusion test would skip it. So no two keys are equal.

A solve can start warm from a solution `below` of the same graph, in either
mode, at a q no larger, because V_q(F) <= V_{q+1}(F) at every state: an
announcement legal at q + 1 contains one of q + 1 components that has no
dead reveal either, and whose reveals are among its own, so the oracle does
no better against it. Every nonzero exact value of `below` and each of its
bounds is therefore a lower bound at the larger q, and seeds the bounds
memo. Keys and the raw memo depend on the graph alone, so the warm solve
shares below's raw memo, adjacency masks and twin classes. A search from a
seeded floor stops as soon as a move attains it, so it can store fewer keys
of its own; the values it returns are those of a cold solve.

Optimal play for both sides is re-derived from the memos on demand by the
solution that holds them, which searches with a budget on a miss. At a
closed state the player's move is the first, in (value, kind, key) order,
whose value is V(F): announcements before tokens, then by key. Each
candidate is checked with budget V(F) + 1, so the choice is the one a full
value table would give. Every live announcement attains V(F), so the move
is the first live announcement in key order, or, where none is live, the
first token by vertex that attains it. Moves are picked at closed states
only; trace replay plays the forces of a non-closed state itself, lowest
(u, target) first, and after a reveal the in-window forces, or in
single_force mode the player's one pick. The oracle's reveal is scored by
the search's own announcement loop with a budget that cuts nothing, and is
the first reveal, in subset order, whose value is the maximum.

An announcement is discarded when some nonempty reveal admits no force in
the revealed subgraph: the oracle would pick that reveal and the state would
not change, so the move is a value-neutral self-loop. Announcing more than
q+1 components only enlarges the oracle's choice set and can never help the
player, so the search enumerates announcements of exactly q+1 components.
GameSolution's scorer, with `_window_forces` and forcing's
`_window_closure`, is the package's one statement of these rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .certificates import (
    AnnounceMove,
    Certificate,
    ForceMove,
    RevealMove,
    TokenMove,
)
from .errors import (
    GraphValidationError,
    OracleProtocolError,
    ResourceLimitError,
    _echo,
)
from .forcing import _adjacency_masks, _window_closure, vertices_to_mask
from .graphs import Graph, _vertex_flags

MODE_CLOSURE = "closure"
MODE_SINGLE_FORCE = "single_force"

DEFAULT_VERTEX_CAP = 20
# Bounds each solution's memos, read when the solution is built: its values
# and bounds together, which raise ResourceLimitError when full, and the
# raw-argument memo, which is cleared. About 70 B per values/bounds entry
# and 95 B per raw entry (tracemalloc, random_cactus n=20 seed 1 at q=2,
# 1,005 and 3,946 entries): ~1.1 GB and ~1.6 GB at the limit.
MEMO_LIMIT = 1 << 24


@dataclass(frozen=True)
class GameConfig:
    q: int
    rule3_mode: str = MODE_CLOSURE
    vertex_cap: int = DEFAULT_VERTEX_CAP

    def __post_init__(self):
        for name in ("q", "vertex_cap"):
            if type(value := getattr(self, name)) is not int:
                raise GraphValidationError(f"{name} must be an int (a bool is not), got {_echo(value)}")
        if self.q < 0:
            raise GraphValidationError("q must be nonnegative")
        if self.rule3_mode not in (MODE_CLOSURE, MODE_SINGLE_FORCE):
            raise GraphValidationError(f"unknown rule3_mode {_echo(self.rule3_mode)}")
        if not (1 <= self.vertex_cap <= 64):
            raise GraphValidationError("vertex_cap must be in 1..64")


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


def _twin_classes(masks) -> list:
    """Classes of two or more twins, vertices with equal open or equal
    closed neighbourhoods, as member lists in increasing order."""
    groups = {}
    for v, nbrs in enumerate(masks):
        groups.setdefault((False, nbrs), []).append(v)
        groups.setdefault((True, nbrs | 1 << v), []).append(v)
    return [members for members in groups.values() if len(members) > 1]


# Move kinds, numbered in tie-break order so that free moves come first.
_ANNOUNCE, _TOKEN = 0, 1


class GameSolution:
    """One solve of the game on `graph`: its value, its memos, and the one
    scorer of moves, which the search, trace replay and the oracle share.

    States and components are vertex bitmasks. Each memo key is the
    canonical form of a forcing-closed state (see the module docstring),
    and a state has the value of its key. values maps a key to its game
    value; bounds maps a key whose value was only ever shown to be at least
    k to that k. The two hold different keys, and states_explored counts
    both. A solution built from `below` (see the module docstring) starts
    with below's nonzero values and its bounds as its bounds, and shares
    below's raw memo: states_explored and MEMO_LIMIT count those seeded
    keys too, whether or not the search reads them. value is None until
    solve_zq sets it. Moves and reveals are not stored: extract_player_trace
    and adversarial_oracle derive them on demand from the memos, searching
    on and adding to them where a memo falls short. oracle_response keeps
    the reveals the adversarial oracle has been asked for, keyed by (state,
    announced component masks); it is empty when solve_zq returns.

    The private scorer holds no reference to its own methods, so a dropped
    solution is freed by reference counting:
      _key(state): the canonical key of state's closure, stored in the raw
        memo, which maps each state the scorer has keyed to its key and is
        cleared when it reaches MEMO_LIMIT entries. Callers read the raw
        memo first and call _key on a miss;
      _capped(state, budget): min(V(state), budget), which is
        _keyed(state's key, budget);
      _keyed(key, budget): min(V(key), budget), answered from the memos or
        searched and memoized there. The search settles a state at its
        first live announcement; where none is live, it keys the successor of
        each token that lies inside no key it has found, and scores none
        whose key lies inside one it has scored;
      _best(state) -> (value, kind, key): the optimal move at a
        forcing-closed state. Ties break by kind (announce, token), then by
        key: the component masks for an announcement, (v,) for a token;
      _worst_reveal(state, combo): the first maximal reveal of the
        announcement in _announce's subset order, read off the values
        _announce scores with a budget that cuts nothing, or None if some
        reveal is dead.
    A search that would add a key to memos already holding MEMO_LIMIT keys
    between them raises ResourceLimitError. MEMO_LIMIT is read when the
    solution is built.
    """

    __slots__ = (
        "value", "values", "bounds", "q", "rule3_mode", "graph", "oracle_response",
        "_raw", "_memo_limit", "_masks", "_full", "_exact", "_lone", "_classes",
    )

    def __init__(self, g: Graph, cfg: GameConfig, below: GameSolution | None = None):
        self.value = None
        self.graph = g
        self.q = cfg.q
        self.rule3_mode = cfg.rule3_mode
        self._full = (1 << g.n) - 1
        self.values = {self._full: 0}
        self.oracle_response = {}
        self._memo_limit = MEMO_LIMIT
        self._exact = g.n + 1  # above every value: no budget bites
        if below is None:
            self.bounds = {}
            self._raw = {}
            self._masks = _adjacency_masks(g)
            # Per twin class, its mask and the masks of its lowest 0, 1, ... members.
            self._classes = []
            self._lone = self._full
            for members in _twin_classes(self._masks):
                prefix = [0]
                for v in members:
                    prefix.append(prefix[-1] | 1 << v)
                self._classes.append((prefix[-1], prefix))
                self._lone &= ~prefix[-1]
        else:
            if below.graph != g or below.q > cfg.q:
                raise GraphValidationError(
                    f"a solve at q={cfg.q} can start only from a solution of the same graph at a q no larger;"
                    f" got q={below.q}"
                )
            self.bounds = {key: val for key, val in below.values.items() if val}
            self.bounds.update(below.bounds)
            self._raw = below._raw
            self._masks, self._classes, self._lone = below._masks, below._classes, below._lone

    @property
    def states_explored(self) -> int:
        return len(self.values) + len(self.bounds)

    def _key(self, filled: int, check: int | None = None) -> int:
        closed = _window_closure(self._masks, filled, self._full, check)
        key = closed & self._lone
        for members, prefix in self._classes:
            key |= prefix[(closed & members).bit_count()]
        if len(self._raw) >= self._memo_limit:
            self._raw.clear()
        self._raw[filled] = key
        return key

    def _capped(self, filled: int, budget: int) -> int:
        key = self._raw.get(filled)
        if key is None:
            key = self._key(filled)
        return self._keyed(key, budget)

    def _keyed(self, key: int, budget: int) -> int:
        val = self.values.get(key)
        if val is not None:
            return val if val < budget else budget
        floor = self.bounds.get(key, 0)
        if floor >= budget:
            return budget
        val = self._search(key, budget, floor)
        if not floor and len(self.values) + len(self.bounds) >= self._memo_limit:
            raise ResourceLimitError(
                f"memo limit {self._memo_limit} reached; solve a smaller graph or raise zqforce.game.MEMO_LIMIT"
            )
        if val < budget:
            self.values[key] = val
            if floor:
                del self.bounds[key]
        else:
            self.bounds[key] = budget
        return val

    def _search(self, filled: int, budget: int, floor: int) -> int:
        """min(V(filled), budget) at a canonical closed state other than the
        full one, where V(filled) >= floor is known."""
        unfilled = self._full & ~filled

        # Rule 3: announcements of exactly q+1 unfilled components. The
        # first live one attains V(filled) (see the module docstring); at
        # q = 0 it has one reveal, the announced component.
        if unfilled.bit_count() > self.q:
            comps = _mask_components(self._masks, unfilled)
            if not self.q:
                for comp in comps:
                    res = self._reveal(filled, comp, budget)
                    if res >= 0:
                        return res
            elif len(comps) > self.q:
                cache = {}
                for combo in combinations(comps, self.q + 1):
                    res = self._announce(filled, combo, budget, cache)
                    if res >= 0:
                        return res

        # Rule 1: tokens, worth at least 1, on the lowest unfilled twin only,
        # keyed only outside the keys found so far, scored largest key first,
        # and none whose key lies inside a scored key that grew past its
        # token (see the module docstring).
        best = budget
        stop = max(floor, 1)
        if best <= stop:
            return best
        tokens = unfilled
        for members, _ in self._classes:
            twins = unfilled & members
            tokens ^= twins & (twins - 1)
        raw = self._raw
        keys = []
        while tokens:
            low = tokens & -tokens
            key = raw.get(filled | low)
            if key is None:
                # filled is closed, so only the token and its filled
                # neighbours can force.
                key = self._key(filled | low, low | self._masks[low.bit_length() - 1] & filled)
            # key holds low, and every token inside it has a key inside it.
            tokens &= ~key
            keys.append(key)
        keys.sort(key=int.bit_count, reverse=True)
        size = filled.bit_count() + 1
        scored = []
        for key in keys:
            for other in scored:
                if key | other == other:
                    break
            else:
                val = 1 + self._keyed(key, best - 1)
                if val < best:
                    best = val
                    if best <= stop:
                        return best
                if key.bit_count() > size:
                    scored.append(key)
        return best

    def _announce(self, filled: int, combo: tuple, budget: int, cache: dict) -> int:
        """min(V(filled), budget) read off a live announcement's reveals, or
        -1 if some reveal is dead. Reveals are scored in subset order, each
        union built as it is needed: unions[s] is the union of the combo[j]
        whose bit j is set in s. The first reveal that reaches the budget
        ends the scoring, since V(filled) is at least its value, even if a
        later reveal is dead. `cache` maps a revealed union to its _reveal()
        result and is shared by the announcements of one state, which all
        score with the same budget."""
        worst = 0
        unions = [0]
        for comp in combo:
            for i in range(len(unions)):
                union = unions[i] | comp
                res = cache.get(union)
                if res is None:
                    res = cache[union] = self._reveal(filled, union, budget)
                if res < 0:
                    return -1
                if res >= budget:
                    return budget
                if res > worst:
                    worst = res
                unions.append(union)
        return worst

    def _reveal(self, filled: int, union: int, budget: int) -> int:
        """min(V(closure inside the revealed window), budget) in either
        rule-3 mode; -1 if the reveal admits no force (a dead reveal)."""
        closed = _window_closure(self._masks, filled, filled | union)
        if closed == filled:
            return -1
        return self._capped(closed, budget)

    def _best(self, filled: int) -> tuple:
        """The first move at a closed state, in (value, kind, key) order,
        whose value is the state's; a closed state has no force move. That
        is the first live announcement in key order, since each attains the
        state's value (see the module docstring), or else the first token
        that does."""
        target = self._capped(filled, self._exact)
        unfilled = self._full & ~filled
        if unfilled.bit_count() > self.q:
            comps = _mask_components(self._masks, unfilled)
            if len(comps) > self.q:
                cache = {}
                for combo in sorted(combinations(comps, self.q + 1)):
                    if self._announce(filled, combo, target + 1, cache) >= 0:
                        return target, _ANNOUNCE, combo
        m = unfilled
        while m:
            low = m & -m
            m ^= low
            if self._capped(filled | low, target) == target - 1:
                return target, _TOKEN, (low.bit_length() - 1,)
        raise AssertionError("no move attains the state's value")

    def _worst_reveal(self, filled: int, combo: tuple):
        # With no budget that bites, _announce scores every reveal into
        # `reveals` in subset order, so entry i holds subset i + 1.
        reveals = {}
        worst = self._announce(filled, combo, self._exact, reveals)
        if worst < 0:
            return None
        sub = list(reveals.values()).index(worst) + 1
        return tuple(c for j, c in enumerate(combo) if sub >> j & 1)


def solve_zq(g: Graph, cfg: GameConfig, below: GameSolution | None = None) -> GameSolution:
    """Exact game value and the memos of the search behind it.

    g may be disconnected: the announcement rule counts the unfilled
    components of the whole graph, so it is one game, not one per component.
    Optimal moves for both sides are re-derived from the memos on demand by
    `extract_player_trace` and `adversarial_oracle`. `below`, a solution of
    g in either rule-3 mode at a q no larger than cfg.q, seeds the search
    (see the module docstring); any other `below` raises
    GraphValidationError.
    """
    n = g.n
    if n > cfg.vertex_cap:
        raise ResourceLimitError(f"n={n} exceeds vertex cap {cfg.vertex_cap}; raise the cap to allow this")

    sol = GameSolution(g, cfg, below)
    sol.value = sol._capped(0, n + 1)
    return sol


def adversarial_oracle(sol: GameSolution):
    """The solver's worst-case oracle as a reveal policy.

    Each reveal is derived from the memos when first asked for and kept in
    `sol.oracle_response`. The policy answers at any forcing-closed state,
    where the player's optimal play may announce (elsewhere a force is its
    best move), for an announcement of exactly q+1 distinct unfilled
    components with no dead reveal; any other announcement, and a filled
    set or announcement that names anything but a vertex 0..n-1, raise
    OracleProtocolError.
    """

    def policy(filled, announcement):
        # The ids are checked against n before any mask is built: 1 << v
        # for a huge v would take time and memory before the refusal.
        try:
            for vertices in (filled, *announcement):
                _vertex_flags(sol.graph, vertices)
        except GraphValidationError:  # a vertex that is not an int in 0..n-1
            raise OracleProtocolError(
                f"filled set or announcement names a vertex outside 0..{sol.graph.n - 1}"
            ) from None
        state = vertices_to_mask(filled)
        announced = [vertices_to_mask(c) for c in announcement]
        combo = tuple(c for c in _mask_components(sol._masks, sol._full & ~state) if c in announced)
        key = (state, combo)
        # combo holds each unfilled component at most once, so equal lengths
        # rule out repeated entries and non-components alike. A stored key
        # passed the closure check when it was stored.
        reveal = None
        if len(combo) == len(announced) == sol.q + 1:
            reveal = sol.oracle_response.get(key)
            if reveal is None and _window_closure(sol._masks, state, sol._full) == state:
                reveal = sol._worst_reveal(state, combo)
                if reveal is not None:
                    sol.oracle_response[key] = reveal
        if reveal is None:
            raise OracleProtocolError(
                "announcement is not q+1 distinct unfilled components of a forcing-closed state"
                " with no dead reveal"
            )
        return tuple(mask_to_vertices(c) for c in reveal)

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
    masks = sol._masks
    full = sol._full
    state = 0
    window = full  # the whole graph, or the last reveal's window while it has forces
    trace = []
    while state != full:
        forces = _window_forces(masks, state, window)
        if forces:
            # Rule 2: a force keeps the closure and so the value. Play the
            # first found, the lowest (u, target); just after a reveal in
            # single_force mode, play the one force the player picks, the
            # lowest (value, (u, target)), and leave the window.
            u, t = forces[0]
            if sol.rule3_mode == MODE_SINGLE_FORCE and isinstance(trace[-1], RevealMove):
                budget = sol._exact
                for f in forces:
                    val = sol._capped(state | 1 << f[1], budget)
                    if val < budget:
                        budget, (u, t) = val, f
                window = full
            trace.append(ForceMove(u, t))
            state |= 1 << t
        elif window != full:
            window = full
        else:
            _, kind, key = sol._best(state)
            if kind == _TOKEN:
                v = key[0]
                trace.append(TokenMove(v))
                state |= 1 << v
            else:
                announced = tuple(mask_to_vertices(c) for c in key)
                trace.append(AnnounceMove(announced))
                reveal = tuple(frozenset(c) for c in oracle(mask_to_vertices(state), announced))
                # _best announces nothing with a dead reveal, so a legal reveal admits a force.
                if not reveal or len(set(reveal)) != len(reveal) or not set(reveal) <= set(announced):
                    raise OracleProtocolError(
                        f"step {len(trace) - 1}: oracle reveal must be a nonempty subset of the announcement"
                    )
                trace.append(RevealMove(reveal))
                window = state | vertices_to_mask(frozenset().union(*reveal))
    return Certificate(tuple(trace))
