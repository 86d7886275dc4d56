"""Standard zero forcing: the forcing closure, as a set with one force
sequence that realizes it and as a bitmask, and `brute_force_Z`, the
reference zero forcing number Z that the tests and perfbench check against.

A filled vertex with a unique unfilled neighbor forces that neighbor; the
closure iterates this to a fixed point. The closure is confluent, so the
resulting set does not depend on force order. A set is zero forcing when
its closure is every vertex.

`_window_closure` is the bitmask closure, restricted to a window of
vertices; with the whole vertex set as the window it is the plain closure.
It is the hot loop of the exact game search and of `brute_force_Z`.
`_close_marks` is the closure that also records the forces, which
certificates need. It fills a bytearray of fill flags in place and counts
unfilled neighbors from the unfilled side, so its set-up costs the
adjacency of the unfilled vertices only; `closure_with_forces` wraps it for
a vertex set.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain, combinations, compress, repeat

from .certificates import ForceMove
from .errors import ScopeError
from .graphs import Graph, _check_vertex_subset

BRUTE_FORCE_CAP = 20

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # a fill mark to an unfilled mark


def vertices_to_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _adjacency_masks(g: Graph) -> list:
    return [vertices_to_mask(g.adjacency[v]) for v in range(g.n)]


def _window_closure(masks, filled: int, window: int) -> int:
    """Forcing closure of the `filled` mask inside `window`: neighbors
    outside the window are ignored when counting a source's unfilled
    neighbors."""
    # A filled vertex is checked again only when a neighbor gets filled: that
    # is the only way its count of unfilled window neighbors drops to one.
    check = filled
    while check:
        low = check & -check
        check ^= low
        cand = masks[low.bit_length() - 1] & window & ~filled
        if cand and not (cand & (cand - 1)):
            filled |= cand
            check |= cand | (masks[cand.bit_length() - 1] & filled)
    return filled


def closure_with_forces(g: Graph, filled) -> tuple:
    """Forcing closure plus one legal force sequence (ForceMoves) that
    realizes it, for a set of vertices of g."""
    filled = frozenset(filled)
    _check_vertex_subset(g, filled)
    mark = bytearray(g.n)
    for v in filled:
        mark[v] = 1
    forces = _close_marks(g, mark)
    return frozenset(compress(range(g.n), mark)), forces


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
    forces = []
    while queue:
        u = queue.popleft()
        if unfilled_count[u] != 1:
            continue  # stale entry
        t = next(w for w in adjacency[u] if not mark[w])
        forces.append(ForceMove(u, t))
        mark[t] = 1
        if unfilled_count[t] == 1:
            queue.append(t)
        for w in adjacency[t]:
            unfilled_count[w] -= 1
            if mark[w] and unfilled_count[w] == 1:
                queue.append(w)
    return forces


def brute_force_Z(g: Graph) -> tuple:
    """Exhaustive zero forcing number: smallest k admitting a zero forcing
    set of size k, with the lexicographically first witness of that size.

    Subsets are enumerated by increasing size with no structural pruning,
    and each is tested with the bitmask closure `_window_closure`;
    BRUTE_FORCE_CAP keeps the runtime bounded.
    """
    if g.n > BRUTE_FORCE_CAP:
        raise ScopeError(f"brute_force_Z refused: n={g.n} exceeds cap {BRUTE_FORCE_CAP}")
    masks = _adjacency_masks(g)
    full = (1 << g.n) - 1
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if _window_closure(masks, vertices_to_mask(combo), full) == full:
                return k, frozenset(combo)
    raise AssertionError("the full vertex set is always a zero forcing set")
