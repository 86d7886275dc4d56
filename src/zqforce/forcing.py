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
`closure_with_forces` is the closure that also records the forces, for a
vertex set. It runs `certificates._close_marks`, the loop that
`certificate_from_tokens` builds its force sequence with, on a bytearray of
fill flags.
"""

from __future__ import annotations

from itertools import combinations, compress

from .certificates import _close_marks
from .errors import GraphValidationError, ScopeError, _echo
from .graphs import Graph, _vertex_flags

BRUTE_FORCE_CAP = 20

def vertices_to_mask(vertices) -> int:
    """The bitmask of vertex ids, each an int >= 0 (a bool is not)."""
    mask = 0
    for v in vertices:
        if type(v) is not int or v < 0:
            raise GraphValidationError(f"vertex {_echo(v)} is not a nonnegative int")
        mask |= 1 << v
    return mask


def _adjacency_masks(g: Graph) -> list:
    return [vertices_to_mask(g.adjacency[v]) for v in range(g.n)]


def _window_closure(masks, filled: int, window: int, check: int | None = None) -> int:
    """Forcing closure of the `filled` mask inside `window`: neighbors
    outside the window are ignored when counting a source's unfilled
    neighbors. The closure starts from the filled vertices in `check`, by
    default all of them; a caller may leave out any that cannot force."""
    # A filled vertex is checked again only when a neighbor gets filled: that
    # is the only way its count of unfilled window neighbors drops to one.
    if check is None:
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
    mark = _vertex_flags(g, filled)
    forces = _close_marks(g, mark)
    return frozenset(compress(range(g.n), mark)), forces


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
