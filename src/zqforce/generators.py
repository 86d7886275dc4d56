"""Seeded graph family generators.

Every generator is a pure function of (kind, params, seed): the same call
always yields the identical edge set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import graphs
from .errors import GraphValidationError, ResourceLimitError, _echo
from .graphs import Graph

@dataclass(frozen=True)
class FamilyParams:
    """Parameters for generate_family; fields unused by a kind are ignored.

    eta/k/l parameterize windmills (eta copies of K_k joined to l central
    vertices), path_lengths the arms of a generalized star, n the vertex
    count of the remaining kinds, blocks the block count of
    random_block_graph (randomized when omitted).
    """

    eta: int | None = None
    k: int | None = None
    l: int | None = None
    path_lengths: tuple | None = None
    n: int | None = None
    blocks: int | None = None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GraphValidationError(message)


def _check_size(n: int, m: int) -> None:
    """Refuse an instance above graphs.MAX_VERTICES or graphs.MAX_EDGES
    before its edge list is built."""
    if n > graphs.MAX_VERTICES:
        raise ResourceLimitError(f"vertex count {_echo(n)} exceeds the limit of {graphs.MAX_VERTICES}")
    if m > graphs.MAX_EDGES:
        raise ResourceLimitError(f"edge count {_echo(m)} exceeds the limit of {graphs.MAX_EDGES}")


def _path_edges(n: int, offset: int = 0):
    return [(offset + i, offset + i + 1) for i in range(n - 1)]


def _clique_edges(members) -> list:
    members = list(members)
    return [(members[i], members[j]) for i in range(len(members)) for j in range(i + 1, len(members))]


def _make_path(params: FamilyParams) -> Graph:
    _require(params.n is not None and params.n >= 1, "path requires n >= 1")
    _check_size(params.n, params.n - 1)
    return Graph.from_edges(params.n, _path_edges(params.n))


def _make_cycle(params: FamilyParams) -> Graph:
    _require(params.n is not None and params.n >= 3, "cycle requires n >= 3")
    _check_size(params.n, params.n)
    edges = _path_edges(params.n)
    edges.append((params.n - 1, 0))
    return Graph.from_edges(params.n, edges)


def _make_clique(params: FamilyParams) -> Graph:
    _require(params.n is not None and params.n >= 1, "clique requires n >= 1")
    _check_size(params.n, params.n * (params.n - 1) // 2)
    return Graph.from_edges(params.n, _clique_edges(range(params.n)))


def _make_generalized_star(params: FamilyParams) -> Graph:
    lengths = params.path_lengths
    _require(bool(lengths), "generalized_star requires nonempty path_lengths")
    _require(all(x >= 1 for x in lengths), "arm lengths must be >= 1")
    _check_size(1 + sum(lengths), sum(lengths))
    edges = []
    nxt = 1  # vertex 0 is the center
    for length in lengths:
        edges.append((0, nxt))
        edges.extend(_path_edges(length, offset=nxt))
        nxt += length
    return Graph.from_edges(nxt, edges)


def _make_windmill(params: FamilyParams, center_clique: bool) -> Graph:
    eta, k, l = params.eta, params.k, params.l
    _require(
        all(x is not None and x >= 1 for x in (eta, k, l)),
        "windmill requires eta, k, l >= 1",
    )
    n = eta * k + l
    _check_size(n, eta * (k * (k - 1) // 2 + k * l) + (l * (l - 1) // 2 if center_clique else 0))
    centers = range(eta * k, n)
    edges = []
    for copy in range(eta):
        members = range(copy * k, (copy + 1) * k)
        edges.extend(_clique_edges(members))
        for v in members:
            edges.extend((v, c) for c in centers)
    if center_clique:
        edges.extend(_clique_edges(centers))
    return Graph.from_edges(n, edges)


def _make_random_block_graph(params: FamilyParams, rng: random.Random) -> Graph:
    n = params.n
    _require(n is not None and n >= 3, "random_block_graph requires n >= 3")
    _check_size(n, n - 1)  # a connected graph has at least n - 1 edges
    max_blocks = (n - 1) // 2
    _require(max_blocks >= 1, "random_block_graph requires n >= 3")
    b = params.blocks if params.blocks is not None else rng.randint(1, max_blocks)
    _require(1 <= b <= max_blocks, f"block count must be in 1..{max_blocks} for n={n}")
    # Compose n-1 into b parts >= 2; part i + 1 is the size of block i.
    parts = [2] * b
    for _ in range(n - 1 - 2 * b):
        parts[rng.randrange(b)] += 1
    _check_size(n, sum(p * (p + 1) // 2 for p in parts))
    edges = []
    first = parts[0] + 1
    edges.extend(_clique_edges(range(first)))
    placed = first
    for extra in parts[1:]:
        anchor = rng.randrange(placed)
        members = [anchor] + list(range(placed, placed + extra))
        edges.extend(_clique_edges(members))
        placed += extra
    return Graph.from_edges(n, edges)


def _make_random_cactus(params: FamilyParams, rng: random.Random) -> Graph:
    n = params.n
    _require(n is not None and n >= 1, "random_cactus requires n >= 1")
    _check_size(n, 3 * (n - 1) // 2)  # a cactus has at most 3(n - 1)/2 edges
    edges = []
    placed = 1
    while placed < n:
        attach = rng.randrange(placed)
        budget = n - placed
        if budget >= 2 and rng.random() < 0.6:
            length = rng.randint(3, min(8, budget + 1))
            ring = [attach] + list(range(placed, placed + length - 1))
            edges.extend((ring[i], ring[i + 1]) for i in range(length - 1))
            edges.append((ring[-1], ring[0]))
            placed += length - 1
        else:
            edges.append((attach, placed))
            placed += 1
    return Graph.from_edges(n, edges)


_MAKERS = {
    "path": _make_path,
    "cycle": _make_cycle,
    "clique": _make_clique,
    "generalized_star": _make_generalized_star,
    "windmill_I": lambda params: _make_windmill(params, center_clique=True),
    "windmill_II": lambda params: _make_windmill(params, center_clique=False),
}
_RANDOM_MAKERS = {
    "random_block_graph": _make_random_block_graph,
    "random_cactus": _make_random_cactus,
}
FAMILY_KINDS = (*_MAKERS, *_RANDOM_MAKERS)


def generate_family(kind: str, params: FamilyParams, seed: int | None = None) -> Graph:
    """Build a named family instance; random kinds require a seed. An
    instance above graphs.MAX_VERTICES or graphs.MAX_EDGES raises
    ResourceLimitError before its edges are built."""
    if kind in _RANDOM_MAKERS:
        _require(seed is not None, f"{kind} requires a seed")
        return _RANDOM_MAKERS[kind](params, random.Random(seed))
    if kind not in _MAKERS:
        raise GraphValidationError(f"unknown family kind {_echo(kind)}; choose from {FAMILY_KINDS}")
    return _MAKERS[kind](params)
