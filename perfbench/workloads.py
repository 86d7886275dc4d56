"""The benchmark's workloads: seeded instances, job lists and reference values.

A workload is a fixed list of job *positions*. Every position fixes what
drives the cost of a job (command, graph family, size, q, rule-3 mode); the
run seed only chooses where the vertices and blocks fall. So two seeds give
different graphs of the same load, and batch times stay comparable across
seeds.

Reference values come from two places:

* closed forms, for instances built from any seed: a connected block graph
  whose blocks are cliques of size >= 3 has Z_q = Z = n - blocks for every
  q, a cactus has Z_0 = cycles + 1 = m - n + 2, and a cycle has Z_q = 2;
* `references.json`, for the small instances the exact-game workloads use,
  which have no closed form. Those positions draw from a pool of instance
  seeds 1..POOL_SIZE whose values `record_references.py` computed and
  cross-checked on the seed commit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from zqforce import generators
from zqforce.generators import FamilyParams
from zqforce.graphs import Graph, format_edge_list

HERE = Path(__file__).resolve().parent
REFERENCES_PATH = HERE / "references.json"

POOL_SIZE = {"full": 16, "tiny": 4}


@dataclass(frozen=True)
class Position:
    """One job slot of a workload's batch."""

    command: str  # "compute" or "verify"
    family: str  # generate_family kind, or "sparse" for a random connected graph
    n: int
    q: int | None = 0  # compute only; verify runs --q-list 0,1,2,n
    rule3: str = "closure"
    blocks: int | None = None  # random_block_graph only
    method: str | None = None  # --method passed to compute; None means auto
    expect_method: str | None = None  # method line compute must report
    certificate: bool = False  # pass --trace and replay the certificate
    pooled: bool = False  # instance seed drawn from the recorded pool


@dataclass(frozen=True)
class Workload:
    name: str
    positions: dict  # scale -> tuple of Position


def _exact(family, n, q, rule3="closure"):
    return Position(
        "compute", family, n, q, rule3, method="exact", expect_method="exact",
        certificate=True, pooled=family != "cycle",
    )


def _verify_positions(counts):
    """counts maps n to the number of graphs of that size per family."""
    return tuple(
        Position(
            "verify", family, n, q=None,
            blocks=min(3, (n - 1) // 2) if family == "random_block_graph" else None,
            pooled=True,
        )
        for family in ("sparse", "random_cactus", "random_block_graph")
        for n, count in counts.items()
        for _ in range(count)
    )


WORKLOADS = {
    w.name: w
    for w in (
        # Parse, Graph.from_edges, block decomposition and certificate
        # build/check at scale; bypasses the game solver.
        Workload("block-1e5", {
            "full": (Position("compute", "random_block_graph", 100_000, blocks=20_000,
                              expect_method="block", certificate=True),),
            "tiny": (Position("compute", "random_block_graph", 2_000, blocks=400,
                              expect_method="block", certificate=True),),
        }),
        # The O(n^2) all-roots cactus DP dominates; little graph work.
        Workload("cactus-dp", {
            "full": tuple(Position("compute", "random_cactus", n, expect_method="cactus")
                          for n in (600, 900, 1200)),
            "tiny": tuple(Position("compute", "random_cactus", n, expect_method="cactus")
                          for n in (60, 90, 120)),
        }),
        # Full 2^n state space of the exact minimax game, with trace
        # extraction; cycles and cacti load the oracle table. Two of the
        # nine positions use --rule3 single. Listed by decreasing cost: the
        # three middle ones are the same cycle, which no seed changes, so
        # the median job is the middle of those jobs and job_s_p50 neither
        # moves with the draw nor rests on one timing.
        Workload("exact-16", {
            "full": (
                _exact("cycle", 16, 0),
                _exact("sparse", 14, 2),
                _exact("random_cactus", 14, 1),
                *(_exact("cycle", 13, 2),) * 3,
                _exact("sparse", 13, 1, "single"),
                _exact("sparse", 13, 0),
                _exact("random_cactus", 13, 0, "single"),
            ),
            "tiny": (
                _exact("cycle", 9, 0),
                _exact("random_cactus", 8, 1),
                _exact("sparse", 8, 2),
                _exact("sparse", 8, 1, "single"),
            ),
        }),
        # Many tiny solves at four q values, plus brute force Z; the only
        # workload on the verify path. Job time roughly doubles per added
        # vertex; the size mix puts the median job inside the n=10
        # cactus/sparse group instead of in the gap between two sizes, so
        # job_s_p50 does not jump with the draw.
        Workload("verify-small", {
            "full": _verify_positions({8: 2, 9: 2, 10: 6, 11: 6}),
            "tiny": _verify_positions({6: 1, 7: 1}),
        }),
    )
}


@dataclass
class Instance:
    key: str
    family: str
    graph: Graph
    blocks: int | None

    def info(self) -> dict:
        g = self.graph
        out = {"family": self.family, "n": g.n, "m": g.m}
        if self.family == "random_block_graph":
            out["blocks"] = self.blocks
        elif self.family in ("random_cactus", "cycle"):
            out["cycles"] = g.m - g.n + 1
        return out


def sparse_connected(n: int, seed: int) -> Graph:
    """Random spanning tree plus n // 4 extra edges."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], rng.choice(order[:i])))) for i in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def instance_key(family: str, n: int, seed: int | None, blocks: int | None = None) -> str:
    key = f"{family}:n={n}"
    if blocks is not None:
        key += f":blocks={blocks}"
    if seed is not None:
        key += f":seed={seed}"
    return key


def build_instance(pos: Position, seed: int | None) -> Instance:
    if pos.family == "sparse":
        g = sparse_connected(pos.n, seed)
    else:
        # Looked up on the module so that a traced run sees the call.
        g = generators.generate_family(pos.family, FamilyParams(n=pos.n, blocks=pos.blocks), seed=seed)
    return Instance(instance_key(pos.family, pos.n, seed, pos.blocks), pos.family, g, pos.blocks)


def q_values(pos: Position, g: Graph) -> tuple:
    return (0, 1, 2, g.n) if pos.command == "verify" else (pos.q,)


def load_references() -> dict:
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_value(inst: Instance, pos: Position, q: int, references: dict) -> int:
    """The value a correct run reports for this instance at q."""
    g = inst.graph
    if inst.family == "random_block_graph":
        return g.n - inst.blocks
    if inst.family == "cycle":
        return 2
    if inst.family == "random_cactus" and q == 0:
        return g.m - g.n + 2
    return references[inst.key][f"{q}/{pos.rule3}"]


def instance_seeds(name: str, scale: str, seed: int, round_index: int) -> list:
    """Instance seed per position for one round. Pooled positions sample the
    recorded pool without repeats inside a round."""
    rng = random.Random(f"{name}/{scale}/{seed}/{round_index}")
    pool = list(range(1, POOL_SIZE[scale] + 1))
    unused = {}
    seeds = []
    for pos in WORKLOADS[name].positions[scale]:
        if pos.family == "cycle":
            seeds.append(None)
        elif pos.pooled:
            slot = (pos.family, pos.n)
            if slot not in unused:
                unused[slot] = rng.sample(pool, len(pool))
            seeds.append(unused[slot].pop())
        else:
            seeds.append(rng.randrange(1, 2**31))
    return seeds


@dataclass
class Job:
    position: Position
    instance: Instance
    argv: list
    cert_path: Path | None


def build_jobs(name: str, scale: str, seed: int, round_index: int, workdir: Path) -> list:
    """Generate the round's graphs, write them as edge lists, and return the
    jobs that read them."""
    jobs = []
    positions = WORKLOADS[name].positions[scale]
    for i, (pos, inst_seed) in enumerate(zip(positions, instance_seeds(name, scale, seed, round_index))):
        inst = build_instance(pos, inst_seed)
        graph_path = workdir / f"g{i}.el"
        graph_path.write_text(format_edge_list(inst.graph), encoding="utf-8")
        argv = [pos.command, "--file", str(graph_path)]
        cert_path = None
        if pos.command == "compute":
            argv += ["--q", str(pos.q)]
            if pos.method:
                argv += ["--method", pos.method]
            if pos.rule3 != "closure":
                argv += ["--rule3", pos.rule3]
            if pos.certificate:
                cert_path = workdir / f"g{i}.cert"
                argv += ["--trace", str(cert_path)]
        else:
            argv += ["--q-list", ",".join(map(str, q_values(pos, inst.graph)))]
        jobs.append(Job(pos, inst, argv, cert_path))
    return jobs
