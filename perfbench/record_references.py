"""Recompute `references.json`: the Z_q values of every pooled instance.

    python3 perfbench/record_references.py

For each pooled position of every workload and scale, and each instance
seed in its pool, the exact game solver computes the values the benchmark
compares against. Each value is cross-checked before it is written: values
at the closure rule are nondecreasing in q and never exceed the brute-force
zero forcing number, and they equal the closed forms where one applies
(block graphs, cycles, and cacti at q = 0). Run it only on a commit whose
values are trusted; a benchmark run never writes this file.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    POOL_SIZE,
    REFERENCES_PATH,
    WORKLOADS,
    build_instance,
    reference_value,
)
from zqforce.forcing import brute_force_Z  # noqa: E402
from zqforce.game import GameConfig, solve_zq  # noqa: E402


def needed() -> dict:
    """(family, n, blocks, instance seed) -> set of (q, rule3) to compute,
    where q None stands for q = n."""
    wanted = {}
    for workload in WORKLOADS.values():
        for scale, positions in workload.positions.items():
            for pos in positions:
                if not pos.pooled:
                    continue
                for seed in range(1, POOL_SIZE[scale] + 1):
                    combos = wanted.setdefault((pos.family, pos.n, pos.blocks, seed), set())
                    if pos.command == "verify":
                        combos.update({(0, "closure"), (1, "closure"), (2, "closure"), (None, "closure")})
                    else:
                        combos.update({(pos.q, pos.rule3), (0, "closure")})
    return wanted


def main() -> int:
    references = {}
    for (family, n, blocks, seed), combos in sorted(needed().items(), key=str):
        sample = next(p for w in WORKLOADS.values() for ps in w.positions.values() for p in ps
                      if (p.family, p.n, p.blocks) == (family, n, blocks))
        inst = build_instance(sample, seed)
        g = inst.graph
        values = {}
        for q, rule3 in sorted(combos, key=lambda c: (c[1], g.n if c[0] is None else c[0])):
            q = g.n if q is None else q
            mode = "closure" if rule3 == "closure" else "single_force"
            values[f"{q}/{rule3}"] = solve_zq(g, GameConfig(q=q, rule3_mode=mode)).value
        closure = [values[k] for k in sorted(values, key=lambda k: int(k.split("/")[0]))
                   if k.endswith("/closure")]
        z, _ = brute_force_Z(g)
        if closure != sorted(closure) or max(closure) > z:
            raise SystemExit(f"{inst.key}: values {values} break monotonicity or exceed Z={z}")
        for key, value in values.items():
            q, rule3 = key.split("/")
            if rule3 != "closure":
                continue
            if family in ("random_block_graph", "cycle") or (family == "random_cactus" and q == "0"):
                formula = reference_value(inst, sample, int(q), {})
                if formula != value:
                    raise SystemExit(f"{inst.key}: q={q} gives {value}, closed form {formula}")
        references[inst.key] = values
        print(inst.key, values, flush=True)
    REFERENCES_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(references)} instances to {REFERENCES_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
