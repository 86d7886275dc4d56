"""Span tracing installed from outside the package.

`Tracer.install` replaces each traced function by a wrapper that records a
span (name, start, end, parent span, job id). The replacement happens on
every `zqforce` module attribute that holds the function, so calls through
`zqforce.cli` and internal calls such as `is_block_graph -> find_blocks`
are both caught. `Tracer.restore` puts the originals back. Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# Functions traced in the process that runs the jobs, by defining module.
JOB_TARGETS = {
    "graphs": ("parse_edge_list", "Graph.from_edges", "find_blocks", "is_block_graph",
               "is_cactus", "connected_components"),
    "structured": ("block_graph_Z", "cactus_Z0"),
    "game": ("solve_zq", "extract_player_trace"),
    "forcing": ("closure_with_forces", "brute_force_Z"),
    "certificates": ("certificate_from_tokens", "check_certificate", "format_certificate"),
    "cli": ("detect_class", "main"),
}

# Functions traced in the harness while it builds the inputs.
SETUP_TARGETS = {"generators": ("generate_family",)}

_CERTIFICATE_SOURCES = ("certificates.certificate_from_tokens", "game.extract_player_trace")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "zqforce" or name.startswith("zqforce."))]


class Tracer:
    """Records spans and counts for the functions it is installed on."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job id]
        self.counts = Counter()
        self.job = None
        self._open = []
        self._patches = []  # (owner, attribute, original)

    def install(self, targets: dict) -> None:
        for module_name, functions in targets.items():
            module = importlib.import_module(f"zqforce.{module_name}")
            for qualname in functions:
                name = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, classmethod(self._wrap(name, original.__func__)))
                    self._patches.append((cls, attr, original))
                    continue
                original = getattr(module, qualname)
                wrapped = self._wrap(name, original)
                for owner in _package_modules():
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, attr, wrapped)
                            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans = self.spans
        open_spans = self._open
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else None, self.job]
            spans.append(span)
            open_spans.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if name == "game.solve_zq":
                counts["game.states_explored"] += result.states_explored
                counts["game.oracle_entries"] += len(result.oracle_response)
            elif name in _CERTIFICATE_SOURCES:
                counts["certificates.trace_moves"] += len(result.trace)
            return result

        return traced


def self_times(spans) -> tuple:
    """Per span name: summed self time (duration minus the duration of its
    direct children) and call count. Spans of one process never overlap
    except by nesting, so the children's durations are the covered part."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s = Counter()
    calls = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += end - start - child[i]
        calls[name] += 1
    return self_s, calls
