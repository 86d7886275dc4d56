"""Command-line front end: solver dispatch, cross-verification and strategy
printing.

Exit codes: 0 success, 1 internal or write error, 2 parse/validation,
3 scope or cap refusal, 4 cross-method disagreement.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from dataclasses import asdict
from functools import cache, partial
from itertools import combinations, islice

from . import closed_forms
from .certificates import (
    AnnounceMove,
    ForceMove,
    TokenMove,
    certificate_from_tokens,
    certificate_lines,
    check_certificate,
    format_certificate,
)
from .errors import (
    EdgeListParseError,
    GraphValidationError,
    ResourceLimitError,
    ScopeError,
    VerificationMismatch,
    ZqError,
    _echo,
)
from .game import (
    DEFAULT_VERTEX_CAP,
    MODE_CLOSURE,
    MODE_SINGLE_FORCE,
    GameConfig,
    extract_player_trace,
    solve_zq,
)
from .generators import FAMILY_KINDS, FamilyParams, generate_family
from .graphs import (
    MAX_EDGES,
    Graph,
    is_block_graph,
    is_cactus,
    is_connected,
    parse_edge_list,
)
from .structured import block_graph_Z, block_Z0, cactus_Z0

_FAMILY_ALIASES = {
    **{kind: kind for kind in FAMILY_KINDS},
    "star": "generalized_star",
    "windmill1": "windmill_I",
    "windmill2": "windmill_II",
}

# Z_q(family params, q) by family kind; a ScopeError means the closed form
# does not cover these parameters, and the coverage rule drops it.
_CLOSED_FORMS = {
    "generalized_star": lambda p, q: closed_forms.star_Zq(p.path_lengths, q),
    "windmill_I": lambda p, q: closed_forms.windmill_I_Zq(p.eta, p.k, p.l, q),
    "windmill_II": lambda p, q: closed_forms.windmill_II_Zq(p.eta, p.k, p.l, q),
}

METHODS = ("auto", "exact")

# Largest --file input read, in bytes: 64 per edge line at MAX_EDGES lines,
# where a plain line at the limits ("2097151 2097150\n") has at most 16. A
# larger or endless input is refused after MAX_FILE_BYTES + 1 bytes.
MAX_FILE_BYTES = 64 * MAX_EDGES
# Bytes read at a time; each read allocates this much before it fills it.
_READ_CHUNK = 1 << 20

# Certificate lines --trace joins into one write: few enough that the text
# stays streamed and adds nothing measurable to peak memory.
_TRACE_CHUNK = 512


def detect_class(g: Graph, block, cactus) -> str:
    if not is_connected(g):
        return "disconnected"
    tags = []
    if block():
        tags.append("block-graph")
    if cactus():
        tags.append("cactus")
    return "+".join(tags) if tags else "general"


def _parse_int_list(text: str, flag: str) -> list:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise GraphValidationError(f"{flag} must be comma-separated integers, got {_echo(text)}") from None


def _game_config(args, q: int) -> GameConfig:
    """Exact-solver settings of a command that replays a play (compute,
    strategy); refuses a negative q or a --cap outside 1..64 (exit 2)."""
    mode = MODE_CLOSURE if args.rule3 == "closure" else MODE_SINGLE_FORCE
    return GameConfig(q=q, rule3_mode=mode, vertex_cap=args.cap)


def _family_params(args) -> FamilyParams:
    arms = tuple(_parse_int_list(args.arms, "--arms")) if args.arms else None
    return FamilyParams(
        eta=args.eta,
        k=args.k,
        l=args.l,
        path_lengths=arms,
        n=args.n,
        blocks=args.blocks,
    )


def _read_text(path: str) -> str:
    """The text of the file at path as text mode reads it, UTF-8 with CRLF
    and CR line ends turned into LF, but read a chunk at a time, so that an
    input over MAX_FILE_BYTES raises ResourceLimitError before memory runs
    out. The whole file is decoded in one call."""
    chunks = []
    size = 0
    with open(path, "rb") as fh:
        while size <= MAX_FILE_BYTES:
            chunk = fh.read(min(_READ_CHUNK, MAX_FILE_BYTES + 1 - size))
            if not chunk:
                break
            chunks.append(chunk)
            size += len(chunk)
    if size > MAX_FILE_BYTES:
        raise ResourceLimitError(f"{path} exceeds the input limit of {MAX_FILE_BYTES} bytes")
    data = b"".join(chunks)  # a file of one chunk is not copied
    del chunks  # freed before the text is decoded beside data
    text = data.decode("utf-8")
    if "\r" in text:  # searching a plain text for "\r\n" takes longer than reading it
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_graph(args):
    """Returns (graph, source string, closed form or None, params dict); the
    closed form is the family's, bound to its parameters, as a function of q."""
    if args.file and args.family:
        raise GraphValidationError("give either --file or --family, not both")
    if args.file:
        try:
            text = _read_text(args.file)
        except UnicodeDecodeError as exc:
            # _read_text decodes the whole file in one call, so exc.object is
            # all of it; lines are numbered as parse_edge_list numbers them.
            lineno = len((exc.object[: exc.start].decode("utf-8") + ".").splitlines())
            raise EdgeListParseError(lineno, f"not UTF-8: byte 0x{exc.object[exc.start]:02x}") from None
        except OSError as exc:
            raise GraphValidationError(f"cannot read {args.file}: {exc.strerror}") from None
        return parse_edge_list(text), args.file, None, None
    if args.family:
        kind = _FAMILY_ALIASES.get(args.family)
        if kind is None:
            raise GraphValidationError(f"unknown family {_echo(args.family)}")
        params = _family_params(args)
        g = generate_family(kind, params, seed=args.seed)
        form = _CLOSED_FORMS.get(kind)
        shown = {k: v for k, v in asdict(params).items() if v is not None}
        if args.seed is not None:
            shown["seed"] = args.seed
        return g, f"family:{kind}", form and partial(form, params), shown
    raise GraphValidationError("an input graph is required: --file or --family")


def _exact(g: Graph, cfg: GameConfig, below=None):
    """Z_q(g) by the exact game, seeded by below, an exact solution of g at a
    smaller q: (value, certificate maker, solution)."""
    sol = solve_zq(g, cfg, below)
    return sol.value, lambda: extract_player_trace(sol), sol


def _coverage(g: Graph, form):
    """The coverage rule of g: routes(cfg, below=None) yields, lazily and in
    this order, every method whose value is Z_q(g) at q = cfg.q, as
    (method, value, certificate maker or None, solution or None):

    - formula, when form, the family's closed form as a function of q (None
      for a file input), covers q;
    - block, when every block of g is a clique with at least three vertices;
    - cactus, at q = 0 when g is a cactus;
    - exact, when n <= cfg.vertex_cap, seeded by below;
    - fold, at q = 0 when every block of g is a bridge, a cycle, a clique
      or has at most cfg.vertex_cap vertices: structured.block_Z0, which
      adds up the blocks' Z_0 and so covers disconnected inputs too.

    The maker builds the certificate when called, so a caller that emits
    none never pays for one; block's value, the same at every q, is
    computed once per rule.

    Returns (routes, block, cactus). `compute` takes the first route and
    `verify` runs them all; detect_class reads the two checks, run once each.
    """
    block = cache(lambda: is_block_graph(g))
    cactus = cache(lambda: is_cactus(g))
    block_solution = cache(lambda: block_graph_Z(g))

    def routes(cfg: GameConfig, below=None):
        q = cfg.q
        if form is not None:
            try:
                value = form(q)
            except ScopeError:
                pass  # the closed form does not cover these parameters
            else:
                yield "formula", value, None, None
        if block():
            value, tokens = block_solution()
            yield "block", value, lambda: certificate_from_tokens(g, tokens), None
        if q == 0 and cactus():
            yield "cactus", cactus_Z0(g), None, None
        if g.n <= cfg.vertex_cap:
            yield "exact", *_exact(g, cfg, below)
        if q == 0:
            try:
                folded = block_Z0(g, cfg.vertex_cap)
            except ScopeError:
                pass  # a block has more than cap vertices and no closed-form Z_0
            else:
                yield "fold", folded, None, None

    return routes, block, cactus


def _refusal(g: Graph, q_list, cap: int) -> ScopeError:
    """Why the coverage rule of g lists no method at any q of q_list."""
    return ScopeError(
        f"no method applies at q={','.join(map(str, q_list))}: n={g.n} exceeds the exact cap {cap}, the "
        f"graph is not a block graph with blocks >= 3, and the block fold needs q=0 and no block of more "
        f"than {cap} vertices that is neither a clique nor a cycle"
    )


def cmd_compute(args) -> int:
    started = time.perf_counter()
    g, source, form, shown_params = _load_graph(args)
    cfg = _game_config(args, args.q)
    q = cfg.q
    routes, block, cactus = _coverage(g, form)
    if args.method == "exact":
        used, (value, make_cert, sol) = "exact", _exact(g, cfg)
    else:
        used, value, make_cert, sol = next(routes(cfg), (None,) * 4)
        if used is None:
            raise _refusal(g, [q], cfg.vertex_cap)

    # Build a certificate only where it is written (--trace) or printed (the
    # exact solver's trace in --json), and check it before either.
    cert = None
    if make_cert is not None and (args.trace or (args.json and sol is not None)):
        cert = _checked(g, q, make_cert(), value)
    cert_path = None
    if args.trace:
        if cert is None:
            print(f"warning: method {used!r} does not produce a certificate; --trace ignored", file=sys.stderr)
        else:
            cert_lines = certificate_lines(cert)
            with open(args.trace, "w", encoding="utf-8") as fh:
                while chunk := "".join(islice(cert_lines, _TRACE_CHUNK)):
                    fh.write(chunk)
            cert_path = args.trace

    report = {
        "source": source,
        "detected_class": detect_class(g, block, cactus),
        "method": used,
        "q": q,
        "value": value,
        "certificate_path": cert_path,
        "wall_time": time.perf_counter() - started,
        "params": shown_params,
    }
    if args.json:
        if sol is not None:
            report["solver"] = {
                "value": sol.value,
                "states_explored": sol.states_explored,
                "q": sol.q,
                "rule3_mode": sol.rule3_mode,
                "trace": format_certificate(cert).splitlines(),
            }
        _emit(json.dumps(report, indent=2), args.output)
    else:
        lines = [
            f"source: {source}",
            f"class: {report['detected_class']}",
            f"method: {used}",
            f"q: {q}",
            f"value: {value}",
        ]
        if cert_path:
            lines.append(f"certificate: {cert_path}")
        _emit("\n".join(lines), args.output)
    return 0


def cmd_verify(args) -> int:
    g, source, form, _ = _load_graph(args)
    q_list = _parse_int_list(args.q_list, "--q-list")
    if not q_list:
        raise GraphValidationError("--q-list must name at least one q")
    # verify replays no play, and the rule-3 mode changes only replay.
    configs = {q: GameConfig(q=q, vertex_cap=args.cap) for q in q_list}

    if g.n > args.cap:
        print(f"warning: n={g.n} exceeds the exact cap {args.cap}; skipping the exact solver", file=sys.stderr)

    # The distinct q in increasing order, so that each exact solve starts
    # from the one below it; rows keep the order of the list.
    routes = _coverage(g, form)[0]
    values = {}  # by q: {method: value}
    below = None  # the last exact solution
    for q in sorted(configs):
        row = values[q] = {}
        for method, value, _, sol in routes(configs[q], below):
            row[method] = value
            if sol is not None:
                below = sol
    rows = [{"q": q, "values": values[q], "agree": len(set(values[q].values())) <= 1} for q in q_list]
    uncovered = sorted(q for q, row in values.items() if not row)
    if uncovered:
        raise _refusal(g, uncovered, args.cap)

    if args.json:
        _emit(json.dumps({"source": source, "rows": rows}, indent=2), args.output)
    else:
        lines = [f"source: {source}"]
        for row in rows:
            cells = ", ".join(f"{name}={val}" for name, val in sorted(row["values"].items()))
            status = "ok" if row["agree"] else "MISMATCH"
            lines.append(f"q={row['q']}: {cells} [{status}]")
        _emit("\n".join(lines), args.output)
    if not all(row["agree"] for row in rows):
        raise VerificationMismatch(f"methods disagree on {source}")
    # Z_q never falls as q grows; a value that does is wrong at one of the two q.
    chain = [(q, next(iter(row.values()))) for q, row in sorted(values.items())]
    for (lo_q, lo), (hi_q, hi) in zip(chain, chain[1:]):
        if hi < lo:
            raise VerificationMismatch(f"Z_q falls from {lo} at q={lo_q} to {hi} at q={hi_q} on {source}")
    return 0


def cmd_strategy(args) -> int:
    g, source, _, _ = _load_graph(args)
    cfg = _game_config(args, args.q)
    sol = solve_zq(g, cfg)
    cert = _checked(g, cfg.q, extract_player_trace(sol), sol.value)
    lines = [f"source: {source} (n={g.n}, m={g.m}), q={args.q}, rule3={cfg.rule3_mode}"]
    for i, mv in enumerate(cert.trace, start=1):
        if isinstance(mv, TokenMove):
            lines.append(f"move {i}: token on {mv.vertex}")
        elif isinstance(mv, ForceMove):
            lines.append(f"move {i}: force {mv.source} -> {mv.target}")
        else:
            verb = "announce" if isinstance(mv, AnnounceMove) else "oracle reveals"
            body = " | ".join("{" + ",".join(map(str, sorted(c))) + "}" for c in mv.components)
            lines.append(f"move {i}: {verb} {body}")
    lines.append(f"tokens spent: {cert.value} (game value {sol.value})")
    _emit("\n".join(lines), args.output)
    return 0


def _checked(g: Graph, q: int, cert, value: int):
    """cert, once check_certificate accepts it for g at q and it spends value
    tokens; a certificate that fails either is never emitted, and the run
    exits 1."""
    if not check_certificate(g, q, cert):
        raise ZqError("internal error: emitted certificate failed verification")
    # A legal certificate places no vertex twice, so its token moves count its tokens.
    spent = sum(isinstance(mv, TokenMove) for mv in cert.trace)
    if spent != value:
        raise ZqError(f"internal error: certificate spends {spent} tokens, value is {value}")
    return cert


def _stat(path: str):
    """os.stat(path), or None where os.path.exists(path) is False."""
    try:
        return os.stat(path)
    except (OSError, ValueError):
        return None


def _refuse_shared_paths(args):
    """Refuses (exit 2) a run where two of --file, --trace and --output name
    one file, before anything is read or written: the run would write over
    its input or over its other output."""
    given = [(flag, path, _stat(path)) for flag in ("file", "trace", "output") if (path := getattr(args, flag, None))]
    for (first, path, st), (second, other, other_st) in combinations(given, 2):
        # Two existing paths name one file when they share device and inode,
        # which sees a symlink, ./x and a hard link; two missing ones, which
        # the run would create, when their realpaths match. An existing path
        # and a missing one never do.
        if (os.path.samestat(st, other_st) if st and other_st else
                not (st or other_st) and os.path.realpath(path) == os.path.realpath(other)):
            raise GraphValidationError(f"--{first} and --{second} name the same file {other}")


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader closed stdout: end as Python does on EPIPE, with exit
            # 1 and no message. fd 1 then points at devnull, so that the flush
            # at interpreter exit has nowhere to fail.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise SystemExit(1) from None


def _add_graph_source(parser: argparse.ArgumentParser):
    parser.add_argument("--file", help="edge-list input file")
    parser.add_argument("--family", help="generate a family instance instead of reading a file")
    parser.add_argument("--eta", type=int, help="windmill: number of clique copies")
    parser.add_argument("--k", type=int, help="windmill: clique size")
    parser.add_argument("--l", type=int, help="windmill: center size")
    parser.add_argument("--arms", help="generalized star arm lengths, comma separated")
    parser.add_argument("--blocks", type=int, help="random_block_graph: number of blocks")
    parser.add_argument("--seed", type=int, help="seed for random families")
    parser.add_argument("--n", type=int, help="vertex count for path/cycle/clique/random families")


def _add_rule3(parser: argparse.ArgumentParser):
    parser.add_argument("--rule3", choices=("closure", "single"), default="closure")


def _add_solver_options(parser: argparse.ArgumentParser):
    parser.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP, help="exact-solver vertex cap")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args returns a
    fresh Namespace each call, and each subcommand's defaults are constants."""
    parser = argparse.ArgumentParser(prog="zqforce", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute Z_q of one graph")
    _add_graph_source(p)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--method", choices=METHODS, default="auto")
    _add_rule3(p)
    _add_solver_options(p)
    p.add_argument("--trace", help="write the certificate to this path")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="cross-check every applicable method")
    _add_graph_source(p)
    p.add_argument("--q-list", dest="q_list", required=True, help="comma-separated q values")
    _add_solver_options(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("strategy", help="print move-by-move optimal play")
    _add_graph_source(p)
    p.add_argument("--q", type=int, default=0)
    _add_rule3(p)
    _add_solver_options(p)
    p.add_argument("--output", help="write the transcript here instead of stdout")
    p.set_defaults(func=cmd_strategy)

    return parser


def main(argv=None) -> int:
    # No command builds a reference cycle that grows with its input, so the
    # cyclic collector would only rescan the graph and certificate objects as
    # they pile up (test_no_command_leaves_cyclic_garbage holds every command
    # to this). Pause it for the whole call, argument parsing included, so
    # that a collection that comes due between calls in one process never
    # runs inside the next; and leave it as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        _refuse_shared_paths(args)
        return args.func(args)
    except (ZqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
