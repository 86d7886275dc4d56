import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

import zqforce
from zqforce import (
    Certificate,
    GameConfig,
    Graph,
    TokenMove,
    block_graph_Z,
    brute_force_Z,
    certificate_from_tokens,
    check_certificate,
    find_blocks,
    format_certificate,
    format_edge_list,
    parse_certificate,
    parse_edge_list,
    solve_zq,
)
from zqforce.cli import main

from helpers import (
    BOWTIE,
    cycle,
    disjoint_union,
    naive_zq_value,
    random_block_graph,
    random_forest_parts,
)

BOWTIE_TEXT = "0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n"
C5_TEXT = "0 1\n1 2\n2 3\n3 4\n4 0\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_compute_windmill_formula(capsys):
    code, payload = _run_json(
        capsys,
        ["compute", "--family", "windmill1", "--eta", "2", "--k", "3", "--l", "1", "--q", "4", "--json"],
    )
    assert code == 0
    assert payload["value"] == 5
    assert payload["method"] == "formula"


def test_compute_bowtie_auto_uses_block(tmp_path, capsys):
    f = _write(tmp_path, "bowtie.el", BOWTIE_TEXT)
    code, payload = _run_json(capsys, ["compute", "--file", f, "--q", "0", "--json"])
    assert code == 0
    assert payload["value"] == 3
    assert payload["method"] == "block"
    assert "block-graph" in payload["detected_class"]


def test_compute_exact_with_trace(tmp_path, capsys):
    f = _write(tmp_path, "c5.el", C5_TEXT)
    trace = str(tmp_path / "out.cert")
    code, payload = _run_json(
        capsys,
        ["compute", "--file", f, "--q", "0", "--method", "exact", "--trace", trace, "--json"],
    )
    assert code == 0
    assert payload["value"] == 2
    assert payload["method"] == "exact"
    assert payload["certificate_path"] == trace
    with open(trace, encoding="utf-8") as fh:
        text = fh.read()
    assert check_certificate(cycle(5), 0, parse_certificate(text))
    solver = payload["solver"]
    assert list(solver) == ["value", "states_explored", "q", "rule3_mode", "trace"]
    assert solver["value"] == 2
    assert solver["states_explored"] == solve_zq(cycle(5), GameConfig(q=0)).states_explored > 0
    assert (solver["q"], solver["rule3_mode"]) == (0, "closure")
    assert solver["trace"] == text.splitlines()


def test_compute_cactus_dispatch(capsys):
    code, payload = _run_json(
        capsys,
        ["compute", "--family", "random_cactus", "--n", "40", "--seed", "3", "--q", "0", "--json"],
    )
    assert code == 0
    assert payload["method"] == "cactus"
    assert payload["value"] is not None


def test_compute_disconnected_sums_components(tmp_path, capsys):
    f = _write(tmp_path, "two_paths.el", "0 1\n1 2\n3 4\n")
    code, payload = _run_json(capsys, ["compute", "--file", f, "--q", "0", "--json"])
    err = capsys.readouterr().err
    assert code == 0
    assert payload["value"] == 2  # 1 per path component
    assert payload["detected_class"] == "disconnected"


def test_compute_disconnected_reports_each_method_used(tmp_path, capsys):
    # A bowtie, a C5 and a triangle, solved whole: a forest of cacti at q=0,
    # and small enough for the exact solver at q=1.
    f = _write(tmp_path, "mixed.el", BOWTIE_TEXT + "5 6\n6 7\n7 8\n8 9\n9 5\n10 11\n11 12\n12 10\n")
    for q, used in ((0, "cactus"), (1, "exact")):
        assert main(["compute", "--file", f, "--q", str(q)]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [f"method: {used}", f"q: {q}", "value: 7"]
    code, payload = _run_json(capsys, ["compute", "--file", f, "--method", "exact", "--json"])
    assert (code, payload["method"], payload["value"]) == (0, "exact", 7)


def test_compute_no_solver_exit_code(tmp_path, capsys):
    # n=18 path with q=1: not a block graph, cactus needs q=0, over the cap.
    edges = "\n".join(f"{i} {i+1}" for i in range(17))
    f = _write(tmp_path, "p18.el", edges)
    code = main(["compute", "--file", f, "--q", "1", "--cap", "16"])
    assert code == 3


def test_uncovered_component_refuses_the_whole_input(tmp_path, capsys):
    # A diamond (K4 minus an edge) beside an isolated vertex, with the exact
    # cap below the diamond: the fold can neither count nor search the
    # diamond, and the refusal names the fold's condition.
    f = _write(tmp_path, "diamond_dot.el", "n 5\n0 1\n0 2\n1 2\n1 3\n2 3\n")
    assert main(["compute", "--file", f, "--q", "0", "--cap", "3"]) == 3
    refusal = (
        "n=5 exceeds the exact cap 3, the graph is not a block graph with blocks >= 3, and the block "
        "fold needs q=0 and no block of more than 3 vertices that is neither a clique nor a cycle"
    )
    assert capsys.readouterr().err == f"error: no method applies at q=0: {refusal}\n"
    assert main(["verify", "--file", f, "--q-list", "0,1", "--cap", "3"]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == f"error: no method applies at q=0,1: {refusal}"
    assert main(["compute", "--file", f, "--q", "0", "--cap", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["method: fold", "q: 0", "value: 3"]


def test_compute_auto_uses_exact_at_q_at_least_n(tmp_path, capsys):
    # At q >= n no announcement is legal and Z_q is plain Z; the exact
    # search covers it up to the default cap of 20, with a certificate.
    argv = ["compute", "--family", "cycle", "--n", "18", "--q", "18"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["method: exact", "q: 18", "value: 2"]
    trace = str(tmp_path / "c18.cert")
    assert main(argv + ["--trace", trace]) == 0
    assert check_certificate(cycle(18), 18, parse_certificate(open(trace).read()))
    assert main(["compute", "--family", "cycle", "--n", "21", "--q", "21"]) == 3
    assert "n=21 exceeds the exact cap 20" in capsys.readouterr().err


def test_an_input_over_the_size_limit_is_refused_before_it_is_read_whole(tmp_path, capsys, monkeypatch):
    # The limit is 1 GiB, so it is tested at 64 bytes: a file of 64 bytes is
    # read, one of 65 is refused (exit 3) naming the limit, and so is an
    # endless input, read in chunks up to the limit and one byte.
    monkeypatch.setattr(zqforce.cli, "MAX_FILE_BYTES", 64)
    text = "0 1\n" * 16
    assert main(["compute", "--file", _write(tmp_path, "at.el", text)]) == 0
    capsys.readouterr()
    over = _write(tmp_path, "over.el", text + "\n")
    assert main(["compute", "--file", over]) == 3
    assert capsys.readouterr().err == f"error: {over} exceeds the input limit of 64 bytes\n"
    monkeypatch.setattr(zqforce.cli, "_READ_CHUNK", 10)
    assert main(["compute", "--file", "/dev/zero"]) == 3
    assert capsys.readouterr().err == "error: /dev/zero exceeds the input limit of 64 bytes\n"


def test_a_crlf_plain_file_takes_the_bulk_parser(tmp_path, monkeypatch):
    # The input is read as text mode reads it, so CRLF and CR line ends
    # reach the parser as LF, and a plain file written with them still
    # takes the bulk path.
    def no_line_loop(text):
        raise AssertionError("the line loop read a plain file")

    monkeypatch.setattr(zqforce.graphs, "_parse_lines", no_line_loop)
    for name, text in (("crlf.el", "n 4\r\n0 1\r\n1 2\r\n2 3\r\n"), ("cr.el", "0 1\r1 2\r2 3\r")):
        p = tmp_path / name
        p.write_bytes(text.encode())
        assert main(["compute", "--file", str(p)]) == 0


def test_compute_parse_error_exit_code(tmp_path):
    f = _write(tmp_path, "bad.el", "0 1\nnope\n")
    assert main(["compute", "--file", f]) == 2


@pytest.mark.parametrize("command", [["compute"], ["verify", "--q-list", "0"], ["strategy"]])
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, command):
    f = tmp_path / "bytes.el"
    f.write_bytes(b"\xff\xfe0 1\n")
    assert main([command[0], "--file", str(f), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: not UTF-8: byte 0xff\n"
    f.write_bytes(b"0 1\r\n1 2\r2 \xe9\n")
    assert main([command[0], "--file", str(f), *command[1:]]) == 2
    assert capsys.readouterr().err == "error: line 3: not UTF-8: byte 0xe9\n"


@pytest.mark.parametrize("command", [["compute"], ["verify", "--q-list", "0"], ["strategy"]])
def test_unreadable_input_is_bad_input_and_an_unwritable_output_is_not(tmp_path, capsys, command):
    # An input file that cannot be read is bad input (exit 2), named in the
    # message; a report or certificate that cannot be written stays exit 1.
    for path, reason in [(tmp_path / "missing.el", "No such file or directory"),
                         (tmp_path, "Is a directory")]:
        assert main([command[0], "--file", str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {path}: {reason}\n"
    bowtie = _write(tmp_path, "bowtie.el", BOWTIE_TEXT)
    assert main([command[0], "--file", bowtie, *command[1:], "--output", str(tmp_path / "no" / "out")]) == 1
    assert main(["compute", "--file", bowtie, "--trace", str(tmp_path)]) == 1
    assert capsys.readouterr().err.count("error: [Errno") == 2


@pytest.mark.parametrize("argv, flags", [
    (["compute", "--file", "bowtie.el", "--trace", "bowtie.el"], "--file and --trace"),
    (["compute", "--file", "./bowtie.el", "--trace", "bowtie.el"], "--file and --trace"),
    (["compute", "--file", "bowtie.el", "--output", "./bowtie.el"], "--file and --output"),
    (["compute", "--file", "bowtie.el", "--trace", "link.el"], "--file and --trace"),
    (["compute", "--file", "bowtie.el", "--trace", "same.txt", "--output", "./same.txt"], "--trace and --output"),
    (["compute", "--family", "cycle", "--n", "5", "--trace", "same.txt", "--output", "same.txt"],
     "--trace and --output"),
    (["verify", "--file", "bowtie.el", "--q-list", "0", "--output", "./bowtie.el"], "--file and --output"),
    (["strategy", "--file", "bowtie.el", "--output", "bowtie.el"], "--file and --output"),
    (["compute", "--file", "bowtie.el", "--trace", "hard.el"], "--file and --trace"),
    (["verify", "--file", "hard.el", "--q-list", "0", "--output", "bowtie.el"], "--file and --output"),
], ids=["compute-file-trace", "compute-dot-file-trace", "compute-file-output", "compute-file-trace-symlink",
        "compute-trace-output", "compute-family-trace-output", "verify-file-output", "strategy-file-output",
        "compute-file-trace-hardlink", "verify-file-output-hardlink"])
def test_no_command_writes_over_its_input_or_its_other_output(tmp_path, capsys, monkeypatch, argv, flags):
    # Two of --file, --trace and --output that name one file, however it is
    # spelled or linked, are refused before the input is read or anything
    # is written.
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "bowtie.el", BOWTIE_TEXT)
    os.symlink("bowtie.el", tmp_path / "link.el")
    os.link(tmp_path / "bowtie.el", tmp_path / "hard.el")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flags} name the same file ")
    assert (tmp_path / "bowtie.el").read_text() == BOWTIE_TEXT
    assert sorted(os.listdir(tmp_path)) == ["bowtie.el", "hard.el", "link.el"]


def test_verify_bowtie_all_methods_agree(tmp_path, capsys):
    f = _write(tmp_path, "bowtie.el", BOWTIE_TEXT)
    code, payload = _run_json(capsys, ["verify", "--file", f, "--q-list", "0,1,5", "--json"])
    assert code == 0
    for row in payload["rows"]:
        assert row["agree"]
    q0 = payload["rows"][0]["values"]
    assert q0["exact"] == q0["block"] == q0["cactus"] == 3
    q5 = payload["rows"][2]["values"]
    assert q5 == {"block": 3, "exact": 3}
    assert brute_force_Z(BOWTIE)[0] == 3


def test_verify_windmill2_formula_vs_exact(capsys):
    code, payload = _run_json(
        capsys,
        ["verify", "--family", "windmill2", "--eta", "2", "--k", "2", "--l", "5",
         "--q-list", "0,1", "--json"],
    )
    assert code == 0
    values = {row["q"]: row["values"] for row in payload["rows"]}
    assert values[0]["formula"] == values[0]["exact"] == 4
    assert values[1]["formula"] == values[1]["exact"] == 7


def test_verify_drops_a_formula_that_refuses_its_input(capsys):
    # W''(2, 1, 2) is K_{2,2} = C4, which has no closed form here; verify
    # still checks the methods that do apply, as compute falls through.
    argv = ["--family", "windmill2", "--eta", "2", "--k", "1", "--l", "2"]
    assert main(["verify", *argv, "--q-list", "0,1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "source: family:windmill_II",
        "q=0: cactus=2, exact=2, fold=2 [ok]",
        "q=1: exact=2 [ok]",
    ]
    assert main(["compute", *argv, "--q", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["method: exact", "q: 1", "value: 2"]


def test_verify_windmill1_formula_block_and_exact_in_one_row(capsys):
    argv = ["verify", "--family", "windmill1", "--eta", "2", "--k", "3", "--l", "1", "--q-list", "0,1,7"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "source: family:windmill_I",
        "q=0: block=5, exact=5, fold=5, formula=5 [ok]",
        "q=1: block=5, exact=5, formula=5 [ok]",
        "q=7: block=5, exact=5, formula=5 [ok]",
    ]


def test_verify_c6(tmp_path, capsys):
    f = _write(tmp_path, "c6.el", "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    code, payload = _run_json(capsys, ["verify", "--file", f, "--q-list", "0,6", "--json"])
    assert code == 0
    values = {row["q"]: row["values"] for row in payload["rows"]}
    assert values[0]["exact"] == values[0]["cactus"] == 2
    assert values[6] == {"exact": 2}
    assert brute_force_Z(cycle(6))[0] == 2


def _fault_windmill1(monkeypatch):
    import zqforce.closed_forms as cf

    real = cf.windmill_I_Zq
    monkeypatch.setattr(cf, "windmill_I_Zq", lambda eta, k, l, q: real(eta, k, l, q) + 1)


def test_verify_catches_injected_formula_fault(capsys, monkeypatch):
    _fault_windmill1(monkeypatch)
    code = main(["verify", "--family", "windmill1", "--eta", "2", "--k", "3", "--l", "1",
                 "--q-list", "1"])
    assert code == 4


def test_strategy_c5(capsys):
    code = main(["strategy", "--family", "cycle", "--n", "5", "--q", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "tokens spent: 2" in out
    assert out.count("token on") == 2


def test_strategy_k4(capsys):
    code = main(["strategy", "--family", "clique", "--n", "4", "--q", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "tokens spent: 3" in out
    assert "announce" not in out


def test_strategy_star_q2(capsys):
    code = main(["strategy", "--family", "star", "--arms", "1,1,1", "--q", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "tokens spent: 2" in out


def test_compute_output_file(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(["compute", "--family", "cycle", "--n", "6", "--q", "0", "--json",
                 "--output", out])
    assert code == 0
    payload = json.loads(open(out).read())
    assert payload["value"] == 2


@pytest.mark.parametrize("argv", [
    ["compute", "--family", "cycle", "--n", "5"],
    ["verify", "--family", "cycle", "--n", "6", "--q-list", "0,6"],
    ["strategy", "--family", "cycle", "--n", "5"],
], ids=["compute", "verify", "strategy"])
def test_closed_stdout_ends_a_command_quietly(argv):
    # The reader closes its end before the command starts, so writing the
    # report fails with EPIPE. The run exits 1, as Python does on EPIPE, and
    # writes nothing to stderr, not even at interpreter exit. It runs in a
    # child process, so that no handler touches this process's stdout.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(zqforce.__file__))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-c", "import sys; from zqforce.cli import main; sys.exit(main())",
                               *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "cycle", "--n", "5", "--q-list", "0,x"],
    ["compute", "--family", "star", "--arms", "1,x", "--q", "1"],
    ["compute", "--family", "random_block_graph", "--n", "10", "--seed", "1", "--q", "-1"],
    ["verify", "--family", "random_block_graph", "--n", "30", "--seed", "1", "--q-list", "-1"],
    ["compute", "--family", "random_cactus", "--n", "30", "--seed", "1", "--q", "-1"],
    ["verify", "--family", "cycle", "--n", "5", "--q-list", "0,,1"],
    ["compute", "--family", "cycle", "--n", "5", "--cap", "0"],
    ["verify", "--family", "cycle", "--n", "20", "--q-list", "0", "--cap", "65"],
    ["strategy", "--family", "cycle", "--n", "5", "--cap", "0"],
], ids=["verify-q-list", "compute-arms", "compute-block-negative-q",
        "verify-negative-q", "compute-cactus-negative-q", "verify-empty-entry",
        "compute-cap-0", "verify-cap-65", "strategy-cap-0"])
def test_malformed_numbers_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["compute", "--file", "any.el", "--family", "cycle", "--n", "5"], "give either --file or --family, not both"),
    (["strategy", "--family", "nope"], "unknown family 'nope'"),
    (["verify", "--q-list", "0"], "an input graph is required: --file or --family"),
    (["verify", "--family", "cycle", "--n", "5", "--q-list", " "], "--q-list must name at least one q"),
], ids=["file-and-family", "unknown-family", "no-input", "blank-q-list"])
def test_graph_source_and_q_list_refusals_exit_2(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_takes_no_rule3_option(capsys):
    # The rule-3 mode changes only how a play is replayed, and verify replays
    # none: --rule3 is a usage error there, and compute and strategy keep it.
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--family", "cycle", "--n", "5", "--q-list", "0", "--rule3", "single"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: zqforce ")
    assert captured.err.endswith("error: unrecognized arguments: --rule3 single\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--help"])
    assert exit_info.value.code == 0
    assert "--q-list" in (text := capsys.readouterr().out) and "--rule3" not in text
    for command in ("compute", "strategy"):
        assert main([command, "--family", "cycle", "--n", "5", "--rule3", "single"]) == 0


def test_verify_refuses_q_values_no_method_covers(capsys):
    # C21 is above the exact cap, not a block graph, a cactus only at q=0,
    # and has no closed form.
    assert main(["verify", "--family", "cycle", "--n", "21", "--q-list", "1,0,2,1,21"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: no method applies at q=1,2,21: n=21 exceeds the exact cap 20, the graph is not a block "
        "graph with blocks >= 3, and the block fold needs q=0 and no block of more than 20 vertices "
        "that is neither a clique nor a cycle"
    )
    assert main(["verify", "--family", "cycle", "--n", "21", "--q-list", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["q=0: cactus=2, fold=2 [ok]"]
    assert main(["verify", "--family", "cycle", "--n", "20", "--q-list", "20"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["q=20: exact=2 [ok]"]


def test_compute_disconnected_trace_writes_a_checked_certificate(tmp_path, capsys):
    f = _write(tmp_path, "two_triangles.el", "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
    trace = tmp_path / "out.cert"
    assert main(["compute", "--file", f, "--trace", str(trace)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1:] == [
        "class: disconnected", "method: block", "q: 0", "value: 4", f"certificate: {trace}",
    ]
    cert = parse_certificate(trace.read_text())
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert len(cert.tokens) == 4 and check_certificate(two_triangles, 0, cert)


@pytest.mark.parametrize("method", ["brute", "block", "cactus", "formula"])
def test_compute_method_brute_is_a_usage_error(tmp_path, capsys, method):
    # Brute force is the tests' reference, not a route: at q >= n the exact
    # search answers with a certificate. The block, cactus and closed-form
    # routes are auto's to take, where the coverage rule lists them first.
    # --method takes none of these values.
    f = _write(tmp_path, "c6.el", "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    trace = str(tmp_path / "c6.cert")
    code, payload = _run_json(capsys, ["compute", "--file", f, "--q", "6", "--trace", trace, "--json"])
    assert (code, payload["method"], payload["value"]) == (0, "exact", 2)
    assert check_certificate(cycle(6), 6, parse_certificate(open(trace).read()))
    with pytest.raises(SystemExit) as exit_info:
        main(["compute", "--file", f, "--q", "6", "--method", method])
    assert exit_info.value.code == 2
    assert f"invalid choice: '{method}'" in capsys.readouterr().err


def test_strategy_star_transcript_announces_twice(capsys):
    assert main(["strategy", "--family", "star", "--arms", "1,1,1", "--q", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "source: family:generalized_star (n=4, m=3), q=0, rule3=closure",
        "move 1: token on 0",
        "move 2: announce {1}",
        "move 3: oracle reveals {1}",
        "move 4: force 0 -> 1",
        "move 5: announce {2}",
        "move 6: oracle reveals {2}",
        "move 7: force 0 -> 2",
        "move 8: force 0 -> 3",
        "tokens spent: 1 (game value 1)",
    ]


def test_compute_plain_text_report(tmp_path, capsys):
    argv = ["compute", "--family", "cycle", "--n", "6", "--q", "0"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "source: family:cycle",
        "class: cactus",
        "method: cactus",
        "q: 0",
        "value: 2",
    ]
    trace = str(tmp_path / "c6.cert")
    assert main(argv + ["--method", "exact", "--trace", trace]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "method: exact"
    assert lines[5:] == [f"certificate: {trace}"]


def _count_calls(monkeypatch, name, module=None):
    """Wrap module.<name>, cli.<name> by default, and return the list its
    calls are appended to."""
    import zqforce.cli as cli

    module = module or cli
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_compute_exact_replays_a_certificate_only_when_asked(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "extract_player_trace")
    two_c4 = _write(tmp_path, "two_c4.el", "0 1\n1 2\n2 3\n3 0\n4 5\n5 6\n6 7\n7 4\n")
    assert main(["compute", "--file", two_c4, "--method", "exact"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "value: 4"
    assert calls == []
    assert main(["compute", "--file", two_c4, "--method", "exact", "--json"]) == 0
    assert len(calls) == 1
    c5 = _write(tmp_path, "c5.el", C5_TEXT)
    assert main(["compute", "--file", c5, "--method", "exact"]) == 0
    assert len(calls) == 1
    assert main(["compute", "--file", c5, "--method", "exact", "--json"]) == 0
    assert len(calls) == 2


def test_verify_builds_no_certificate(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "certificate_from_tokens")
    assert main(["verify", "--family", "cycle", "--n", "6", "--q-list", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["q=6: exact=2 [ok]"]
    assert calls == []
    bowtie = _write(tmp_path, "bowtie.el", BOWTIE_TEXT)
    assert main(["verify", "--file", bowtie, "--q-list", "0,1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "q=0: block=3, cactus=3, exact=3, fold=3 [ok]", "q=1: block=3, exact=3 [ok]",
    ]
    assert main(["compute", "--file", bowtie]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["method: block", "q: 0", "value: 3"]
    assert calls == []
    assert main(["compute", "--file", bowtie, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "block"
    assert calls == []  # the JSON report prints no block certificate, so none is built
    assert main(["compute", "--file", bowtie, "--trace", str(tmp_path / "bowtie.cert")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("method, flags", [
    ("exact", ["--trace"]),
    ("exact", ["--json"]),
    ("exact", ["--trace", "--json"]),
    ("auto", ["--trace"]),
    ("auto", ["--trace", "--json"]),
], ids=["exact-trace", "exact-json", "exact-trace-json", "block-trace", "block-trace-json"])
def test_compute_emits_no_certificate_that_fails_its_check(tmp_path, capsys, monkeypatch, method, flags):
    # A certificate is checked before it is written or printed: one that
    # fails leaves no file and no report, and the run exits 1.
    import zqforce.cli as cli

    monkeypatch.setattr(cli, "check_certificate", lambda g, q, cert: False)
    bowtie = _write(tmp_path, "bowtie.el", BOWTIE_TEXT)
    trace = tmp_path / "bowtie.cert"
    argv = ["compute", "--file", bowtie, "--method", method]
    for flag in flags:
        argv += [flag, str(trace)] if flag == "--trace" else [flag]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: emitted certificate failed verification\n"
    assert not trace.exists()


def test_no_command_emits_a_legal_certificate_that_spends_more_than_its_value(tmp_path, capsys, monkeypatch):
    # A legal certificate with more tokens than the reported value is still
    # refused: compute writes no file and strategy prints no play, and the
    # run exits 1 with its own message.
    import zqforce.cli as cli

    real = cli.certificate_from_tokens
    monkeypatch.setattr(cli, "certificate_from_tokens", lambda g, tokens: real(g, [*tokens, 2]))
    bowtie = _write(tmp_path, "bowtie.el", BOWTIE_TEXT)
    trace = tmp_path / "bowtie.cert"
    assert main(["compute", "--file", bowtie, "--trace", str(trace)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: internal error: certificate spends 4 tokens, value is 3\n")
    assert not trace.exists()

    monkeypatch.setattr(cli, "extract_player_trace", lambda sol: Certificate(tuple(map(TokenMove, range(5)))))
    assert main(["strategy", "--family", "cycle", "--n", "5", "--q", "0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: internal error: certificate spends 5 tokens, value is 2\n")


def _diamond_beside_blocks(tmp_path):
    """A diamond (K4 minus an edge) beside a 40-vertex block graph: too big
    for the exact solver, neither a block graph nor a cactus. Returns the
    edge-list file and the two parts."""
    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    blocks = random_block_graph(40, random.Random(3))
    f = _write(tmp_path, "diamond_blocks.el", format_edge_list(disjoint_union(diamond, blocks)))
    return f, diamond, blocks


@pytest.mark.parametrize("argv, detected, runs", [
    (["--family", "random_block_graph", "--n", "60", "--blocks", "12", "--seed", "1", "--trace"],
     "block-graph", 1),
    (["--family", "random_cactus", "--n", "60", "--seed", "1"], "cactus", 1),
    (["--file"], "disconnected", 1),
    (["--family", "cycle", "--n", "8", "--method", "exact", "--trace"], "cactus", 1),
], ids=["block-trace", "cactus", "fold", "exact"])
def test_compute_decomposes_the_graph_once(tmp_path, capsys, monkeypatch, argv, detected, runs):
    # find_blocks is asked for the blocks by the coverage rule, the solver
    # and the class line, and runs its DFS for the first of them only. The
    # fold (the diamond beside a block graph) searches the diamond from its
    # own adjacency and decomposes nothing else. The class line reads the
    # coverage rule's checks, so each runs at most once, and its
    # connectivity comes from the blocks, with no search of its own.
    from zqforce import graphs

    real = graphs._block_dfs
    seen = []

    def counting(g):
        seen.append(g)
        return real(g)

    monkeypatch.setattr(graphs, "_block_dfs", counting)
    asked = []
    for name in ("is_block_graph", "is_cactus", "connected_components"):
        check = getattr(graphs, name)

        def counted(*args, _name=name, _check=check):
            asked.append(_name)
            return _check(*args)

        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "zqforce"]:
            if getattr(module, name, None) is check:
                monkeypatch.setattr(module, name, counted)
    if argv[-1] == "--trace":
        argv = argv + [str(tmp_path / "cert.txt")]
    if argv == ["--file"]:
        argv = argv + [_diamond_beside_blocks(tmp_path)[0]]
    assert main(["compute", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"class: {detected}"
    assert len(seen) == runs
    assert asked.count("is_block_graph") <= 1 and asked.count("is_cactus") <= 1, asked
    assert "connected_components" not in asked


def test_compute_takes_the_first_method_verify_runs(tmp_path, capsys):
    # compute and verify read one coverage rule: compute reports the first
    # method verify runs at the same q, and both refuse a q it does not cover.
    cases = [
        (["--family", "windmill1", "--eta", "2", "--k", "3", "--l", "1"], {0: "formula", 1: "formula"}),
        # W''(2, 1, 2) is C4: its closed form refuses, and the rule falls through.
        (["--family", "windmill2", "--eta", "2", "--k", "1", "--l", "2"], {0: "cactus", 1: "exact"}),
        (["--family", "star", "--arms", "1,2,3"], {0: "formula", 2: "formula"}),
        (["--file", _write(tmp_path, "bowtie.el", BOWTIE_TEXT)], {0: "block", 1: "block"}),
        (["--file", _diamond_beside_blocks(tmp_path)[0]], {0: "fold", 1: None}),
        (["--family", "cycle", "--n", "21"], {0: "cactus", 21: None}),
    ]
    for source, routes in cases:
        for q, route in routes.items():
            compute_code = main(["compute", *source, "--q", str(q), "--json"])
            compute_out = capsys.readouterr().out
            verify_code = main(["verify", *source, "--q-list", str(q), "--json"])
            verify_out = capsys.readouterr().out
            if route is None:
                assert (compute_code, compute_out, verify_code, verify_out) == (3, "", 3, ""), (source, q)
                continue
            assert (compute_code, verify_code) == (0, 0), (source, q)
            first = next(iter(json.loads(verify_out)["rows"][0]["values"]))
            assert json.loads(compute_out)["method"] == first == route, (source, q)


def test_verify_solves_each_distinct_q_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "solve_zq")
    assert main(["verify", "--family", "cycle", "--n", "5", "--q-list", "0,0,0"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines() == [
        "source: family:cycle",
        *["q=0: cactus=2, exact=2, fold=2 [ok]"] * 3,
    ]
    # The distinct q in increasing order, each solve seeded from the one
    # before; the rows keep the order of the list.
    calls.clear()
    assert main(["verify", "--family", "cycle", "--n", "6", "--q-list", "6,0,2,0,1"]) == 0
    assert [cfg.q for _, cfg, _ in calls] == [0, 1, 2, 6]
    assert calls[0][2] is None
    assert all(below is not None and below.q == prev.q for (_, _, below), (_, prev, _) in zip(calls[1:], calls))
    assert capsys.readouterr().out.splitlines()[1:] == [
        "q=6: exact=2 [ok]",
        "q=0: cactus=2, exact=2, fold=2 [ok]",
        "q=2: exact=2 [ok]",
        "q=0: cactus=2, exact=2, fold=2 [ok]",
        "q=1: exact=2 [ok]",
    ]


def test_compute_evaluates_the_closed_form_once(capsys, monkeypatch):
    # The scope check's value is the formula route's value.
    from zqforce import closed_forms

    calls = _count_calls(monkeypatch, "windmill_I_Zq", closed_forms)
    assert main(["compute", "--family", "windmill1", "--eta", "2", "--k", "3", "--l", "1", "--q", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["method: formula", "q: 1", "value: 5"]
    assert len(calls) == 1


def test_verify_runs_each_route_once_per_q(capsys, monkeypatch):
    # A single vertex is covered by every route but formula at q = 0. Each
    # solver is read from cli's globals when its route runs, and block's
    # value, the same at every q, is computed once per run.
    calls = {name: _count_calls(monkeypatch, name) for name in ("block_graph_Z", "cactus_Z0", "block_Z0", "solve_zq")}
    assert main(["verify", "--family", "path", "--n", "1", "--q-list", "0,1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "q=0: block=1, cactus=1, exact=1, fold=1 [ok]", "q=1: block=1, exact=1 [ok]",
    ]
    assert {name: len(seen) for name, seen in calls.items()} == {
        "block_graph_Z": 1, "cactus_Z0": 1, "block_Z0": 1, "solve_zq": 2,
    }


def test_compute_exact_refuses_a_graph_over_the_cap(capsys):
    assert main(["compute", "--family", "cycle", "--n", "21", "--method", "exact"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n=21 exceeds vertex cap 20" in captured.err


def test_verify_reports_a_value_that_falls_as_q_grows(capsys, monkeypatch):
    # Z_q never falls as q grows. A wrong exact value at one q, here one too
    # low at q = 2 where it is the only method, is caught by the chain even
    # though no other method disagrees with it: the rows are printed, and
    # the run exits 4 naming both q.
    import zqforce.cli as cli

    real = cli.solve_zq

    def low_at_two(g, cfg, below=None):
        sol = real(g, cfg, below)
        if cfg.q == 2:
            sol.value -= 1
        return sol

    monkeypatch.setattr(cli, "solve_zq", low_at_two)
    assert main(["verify", "--family", "cycle", "--n", "6", "--q-list", "2,0,1"]) == 4
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == [
        "q=2: exact=1 [ok]",
        "q=0: cactus=2, exact=2, fold=2 [ok]",
        "q=1: exact=2 [ok]",
    ]
    assert captured.err == "error: Z_q falls from 2 at q=1 to 1 at q=2 on family:cycle\n"


def test_main_builds_its_parser_once_and_keeps_no_state_between_calls(capsys):
    import zqforce.cli as cli

    cli.build_parser.cache_clear()
    cycle6 = ["--family", "cycle", "--n", "6"]
    assert main(["compute", *cycle6, "--q", "2", "--method", "exact", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "exact"
    assert main(["compute", *cycle6]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["method: cactus", "q: 0", "value: 2"]
    assert main(["verify", *cycle6, "--q-list", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["q"] == 0
    assert main(["verify", *cycle6, "--q-list", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["q=1: exact=2 [ok]"]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)

TWO_STARS_TEXT = "0 1\n0 2\n0 3\n4 5\n4 6\n4 7\n"


def test_two_stars_are_one_game(tmp_path, capsys):
    # Alone, each K_{1,3} has Z_1 = 2; in the union one announcement names
    # a leaf of each star, and Z_1 is 3, not the sum 4.
    f = _write(tmp_path, "two_stars.el", TWO_STARS_TEXT)
    assert main(["compute", "--file", f, "--q", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "class: disconnected", "method: exact", "q: 1", "value: 3",
    ]
    assert main(["verify", "--file", f, "--q-list", "0,1,2,8"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "q=0: cactus=2, exact=2, fold=2 [ok]",
        "q=1: exact=3 [ok]",
        "q=2: exact=4 [ok]",
        "q=8: exact=4 [ok]",
    ]
    assert main(["strategy", "--file", f, "--q", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "tokens spent: 3 (game value 3)"


def test_compute_sums_the_parts_at_q0_when_nothing_covers_the_whole(tmp_path, capsys):
    # At q=0 the parts' values add up, through the fold over their blocks;
    # at q=1 no method covers the union.
    f, diamond, blocks = _diamond_beside_blocks(tmp_path)
    expected = solve_zq(diamond, GameConfig(q=0)).value + block_graph_Z(blocks)[0]
    trace = tmp_path / "fold.cert"
    assert main(["compute", "--file", f, "--trace", str(trace)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == [
        "class: disconnected", "method: fold", "q: 0", f"value: {expected}",
    ]
    assert captured.err == "warning: method 'fold' does not produce a certificate; --trace ignored\n"
    assert not trace.exists()
    assert main(["verify", "--file", f, "--q-list", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [f"q=0: fold={expected} [ok]"]
    assert main(["compute", "--file", f, "--q", "1"]) == 3
    with pytest.raises(SystemExit):  # the fold is no --method choice
        main(["compute", "--file", f, "--method", "fold"])


def test_fold_builds_each_block_in_time_linear_in_its_degrees(tmp_path, capsys):
    # 6,000 diamonds glued at one hub (n = 18,001): only the fold covers
    # it, and it searches every diamond. Building a block reads the
    # adjacency of its non-anchor members only; reading every member's
    # adjacency, the hub's 18,000 neighbours included, took 4.2 s for the
    # 6,000 builds alone.
    diamond = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
    edges = []
    for base in range(1, 18_001, 3):
        ids = (0, base, base + 1, base + 2)
        edges += [(ids[u], ids[v]) for u, v in diamond]
    f = _write(tmp_path, "hub.el", "".join(f"{u} {v}\n" for u, v in edges))
    started = time.perf_counter()
    assert main(["compute", "--file", f, "--q", "0"]) == 0
    elapsed = time.perf_counter() - started
    assert capsys.readouterr().out.splitlines()[1:] == [
        "class: general", "method: fold", "q: 0", f"value: {1 + 6_000}",
    ]
    assert elapsed < 5.0, elapsed


def test_compute_matches_the_reference_game_on_disjoint_unions(tmp_path, capsys):
    # Seeded unions of stars, trees, graphs, block graphs and cacti, with
    # isolated vertices among the parts, at most 9 vertices in all. The
    # seed's corpus holds unions worth less than the sum of their parts,
    # where a per-part sum would be wrong.
    rng = random.Random(1)
    trace = tmp_path / "union.cert"
    below_sum = 0
    for _ in range(32):
        parts = random_forest_parts(rng, 9)
        g = disjoint_union(*parts, rng=rng)
        f = _write(tmp_path, "union.el", format_edge_list(g))
        for q in range(3):
            whole = naive_zq_value(g, q)
            parts_sum = sum(naive_zq_value(part, q) for part in parts)
            assert whole <= parts_sum and (q > 0 or whole == parts_sum), (g.edges, q)
            below_sum += whole < parts_sum
            for method in ("auto", "exact"):
                trace.unlink(missing_ok=True)
                argv = ["compute", "--file", f, "--q", str(q), "--method", method,
                        "--trace", str(trace), "--json"]
                code, payload = _run_json(capsys, argv)
                assert (code, payload["value"]) == (0, whole), (g.edges, q, method)
                if payload["certificate_path"] is None:
                    assert payload["method"] in ("cactus", "fold")
                    continue
                cert = parse_certificate(trace.read_text())
                assert len(cert.tokens) == whole and check_certificate(g, q, cert)
    assert below_sum >= 1


def _cyclic_garbage(run):
    """What the cyclic collector finds after run(), called with it paused;
    returns (run's result, objects found). The parser is built first: its
    argparse help formatters are cyclic garbage, made once per process
    before main pauses the collector."""
    import zqforce.cli as cli

    cli.build_parser()
    gc.collect()
    gc.disable()
    try:
        result = run()
        return result, gc.collect()
    finally:
        gc.enable()


def _every_main_path(tmp_path, monkeypatch):
    """(id, argv, exit code, ends in a json.dumps report): one run of each
    compute method with --trace and with --json, of verify and strategy,
    and of each error exit. The exit 4 case fakes a wrong closed form
    through monkeypatch."""
    trace = str(tmp_path / "paths.cert")
    fold_file = _diamond_beside_blocks(tmp_path)[0]
    bowtie = _write(tmp_path, "bowtie.el", BOWTIE_TEXT)
    spelled = _write(tmp_path, "spelled.el", "1_0 2\n")
    _fault_windmill1(monkeypatch)
    sources = {
        "block": ["--family", "random_block_graph", "--n", "300", "--blocks", "60", "--seed", "3"],
        "fold": ["--file", fold_file],
        "exact": ["--family", "cycle", "--n", "12", "--q", "1", "--method", "exact"],
        "formula": ["--family", "windmill1", "--eta", "2", "--k", "3", "--l", "2", "--q", "4"],
    }
    paths = []
    for method, source in sources.items():
        paths.append((f"{method}-trace", ["compute", *source, "--trace", trace], 0, False))
        paths.append((f"{method}-json", ["compute", *source, "--json"], 0, True))
    return paths + [
        ("exact-trace-json", ["compute", *sources["exact"], "--trace", trace, "--json"], 0, True),
        ("verify", ["verify", "--family", "star", "--arms", "1,2,3", "--q-list", "0,1,6"], 0, False),
        ("verify-json", ["verify", "--file", bowtie, "--q-list", "0,1", "--json"], 0, True),
        ("strategy", ["strategy", "--family", "star", "--arms", "1,1,1", "--q", "2"], 0, False),
        ("exit-1", ["compute", "--file", bowtie, "--output", str(tmp_path / "no" / "out")], 1, False),
        ("exit-2", ["compute", "--file", spelled], 2, False),
        ("exit-3", ["verify", "--family", "cycle", "--n", "21", "--q-list", "1"], 3, False),
        ("exit-4", ["verify", "--family", "windmill1", "--eta", "2", "--k", "3", "--l", "1", "--q-list", "1"],
         4, False),
    ]


def test_no_command_leaves_cyclic_garbage(tmp_path, capsys, monkeypatch):
    # main pauses the cyclic collector while a command runs, which is safe
    # only while no command leaves reference cycles behind: with the
    # collector off, a run leaves nothing for it to find. The one allowance
    # is the stdlib's indented json.dumps, whose encoder closures refer to
    # each other; it leaves the same few objects per call, whatever it
    # encodes.
    dumps = _cyclic_garbage(lambda: json.dumps({"value": [1, 2], "params": None}, indent=2))[1]
    found = {}
    for name, argv, code, dumped in _every_main_path(tmp_path, monkeypatch):
        assert _cyclic_garbage(lambda: main(argv)) == (code, dumps if dumped else 0), name
        found[name] = capsys.readouterr()
    assert found["exit-2"].err.startswith("error: line 1: ")
    assert "[MISMATCH]" in found["exit-4"].out


@pytest.mark.parametrize("n", [300, 3000])
def test_block_runs_leave_cyclic_garbage_that_does_not_grow_with_the_graph(tmp_path, capsys, n):
    dumps = _cyclic_garbage(lambda: json.dumps({"value": 1}, indent=2))[1]
    g = random_block_graph(n, random.Random(n))
    f = _write(tmp_path, "blocks.el", format_edge_list(g))
    trace = str(tmp_path / "blocks.cert")
    assert _cyclic_garbage(lambda: main(["compute", "--file", f, "--trace", trace])) == (0, 0)
    assert f"value: {block_graph_Z(g)[0]}" in capsys.readouterr().out
    assert _cyclic_garbage(lambda: main(["compute", "--file", f, "--trace", trace, "--json"])) == (0, dumps)
    assert json.loads(capsys.readouterr().out)["value"] == block_graph_Z(g)[0]


def test_block_trace_writes_the_certificate_text_in_chunks(tmp_path, capsys):
    # 3,000 lines: five whole chunks of 512 and a short last one.
    g = random_block_graph(3_000, random.Random(38), blocks=600)
    f = _write(tmp_path, "blocks.el", format_edge_list(g))
    trace = tmp_path / "blocks.cert"
    assert main(["compute", "--file", f, "--trace", str(trace)]) == 0
    assert "value: 2400" in capsys.readouterr().out.splitlines()
    text = trace.read_text(encoding="utf-8")
    assert text.count("\n") == 3_000
    assert text == format_certificate(certificate_from_tokens(g, block_graph_Z(g)[1]))


@pytest.mark.parametrize("g", [
    Graph.from_edges(1, []),
    Graph.from_edges(6, [(4, 1), (1, 3)]),  # isolated vertices 0, 2 and 5
    disjoint_union(cycle(7), Graph.from_edges(3, []), BOWTIE, rng=random.Random(4)),
    random_block_graph(600, random.Random(38), blocks=120),
], ids=["one-vertex", "isolated", "shuffled-union", "block-600"])
def test_format_edge_list_writes_the_header_and_then_each_edge_once(g):
    assert format_edge_list(g) == "\n".join([f"n {g.n}", *(f"{u} {v}" for u, v in g.edges)]) + "\n"
    assert parse_edge_list(format_edge_list(g)) == g


def test_block_trace_builds_no_vertex_sized_temporaries(tmp_path, capsys):
    # Above the graph, its blocks and the certificate, compute --trace holds
    # nothing proportional to n: the tokens, the closure and the check are
    # bytearrays of flags, and the certificate text is streamed to its file.
    # Traced by tracemalloc, the run peaks at about 1.2x what those three
    # hold. Joining the text before writing it takes the run to about 1.37x;
    # frozensets of the tokens and the closure, a set-based check and the
    # joined text together took it to about 1.93x.
    g = random_block_graph(20_000, random.Random(31), blocks=4_000)
    text = format_edge_list(g)
    f = _write(tmp_path, "blocks.el", text)
    trace = str(tmp_path / "blocks.cert")
    del g
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        kept = (find_blocks(g), certificate_from_tokens(g, block_graph_Z(g)[1]))
        held = tracemalloc.get_traced_memory()[0]
        del g, kept
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(["compute", "--file", f, "--trace", trace]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert "value: 16000" in capsys.readouterr().out.splitlines()
    assert peak < 1.35 * held, (peak, held)


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, collecting):
    # On every exit code, and when a command raises past main, the cyclic
    # collector ends as the caller had it: a caller that paused it finds it
    # still paused.
    import zqforce.cli as cli

    paths = [(name, argv, code) for name, argv, code, _ in _every_main_path(tmp_path, monkeypatch)]
    assert {code for _, _, code in paths} == {0, 1, 2, 3, 4}

    def boom(args):
        raise RuntimeError("boom")

    try:
        (gc.enable if collecting else gc.disable)()
        for name, argv, code in paths:
            assert main(argv) == code, name
            assert gc.isenabled() is collecting, name
        monkeypatch.setattr(cli, "_load_graph", boom)
        for command in (["compute"], ["verify", "--q-list", "0"], ["strategy"]):
            with pytest.raises(RuntimeError, match="boom"):
                main([*command, "--family", "cycle", "--n", "5"])
            assert gc.isenabled() is collecting, command
    finally:
        gc.enable()
    capsys.readouterr()


def test_strategy_prints_no_play_that_fails_its_check(capsys, monkeypatch):
    # Like compute's certificates, the play strategy prints is checked
    # first: one that fails prints nothing, and the run exits 1.
    import zqforce.cli as cli

    real = cli.extract_player_trace

    def short(sol):
        cert = real(sol)
        return dataclasses.replace(cert, trace=cert.trace[:-1])  # leaves the last vertex unfilled

    monkeypatch.setattr(cli, "extract_player_trace", short)
    assert main(["strategy", "--family", "cycle", "--n", "5", "--q", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: emitted certificate failed verification\n"
