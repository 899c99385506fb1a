import os
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fanwidth
from fanwidth import (
    Graph,
    ProductVertex,
    StarMetric,
    build_embedding,
    cli,
    fan_certificate,
    grid_graph,
    minfill_decomposition,
    path_graph,
    product_pipeline,
)
from fanwidth.cli import main
from fanwidth.embedding import MAX_COLUMNS
from fanwidth.formats import (
    parse_certificate,
    parse_product_input,
    serialize_certificate,
    serialize_drawing,
    serialize_graph,
    serialize_product_input,
    serialize_vertex_set,
)
from fanwidth.pipeline import DrawnGraph, sparsify_product

from conftest import grid_in_product
from test_pipeline import k5, k5_drawing

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def work(tmp_path):
    g, _ = grid_graph(5, 5)
    (tmp_path / "g.txt").write_text(serialize_graph(g))
    host, gg, placements = grid_in_product(5)
    (tmp_path / "p.txt").write_text(
        serialize_product_input(host, None, 5, placements, gg)
    )
    (tmp_path / "d.txt").write_text(serialize_drawing(k5_drawing()))
    (tmp_path / "k5.txt").write_text(serialize_graph(k5()))
    (tmp_path / "ptd.txt").write_text(serialize_product_input(
        host, minfill_decomposition(host), 5, placements, gg))
    (tmp_path / "c.txt").write_text(serialize_certificate(
        fan_certificate(g, [0, 12], [v for v in g.vertices() if v not in (0, 12)], 5)))
    return tmp_path


# Parser fuzzing: every mutation of a valid document must end in exit 0, 1
# or 2.  Substituted integers stay small, so that a missing bound cannot ask
# for a huge allocation; the one huge token is a count seen to crash a parser.
FUZZ_TOKENS = st.one_of(
    st.integers(-10**4, 10**4).map(str),
    st.sampled_from(["2-1", "x", "1.5", ":", "[G]", "[TD]", "end",
                     "199999999999999999999"]),
)
# kind -> (document mutated, command that reads it as m.txt); file names
# are in the test's work directory
FUZZ_COMMANDS = {
    "graph": ("g.txt", ["verify", "--graph", "m.txt", "--cert", "c.txt"]),
    "product": ("ptd.txt", ["sparsify", "--product", "m.txt", "--D", "4",
                            "--out", "x.txt"]),
    "certificate": ("c.txt", ["verify", "--graph", "g.txt", "--cert", "m.txt"]),
    "drawing": ("d.txt", ["reduce-kplanar", "--drawing", "m.txt", "--kk", "1",
                          "--D", "5", "--a", "2", "--out", "x.txt"]),
    # --kk 0 allows no crossing: a drawing that keeps one is an input error
    "drawing-k0": ("d.txt", ["reduce-kplanar", "--drawing", "m.txt", "--kk", "0",
                             "--D", "5", "--a", "2", "--out", "x.txt"]),
}


@st.composite
def mutations(draw, text: str) -> str:
    """``text`` with one to three edits: a field replaced (any field of the
    document alike), a line deleted, duplicated or inserted, or the rest of
    the text cut off."""
    lines = [row.split() for row in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            lines = [[]]
        edit = draw(st.sampled_from(["field", "field", "delete", "duplicate",
                                     "insert", "cut"]))
        fields = [(t, f) for t, row in enumerate(lines) for f in range(len(row))]
        if edit == "field" and fields:
            t, f = draw(st.sampled_from(fields))
            lines[t][f] = draw(FUZZ_TOKENS)
            continue
        t = draw(st.integers(0, len(lines) - 1))
        if edit == "delete":
            del lines[t]
        elif edit == "duplicate":
            lines.insert(t, list(lines[t]))
        elif edit == "insert":
            lines.insert(t, draw(st.lists(FUZZ_TOKENS, max_size=3)))
        else:
            lines = lines[:t]
    return "".join(" ".join(row) + "\n" for row in lines)


def run(*argv):
    return main([str(a) for a in argv])


class TestSparsifyCommand:
    def test_graph_mode_writes_x_and_report(self, work):
        out = work / "x.txt"
        assert run("sparsify", "--graph", work / "g.txt", "--D", "8",
                   "--out", out) == 0
        assert out.exists()
        report = (out.parent / "x.txt.report").read_text()
        assert "density_le_D yes" in report

    def test_product_mode(self, work):
        out = work / "sp.txt"
        assert run("sparsify", "--product", work / "p.txt", "--D", "4",
                   "--out", out) == 0
        assert out.read_text().startswith("N ")

    def test_byte_identical_reruns(self, work):
        out1, out2 = work / "a.txt", work / "b.txt"
        for out in (out1, out2):
            assert run("sparsify", "--graph", work / "g.txt", "--D", "6",
                       "--out", out) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (work / "a.txt.report").read_bytes() == (work / "b.txt.report").read_bytes()

    def test_malformed_graph_exits_2(self, work, capsys):
        bad = work / "bad.txt"
        bad.write_text("2 1\n0 5\n")
        assert run("sparsify", "--graph", bad, "--D", "2", "--out",
                   work / "x.txt") == 2

    @pytest.mark.parametrize("graph, D", [
        ("0 0\n", "2"),  # no vertices
        (None, "abc"),    # not a number
        (None, "1/0"),    # zero denominator
        ("199999999999999999999 0\n", "2"),  # refused before allocating
    ], ids=["no-vertices", "not-a-number", "zero-denominator", "huge-vertex-count"])
    def test_bad_input_exits_2_without_traceback(self, work, graph, D):
        path = work / "g.txt"
        if graph is not None:
            path = work / "empty.txt"
            path.write_text(graph)
        assert run("sparsify", "--graph", path, f"--D={D}", "--out",
                   work / "x.txt") == 2

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(D=st.text(max_size=12))
    @example(D="1e400")
    def test_any_density_text_ends_in_an_exit_code(self, work, D):
        for source in (["--graph", work / "g.txt"], ["--product", work / "p.txt"]):
            assert run("sparsify", *source, f"--D={D}", "--out",
                       work / "x.txt") in (0, 1, 2)

    @pytest.mark.parametrize("kind", sorted(FUZZ_COMMANDS))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_mutated_document_ends_in_an_exit_code(self, work, capsys, kind, data):
        source, command = FUZZ_COMMANDS[kind]
        (work / "m.txt").write_text(data.draw(mutations((work / source).read_text())))
        assert run(*[work / a if a.endswith(".txt") else a for a in command]) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_t_is_not_a_flag(self, work):
        # the Baker sparsifier never read t, so the flag is gone
        with pytest.raises(SystemExit) as exc:
            run("sparsify", "--graph", work / "g.txt", "--D", "8", "--t", "3",
                "--out", work / "x.txt")
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [
        ("--k", "3"), ("--a", "2"), ("--restarts", "4"), ("--dims-cap", "5"),
        ("--mode", "exploratory"), ("--seed", "7"),
    ])
    def test_pipeline_flags_are_not_flags(self, work, flag):
        # sparsify reads only --D; these would be accepted and ignored
        with pytest.raises(SystemExit) as exc:
            run("sparsify", "--graph", work / "g.txt", "--D", "8", *flag,
                "--out", work / "x.txt")
        assert exc.value.code == 2

    def test_diagnostics_carry_line_numbers(self, work, capsys):
        bad = work / "bad.txt"
        bad.write_text("3 2\n0 1\nnot an edge\n")
        assert run("sparsify", "--graph", bad, "--D", "2", "--out",
                   work / "x.txt") == 2
        assert "line 3" in capsys.readouterr().err


class TestCertifyAndVerify:
    def test_end_to_end_graph(self, work):
        cert = work / "cert.txt"
        assert run("certify", "--graph", work / "g.txt", "--D", "8",
                   "--seed", "7", "--a", "2", "--k", "3", "--out", cert) == 0
        assert run("verify", "--graph", work / "g.txt", "--cert", cert) == 0

    def test_end_to_end_product(self, work):
        cert = work / "cert.txt"
        assert run("certify", "--product", work / "p.txt", "--D", "8",
                   "--seed", "7", "--a", "2", "--k", "3", "--out", cert) == 0
        assert run("verify", "--product", work / "p.txt", "--cert", cert) == 0

    def test_verify_product_never_runs_minfill(self, work, monkeypatch):
        # verify reads only the embedded graph of a product document, so a
        # document without [TD] must not cost a host decomposition
        cert = work / "cert.txt"
        assert run("certify", "--product", work / "p.txt", "--D", "8",
                   "--seed", "5", "--a", "2", "--k", "3", "--out", cert) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("verify ran minfill_decomposition")

        for mod in (fanwidth, fanwidth.treedec, fanwidth.sparsify, fanwidth.pipeline,
                    cli):
            monkeypatch.setattr(mod, "minfill_decomposition", refuse, raising=False)
        assert run("verify", "--product", work / "p.txt", "--cert", cert) == 0

    def test_tampered_certificate_exits_1(self, work, capsys):
        cert = work / "cert.txt"
        run("certify", "--graph", work / "g.txt", "--D", "8", "--seed", "7",
            "--a", "2", "--k", "3", "--out", cert)
        parsed = parse_certificate(cert.read_text())
        victim = parsed.ordering[0]
        other = parsed.ordering[1]
        parsed.mapping[victim] = parsed.mapping[other]
        cert.write_text(serialize_certificate(parsed))
        assert run("verify", "--graph", work / "g.txt", "--cert", cert) == 1
        err = capsys.readouterr().err
        assert "share node" in err

    @pytest.mark.parametrize("extra, message", [
        ("0", "X lists a vertex id more than once"),
        ("999", "X vertex 999 is not in the graph"),
        ("-3", "vertex -3: center membership disagrees with X"),
    ], ids=["duplicate", "outside-the-graph", "not-mapped-to-the-center"])
    def test_x_line_is_checked(self, work, capsys, extra, message):
        # at D=4 the whole 4x4 grid is X, so the ordering and the mapping
        # stay valid and only the X line is wrong
        (work / "g4.txt").write_text(serialize_graph(grid_graph(4, 4)[0]))
        cert = work / "cert.txt"
        assert run("certify", "--graph", work / "g4.txt", "--D", "4",
                   "--seed", "1", "--out", cert) == 0
        lines = cert.read_text().splitlines()
        t = next(t for t, row in enumerate(lines) if row.startswith("X "))
        assert lines[t].split()[1:] == [str(v) for v in range(16)]
        lines[t] += " " + extra
        cert.write_text("\n".join(lines) + "\n")
        assert run("verify", "--graph", work / "g4.txt", "--cert", cert) == 1
        assert message in capsys.readouterr().err.splitlines()

    def test_byte_identical_certificates(self, work):
        c1, c2 = work / "c1.txt", work / "c2.txt"
        for out in (c1, c2):
            assert run("certify", "--graph", work / "g.txt", "--D", "8",
                       "--seed", "11", "--a", "2", "--k", "3", "--out", out) == 0
        assert c1.read_bytes() == c2.read_bytes()

    def test_seed_changes_output(self, work):
        c1, c2 = work / "c1.txt", work / "c2.txt"
        run("certify", "--graph", work / "g.txt", "--D", "8", "--seed", "1",
            "--a", "2", "--k", "3", "--out", c1)
        run("certify", "--graph", work / "g.txt", "--D", "8", "--seed", "2",
            "--a", "2", "--k", "3", "--out", c2)
        cert1, cert2 = (parse_certificate(p.read_text()) for p in (c1, c2))
        assert cert1.seed != cert2.seed

    def test_uncapped_run_is_certified(self, work):
        cert = work / "c.txt"
        assert run("certify", "--graph", work / "g.txt", "--D", "8", "--a", "2",
                   "--k", "3", "--out", cert) == 0
        params = [row for row in cert.read_text().splitlines()
                  if row.startswith("param ")]
        assert "param mode certified" in params
        assert not any(row.startswith("param dims_cap ") for row in params)

    def test_exploratory_mode_allows_dims_cap(self, work):
        # a run is exploratory exactly when it has a --dims-cap
        cert = work / "c.txt"
        assert run("certify", "--graph", work / "g.txt", "--D", "8",
                   "--dims-cap", "16", "--a", "2", "--k", "3", "--out", cert) == 0
        params = cert.read_text().splitlines()
        assert "param mode exploratory" in params
        assert "param dims_cap 16" in params


# command -> the flags before its missing input file
MISSING_INPUT_SOURCES = {
    "embed": ["--product"], "order": ["--graph"], "certify": ["--product"],
    "reduce-kplanar": ["--kk", "1", "--drawing"],
    "reduce-gk": ["--genus", "1", "--kk", "1", "--drawing"],
}
BAD_ORDERING_FLAGS = [
    (["--restarts", "0"], "--restarts must be at least 1"),
    (["--k", "1"], "embedding needs k >= 2"),
    (["--a", "nan"], "--a nan is not a finite positive number"),
    (["--dims-cap", "0"], "--dims-cap must be at least 1"),
]


def bad_flag_cases():
    for command, source in MISSING_INPUT_SOURCES.items():
        for flag, message in BAD_ORDERING_FLAGS:
            # embed makes no ordering, and the reductions take no --k
            if command == "embed" and flag[0] == "--restarts":
                continue
            if command.startswith("reduce") and flag[0] == "--k":
                continue
            yield pytest.param(command, source, flag, message, id=f"{command}{flag[0]}")


class TestExitCodes:
    @pytest.mark.parametrize("error", [AssertionError, RuntimeError])
    def test_broken_invariant_exits_3(self, work, monkeypatch, capsys, error):
        def broken(*args, **kwargs):
            raise error("strip weight exceeds its bound")

        monkeypatch.setattr(cli, "product_pipeline", broken)
        assert run("certify", "--product", work / "p.txt", "--D", "8",
                   "--out", work / "cert.txt") == 3
        assert capsys.readouterr().err == (
            "internal invariant failed: strip weight exceeds its bound\n")

    @pytest.mark.parametrize("argv", [
        ("certify", "--a", "nan"),
        ("certify", "--a", "inf"),
        ("certify", "--dims-cap", "-2"),
        ("certify", "--dims-cap", "0"),
        ("oracle", "--what", "reciprocal", "--trials", "0"),
        ("oracle", "--what", "volume-sandwich", "--trials", "-1"),
    ], ids=["a-nan", "a-inf", "dims-cap-negative", "dims-cap-zero",
            "reciprocal-no-trials", "volume-negative-trials"])
    def test_bad_numeric_flag_exits_2(self, work, capsys, argv):
        command, *flags = argv
        if command == "certify":
            flags += ["--graph", work / "g.txt", "--D", "8", "--out",
                      work / "cert.txt"]
        assert run(command, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("k", ["1", "-3"])
    def test_k_below_two_exits_2_whatever_the_input(self, work, capsys, k):
        # a 4-vertex path keeps fewer than two survivors, so no embedding
        # would check k
        (work / "p4.txt").write_text(serialize_graph(path_graph(4)))
        out = work / "cert.txt"
        assert run("certify", "--graph", work / "p4.txt", "--D", "2", "--k", k,
                   "--out", out) == 2
        assert capsys.readouterr().err == "error: embedding needs k >= 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "sparsify"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, work, capsys, command, target):
        out = work / "missing" / "c.txt"
        if target == "directory":
            out = work / "sub"
            out.mkdir()
        assert run(command, "--graph", work / "g.txt", "--D", "2", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert not pathlib.Path(f"{out}.tmp").exists()
        assert out.is_dir() == (target == "directory")

    @pytest.mark.parametrize("argv", [
        ("sparsify", "--out", "x.txt"),
        ("embed", "--out", "emb.txt"),
        ("order", "--out", "ord.txt"),
        ("certify", "--out", "cert.txt"),
        ("oracle", "--what", "metric-axioms"),
    ], ids=lambda argv: argv[0])
    def test_overflowing_density_exits_2_on_every_product_command(self, work, capsys,
                                                                  argv):
        # float("1e400") is inf, which no Fraction can hold
        command, *flags = argv
        flags = [work / f if f.endswith(".txt") else f for f in flags]
        assert run(command, *flags, "--product", work / "p.txt", "--D", "1e400") == 2
        err = capsys.readouterr().err
        assert err == "error: --D '1e400' is not finite\n"

    @pytest.mark.parametrize("command, kind, source, D", [
        ("certify", "--graph", "g4.txt", "16"), ("certify", "--product", "p.txt", "8"),
        ("order", "--product", "p.txt", "8"), ("embed", "--product", "p.txt", "8"),
    ], ids=["certify-graph", "certify-product", "order", "embed"])
    @pytest.mark.parametrize("flag", [("--a", "1e15"), ("--a", "1e300"),
                                      ("--k", "1000000000000")],
                             ids=["a-1e15", "a-1e300", "k-1e12"])
    def test_huge_embedding_dimension_exits_2(self, work, capsys, command, kind, source,
                                              D, flag):
        (work / "g4.txt").write_text(serialize_graph(grid_graph(4, 4)[0]))
        assert run(command, kind, work / source, "--D", D, *flag,
                   "--out", work / "out.txt") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: embedding dimension ")
        assert f"exceeds the supported {MAX_COLUMNS} columns" in err
        assert err.count("\n") == 1

    def test_400_digit_k_exits_2(self, work, capsys):
        # too large for a float: the OverflowError branch of the shape check
        (work / "g4.txt").write_text(serialize_graph(grid_graph(4, 4)[0]))
        assert run("certify", "--graph", work / "g4.txt", "--D", "16", "--k", "9" * 400,
                   "--out", work / "out.txt") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: embedding dimension ")
        assert err.endswith(f" exceeds the supported {MAX_COLUMNS} columns\n")
        assert MAX_COLUMNS == 2097152 and err.count("\n") == 1

    def test_zero_restarts_exits_2(self, work, capsys):
        assert run("order", "--graph", work / "g.txt", "--D", "8", "--restarts", "0",
                   "--out", work / "ord.txt") == 2
        assert capsys.readouterr().err == "error: --restarts must be at least 1\n"

    @pytest.mark.parametrize("command, source, flag, message", bad_flag_cases())
    def test_bad_flag_is_reported_before_a_missing_input(self, work, capsys, command,
                                                         source, flag, message):
        out = work / "out.txt"
        assert run(command, *source, work / "missing.txt", "--D", "8", *flag,
                   "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("entry", [fanwidth.planar_pipeline, fanwidth.product_pipeline,
                                       fanwidth.kplanar_reduce, fanwidth.gk_reduce],
                             ids=lambda entry: entry.__name__)
    def test_library_defaults_are_the_flag_defaults(self, entry):
        import argparse
        import inspect

        subs = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
        signature = inspect.signature(entry).parameters
        for name in ("a", "restarts"):
            flag_defaults = {repr(sub.get_default(name))
                             for command, sub in subs.choices.items()
                             if f"--{name}" in FLAGS[command]}
            assert flag_defaults == {repr(signature[name].default)}
        assert repr(signature["a"].default) == "193.0"

    def test_missing_graph_file_exits_2(self, work, capsys):
        path = work / "missing.txt"
        assert run("certify", "--graph", path, "--D", "8", "--out", work / "c2.txt") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, argv", [
        ("--graph", ["verify", "--cert", "c.txt"]),
        ("--product", ["verify", "--cert", "c.txt"]),
        ("--cert", ["verify", "--graph", "g.txt"]),
        ("--drawing", ["reduce-kplanar", "--kk", "1", "--D", "5", "--out", "x.txt"]),
        ("--planarizing", ["reduce-gk", "--drawing", "d.txt", "--genus", "1", "--kk",
                           "1", "--D", "4", "--out", "x.txt"]),
    ], ids=["graph", "product", "cert", "drawing", "planarizing"])
    def test_non_utf8_file_exits_2(self, work, capsys, flag, argv):
        # the one unreadable file is the flag's; the command's other inputs are valid
        bad = work / "bad.bin"
        bad.write_bytes(b"\xff\xfe\x00")
        argv = [work / a if a.endswith(".txt") else a for a in argv]
        assert run(*argv, flag, bad) == 2
        err = capsys.readouterr().err
        assert err == (f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")
        assert not (work / "x.txt").exists()

    @pytest.mark.parametrize("restarts", ["9" * 20, "1310720"])
    def test_oversized_restarts_exits_2_before_drawing_a_seed(self, work, restarts):
        # a restart seed is drawn per restart before anything is embedded, so
        # an unchecked count runs until it is killed, and 1310720 restarts of
        # 8 directions each, within the direction matrix's own bound, took
        # 1.5 minutes and 1.25 GB: a subprocess with a timeout turns either
        # into a failure
        import subprocess
        import sys

        out = work / "ord.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "fanwidth.cli", "order", "--graph", str(work / "g.txt"),
             "--D", "20", "--dims-cap", "8", "--restarts", restarts, "--out", str(out)],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert proc.stderr == (f"error: --restarts {restarts} needs {restarts} x (8 + 20) "
                               "direction and height entries, more than the supported "
                               f"5 x ({MAX_COLUMNS} + 20)\n")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["X", "ordering"])
    def test_non_integer_certificate_id_exits_2(self, work, capsys, field):
        lines = (work / "c.txt").read_text().splitlines()
        t = next(t for t, row in enumerate(lines) if row.split()[0] == field)
        lines[t] = f"{field} 2-1 " + lines[t][len(field):]
        (work / "bad.txt").write_text("\n".join(lines) + "\n")
        assert run("verify", "--graph", work / "g.txt", "--cert", work / "bad.txt") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {t + 1}: non-integer field in '{field} line'")
        assert err.count("\n") == 1

    def test_huge_placement_count_exits_2(self, work, capsys):
        lines = (work / "p.txt").read_text().splitlines()
        t = lines.index("[G]") + 1
        lines[t] = "199999999999999999999 24"
        (work / "bad.txt").write_text("\n".join(lines) + "\n")
        assert run("sparsify", "--product", work / "bad.txt", "--D", "4",
                   "--out", work / "x.txt") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {t + 1}: 199999999999999999999 placements")
        assert err.count("\n") == 1


# subcommand -> its flags, an alias after a slash; pinned so that a flag no
# command reads cannot come back unnoticed
FLAGS = {
    "sparsify": ["--graph", "--product", "--out", "--D"],
    "embed": ["--product", "--out", "--seed", "--D", "--k", "--a", "--dims-cap"],
    "order": ["--graph", "--product", "--out", "--seed", "--D", "--k", "--a",
              "--dims-cap", "--restarts"],
    "certify": ["--graph", "--product", "--b", "--out", "--seed", "--D", "--k",
                "--a", "--dims-cap", "--restarts"],
    "verify": ["--graph", "--product", "--cert"],
    "reduce-kplanar": ["--drawing", "--kk/--crossings-per-edge", "--b", "--out",
                       "--seed", "--D", "--a", "--dims-cap", "--restarts"],
    "reduce-gk": ["--drawing", "--genus", "--kk/--crossings-per-edge",
                  "--planarizing", "--b", "--out", "--seed", "--D", "--a",
                  "--dims-cap", "--restarts"],
    "oracle": ["--what", "--graph", "--product", "--D", "--trials", "--seed",
               "--out"],
}

# subcommand -> a valid argv after it, file names in the work directory
VALID_ARGV = {
    "sparsify": ["--graph", "g.txt", "--D", "8", "--out", "x.txt"],
    "embed": ["--product", "p.txt", "--D", "8", "--out", "emb.txt"],
    "order": ["--graph", "g.txt", "--D", "8", "--out", "ord.txt"],
    "certify": ["--graph", "g.txt", "--D", "8", "--out", "cert.txt"],
    "verify": ["--graph", "g.txt", "--cert", "c.txt"],
    "reduce-kplanar": ["--drawing", "d.txt", "--kk", "1", "--D", "5",
                       "--out", "cert.txt"],
    "reduce-gk": ["--drawing", "d.txt", "--genus", "0", "--kk", "1", "--D", "5",
                  "--out", "cert.txt"],
    "oracle": ["--what", "bandwidth", "--graph", "g.txt"],
}


class TestParser:
    def test_flag_inventory(self):
        import argparse

        subs = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
        flags = {name: ["/".join(action.option_strings) for action in sub._actions
                        if action.dest != "help"]
                 for name, sub in subs.choices.items()}
        assert flags == FLAGS
        assert sum(map(len, flags.values())) == 60

    @staticmethod
    def usage_error(work, capsys, command, argv) -> str:
        """The stderr of ``command argv`` (file names in ``work``), which
        argparse must reject with exit 2."""
        with pytest.raises(SystemExit) as exc:
            run(command, *[work / a if a.endswith(".txt") else a for a in argv])
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(VALID_ARGV))
    def test_mode_is_not_a_flag(self, work, capsys, command):
        # the mode follows from --dims-cap
        err = self.usage_error(work, capsys, command,
                               VALID_ARGV[command] + ["--mode", "certified"])
        assert err == "error: unrecognized arguments: --mode certified\n"

    @pytest.mark.parametrize("command, flag", [
        ("certify", "--dims"), ("certify", "--rest"), ("reduce-gk", "--plan"),
        ("reduce-kplanar", "--crossings"), ("oracle", "--tri"),
    ])
    def test_flags_are_spelled_in_full(self, work, capsys, command, flag):
        err = self.usage_error(work, capsys, command, VALID_ARGV[command] + [flag, "4"])
        assert err == f"error: unrecognized arguments: {flag} 4\n"

    @pytest.mark.parametrize("command", ["sparsify", "embed", "order", "certify",
                                         "reduce-kplanar", "reduce-gk"])
    def test_missing_out_is_one_line(self, work, capsys, command):
        *argv, flag, _ = VALID_ARGV[command]
        assert flag == "--out"
        err = self.usage_error(work, capsys, command, argv)
        assert err == "error: the following arguments are required: --out\n"

    def test_missing_command_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: the following arguments are required: command\n")


class TestOrderAndEmbed:
    def test_order_writes_bandwidth(self, work):
        out = work / "ord.txt"
        assert run("order", "--product", work / "p.txt", "--D", "8",
                   "--seed", "5", "--a", "2", "--k", "3", "--out", out) == 0
        text = out.read_text()
        assert text.startswith("ordering")
        assert "bandwidth" in text

    def test_embed_dump_header(self, work):
        out = work / "emb.txt"
        assert run("embed", "--product", work / "p.txt", "--D", "8",
                   "--seed", "5", "--a", "2", "--k", "3",
                   "--dims-cap", "8", "--out", out) == 0
        header = out.read_text().splitlines()[0].split()
        assert header[1] == "8"  # capped dimension

    @pytest.mark.parametrize("restarts", ["1", "4", "9"])
    def test_embed_takes_no_restarts(self, work, restarts):
        # embed makes no ordering; a --restarts would be accepted and ignored
        with pytest.raises(SystemExit) as exc:
            run("embed", "--product", work / "p.txt", "--D", "8", "--seed", "7",
                "--restarts", restarts, "--out", work / "emb.txt")
        assert exc.value.code == 2

    def test_embed_writes_plain_numbers(self, work):
        # each token reads back with float() to the coordinate, bit for bit
        out = work / "emb.txt"
        assert run("embed", "--product", work / "p.txt", "--D", "8", "--seed", "5",
                   "--a", "2", "--k", "3", "--out", out) == 0
        host, td, _, placements, g = parse_product_input((work / "p.txt").read_text())
        _, sp, placed, removed = sparsify_product(host, td, g, placements, 8)
        ids = [v for v in placed if v not in removed]
        emb = build_embedding(ids, [placed[v] for v in ids], sp, 3, 2.0, 5)
        rows = [line.split() for line in out.read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == ids
        coords = np.array([[float(tok) for tok in row[1:]] for row in rows])
        assert coords.tobytes() == emb.coords.tobytes()

    def test_embed_everything_removed_is_input_error(self, work):
        # a dense grid at the minimum density has no survivors to embed
        assert run("embed", "--product", work / "p.txt", "--D", "2",
                   "--seed", "5", "--out", work / "emb.txt") == 2


class TestReduceCommands:
    def test_kplanar(self, work):
        cert = work / "cert.txt"
        assert run("reduce-kplanar", "--drawing", work / "d.txt", "--kk", "1",
                   "--D", "5", "--seed", "3", "--a", "2", "--out", cert) == 0
        assert run("verify", "--graph", work / "k5.txt", "--cert", cert) == 0

    def test_kplanar_k0_rejects_a_crossing(self, work, capsys):
        cert = work / "cert.txt"
        assert run("reduce-kplanar", "--drawing", work / "d.txt", "--kk", "0",
                   "--D", "5", "--a", "2", "--out", cert) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not cert.exists()

    def test_kplanar_k0_rejects_a_nonplanar_graph(self, work, capsys):
        # the plain K5 lists no crossing, but 10 edges exceed 3n - 6 = 9
        drawing = work / "plain.txt"
        drawing.write_text(serialize_drawing(DrawnGraph(k5(), [])))
        cert = work / "cert.txt"
        assert run("reduce-kplanar", "--drawing", drawing, "--kk", "0",
                   "--D", "5", "--a", "2", "--out", cert) == 2
        err = capsys.readouterr().err
        assert err == "error: 10 edges exceed the planar bound 3n-6 = 9; input is not planar\n"
        assert not cert.exists()

    def test_gk_checks_d_against_the_input(self, work, capsys):
        drawing = work / "plain.txt"
        drawing.write_text(serialize_drawing(DrawnGraph(k5(), [])))
        pset = work / "pset.txt"
        pset.write_text(serialize_vertex_set([4]))
        cert = work / "cert.txt"
        argv = ["reduce-gk", "--drawing", drawing, "--genus", "1", "--kk", "0",
                "--planarizing", pset, "--a", "2", "--out", cert]
        assert run(*argv, "--D", "6") == 2
        assert capsys.readouterr().err == "error: D=6 outside [1, 5]\n"
        assert run(*argv, "--D", "5") == 2
        assert capsys.readouterr().err == (
            "error: D=5 exceeds the 4 vertices left once the planarizing set "
            "(size 1) is removed\n")
        assert not cert.exists()

    def test_kplanar_checks_d_against_the_input(self, work, capsys):
        # the planarization of the one-crossing K5 has 6 vertices, the
        # input 5: D is the user's density, so its range is the input's
        cert = work / "cert.txt"
        argv = ["reduce-kplanar", "--drawing", work / "d.txt", "--kk", "1",
                "--seed", "3", "--a", "2", "--out", cert]
        assert run(*argv, "--D", "6") == 2
        err = capsys.readouterr().err
        assert err == "error: D=6 outside [1, 5]\n"
        assert not cert.exists()
        assert run(*argv, "--D", "5") == 0
        assert cert.read_bytes() == (GOLDEN / "k5_kplanar_D5_seed3.txt").read_bytes()

    @pytest.mark.parametrize("command", [
        ("reduce-gk", "--genus", "1", "--planarizing", "pset.txt"),
        ("reduce-gk", "--genus", "0"),
        ("reduce-kplanar",),
    ], ids=["gk-genus-1", "gk-genus-0", "kplanar"])
    def test_negative_kk_exits_2_at_every_genus(self, work, capsys, command):
        # a crossing-free drawing has no edge over any k, so only the check
        # of k itself rejects it
        drawing = work / "plain.txt"
        drawing.write_text(serialize_drawing(DrawnGraph(path_graph(3), [])))
        (work / "pset.txt").write_text(serialize_vertex_set([0]))
        cert = work / "cert.txt"
        argv = [work / a if a.endswith(".txt") else a for a in command]
        assert run(*argv, "--drawing", drawing, "--kk", "-1", "--D", "1",
                   "--out", cert) == 2
        assert capsys.readouterr().err == "error: k must be non-negative\n"
        assert not cert.exists()

    def test_gk_requires_planarizer(self, work):
        assert run("reduce-gk", "--drawing", work / "d.txt", "--genus", "1",
                   "--kk", "1", "--D", "4", "--out", work / "c.txt") == 2

    @pytest.mark.parametrize("pset", ["pset.txt", "missing.txt"])
    def test_gk_genus_zero_rejects_planarizing(self, work, capsys, pset):
        # rejected before the file is read: a set naming vertex 999, and a
        # file that does not exist, give the same one line
        (work / "pset.txt").write_text(serialize_vertex_set([999]))
        cert = work / "cert.txt"
        assert run("reduce-gk", "--drawing", work / "d.txt", "--genus", "0",
                   "--kk", "1", "--D", "5", "--planarizing", work / pset,
                   "--a", "2", "--out", cert) == 2
        assert capsys.readouterr().err == (
            "error: --planarizing is used only at positive --genus\n")
        assert not cert.exists()

    def test_gk_with_planarizer(self, work):
        drawing = work / "plain.txt"
        drawing.write_text(serialize_drawing(DrawnGraph(k5(), [])))
        pset = work / "pset.txt"
        pset.write_text(serialize_vertex_set([4]))
        cert = work / "cert.txt"
        assert run("reduce-gk", "--drawing", drawing, "--genus", "1",
                   "--kk", "0", "--D", "4", "--planarizing", pset,
                   "--a", "2", "--out", cert) == 0
        assert run("verify", "--graph", work / "k5.txt", "--cert", cert) == 0

    @pytest.mark.parametrize("command", [
        ("reduce-kplanar", "--kk", "1"),
        ("reduce-gk", "--genus", "0", "--kk", "1"),
    ])
    def test_k_is_rejected(self, work, capsys, command):
        # the reductions never use k, so they have no --k; and --k is no
        # abbreviation of --kk
        cert = work / "cert.txt"
        with pytest.raises(SystemExit) as exc:
            run(*command, "--drawing", work / "d.txt", "--D", "5",
                "--k", "3", "--out", cert)
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --k 3\n"
        assert not cert.exists()


@st.composite
def sparse_row_products(draw):
    """A product document over path(w) x path whose occupied rows have gaps
    (the row count may exceed the number of points), with every legal
    product edge between the placed points."""
    width = draw(st.integers(1, 3))
    occupied = sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=6)))
    placements = [ProductVertex(h, p) for p in occupied
                  for h in sorted(draw(st.sets(st.integers(0, width - 1), min_size=1)))]
    n = len(placements)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if abs(placements[u].h - placements[v].h) <= 1
             and abs(placements[u].p - placements[v].p) <= 1]
    rows = occupied[-1] + draw(st.integers(0, 3))
    return serialize_product_input(path_graph(width), None, rows, placements,
                                   Graph(n, edges))


class TestProductFrontEnd:
    @given(text=sparse_row_products(), D=st.integers(2, 6))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_unoccupied_rows_are_renumbered_everywhere(self, work, capsys, text, D):
        # every --product command sparsifies the rows that certify uses
        doc = work / "sparse.txt"
        doc.write_text(text)
        host, td, _, placements, g = parse_product_input(text)
        x = product_pipeline(host, td, g, placements, D, a=2, k=2, restarts=1).x
        out = work / "x.txt"
        assert run("sparsify", "--product", doc, "--D", D, "--out", out) == 0
        report = dict(line.split(" ", 1) for line in
                      (work / "x.txt.report").read_text().splitlines())
        assert report["removed_g"].split() == [str(v) for v in sorted(x)]
        for argv in (["embed", "--a", "2", "--k", "2", "--out", work / "emb.txt"],
                     ["oracle", "--what", "metric-axioms"]):
            code = run(*argv, "--product", doc, "--D", D)
            if len(x) < g.n:
                assert code == 0
            else:  # nothing survives to embed or measure
                assert code == 2
                assert "sparsifier removed every vertex" in capsys.readouterr().err


class TestLazyImports:
    """``import fanwidth`` and every command that computes no embedding or
    metric run without loading numpy (a fifth of a ``verify`` job), and
    nothing loads a process pool: the Baker cut forks plain children."""

    POOL = ("multiprocessing", "concurrent.futures")

    @staticmethod
    def loaded(script: str, *argv) -> set:
        """Which of numpy and the process pool modules ``script`` loads."""
        import subprocess
        import sys

        watched = ("numpy",) + TestLazyImports.POOL
        proc = subprocess.run(
            [sys.executable, "-c",
             script + f"print(*[m for m in {watched!r} if m in sys.modules])\n",
             *map(str, argv)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    @classmethod
    def loads_numpy(cls, script: str, *argv) -> bool:
        return "numpy" in cls.loaded(script, *argv)

    @classmethod
    def command_loads(cls, code: int, *argv) -> set:
        return cls.loaded(
            "import sys\nimport fanwidth.cli\n"
            "code = fanwidth.cli.main(sys.argv[2:])\n"
            "assert code == int(sys.argv[1]), code\n", code, *argv)

    @classmethod
    def command_loads_numpy(cls, code: int, *argv) -> bool:
        return "numpy" in cls.command_loads(code, *argv)

    @pytest.mark.parametrize("module", ["fanwidth", "fanwidth.cli"])
    def test_import_never_loads_numpy(self, module):
        assert not self.loads_numpy(f"import sys\nimport {module}\n")

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in ("verify", "sparsify")
        for flag in ("--graph", "--product")], ids=lambda v: v.lstrip("-"))
    def test_never_loads_numpy(self, work, command, flag):
        if command == "verify":
            if flag == "--graph":
                cert = work / "c.txt"
            else:
                _, gg, _ = grid_in_product(5)
                cert = work / "pc.txt"
                cert.write_text(serialize_certificate(
                    fan_certificate(gg, [], gg.vertices(), 5)))
            argv = ["--cert", cert]
        else:
            argv = ["--D", "8", "--out", work / "x.txt"]
        source = work / ("g.txt" if flag == "--graph" else "p.txt")
        assert not self.command_loads_numpy(0, command, flag, source, *argv)

    def test_input_error_never_loads_numpy(self, work):
        assert not self.command_loads_numpy(
            2, "verify", "--graph", work / "missing.txt", "--cert", work / "c.txt")

    def test_missing_oracle_flag_never_loads_numpy(self):
        # the flag checks come before the metric's imports
        assert not self.command_loads_numpy(2, "oracle", "--what", "metric-axioms",
                                            "--D", "8")

    @pytest.mark.parametrize("argv", [
        ["verify", "--graph", "g.txt", "--cert", "c.txt"],
        ["sparsify", "--graph", "g.txt", "--D", "2", "--out", "x.txt"],
    ], ids=lambda argv: argv[0])
    def test_small_commands_never_load_a_process_pool(self, work, argv):
        loaded = self.command_loads(0, *[work / a if a.endswith(".txt") else a
                                         for a in argv])
        assert loaded.isdisjoint(self.POOL)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")
    def test_no_module_and_no_forked_cut_loads_a_process_pool(self, tmp_path):
        # every production module, then a sparsify that forks its slab cut:
        # the 32x32 grid at D=8 cuts 16,030 slab vertices, here on two CPUs
        import pkgutil

        (tmp_path / "g.txt").write_text(serialize_graph(grid_graph(32, 32)[0]))
        modules = sorted(m.name for m in pkgutil.iter_modules(fanwidth.__path__))
        assert {"cli", "pipeline", "sparsify", "treedec"} <= set(modules)
        loaded = self.loaded(
            "import os, sys\n"
            + "".join(f"import fanwidth.{m}\n" for m in modules)
            + "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(fork()) or forks[-1]\n"
            "assert fanwidth.cli.main(sys.argv[1:]) == 0\n"
            "assert len(forks) == 1, forks\n",
            "sparsify", "--graph", tmp_path / "g.txt", "--D", "8",
            "--out", tmp_path / "x.txt")
        assert loaded.isdisjoint(self.POOL)

    def test_certify_with_survivors_loads_numpy(self, work):
        # the guard has teeth: ordering two or more survivors embeds them
        g, _ = grid_graph(5, 5)
        baker = fanwidth.baker_sparsify(g, 8, fanwidth.bfs_layering(g, 0))
        assert g.num_vertices - len(baker.x) >= 2
        assert self.command_loads_numpy(
            0, "certify", "--graph", work / "g.txt", "--D", "8", "--a", "2",
            "--k", "3", "--out", work / "cert.txt")


class TestCrossProcessDeterminism:
    def test_certificates_identical_across_processes(self, work):
        import subprocess
        import sys

        c1, c2 = work / "c1.txt", work / "c2.txt"
        for out in (c1, c2):
            proc = subprocess.run(
                [sys.executable, "-m", "fanwidth.cli", "certify",
                 "--graph", str(work / "g.txt"), "--D", "8", "--seed", "21",
                 "--a", "2", "--k", "3", "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
        assert c1.read_bytes() == c2.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="the platform cannot pin a process to one CPU")
    def test_certificate_identical_on_one_cpu(self, tmp_path):
        # the 32x32 grid at D=8 cuts its Baker slabs on every CPU the process
        # may use; pinned to one, it cuts them in one process
        import subprocess
        import sys

        (tmp_path / "g.txt").write_text(serialize_graph(grid_graph(32, 32)[0]))
        one_cpu = min(os.sched_getaffinity(0))
        outputs = []
        for pin in (True, False):
            out = tmp_path / f"cert-{pin}.txt"
            proc = subprocess.run(
                [sys.executable, "-m", "fanwidth.cli", "certify", "--graph",
                 str(tmp_path / "g.txt"), "--D", "8", "--seed", "3", "--out", str(out)],
                capture_output=True,
                preexec_fn=(lambda: os.sched_setaffinity(0, {one_cpu})) if pin else None)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestBlasThreads:
    """The CLI runs numpy on one BLAS thread unless its caller chose a count."""

    SCRIPT = ("import os, sys\n"
              "{pre}"
              "from fanwidth.cli import main\n"
              "code = main(['verify', '--graph', 'missing.txt', '--cert', 'missing.txt'])\n"
              "print(code, os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))\n")

    def _run(self, threads, pre=""):
        import subprocess
        import sys

        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT.format(pre=pre)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_main_sets_one_thread_when_unset(self):
        assert self._run(None) == ["2", "1"]

    def test_main_keeps_the_callers_count(self):
        assert self._run("3") == ["2", "3"]

    def test_main_leaves_a_loaded_numpy_alone(self):
        # the variable is read when numpy loads, so setting it later would
        # claim a thread count that numpy does not use
        assert self._run(None, pre="import numpy\n") == ["2", "unset"]


class TestGoldenCertificate:
    def test_frozen_bytes(self, tmp_path):
        # regression pin: the column-of-8 run at seed 3 must reproduce the
        # checked-in certificate byte for byte
        from conftest import column_in_product
        from fanwidth import default_blowup_factor, fan_certificate, product_pipeline
        from fanwidth.formats import serialize_certificate

        host, td, g, placements = column_in_product(8)
        res = product_pipeline(host, td, g, placements, D=8, seed=3, a=2,
                               k=2, restarts=3)
        cert = fan_certificate(
            g, res.x, res.ordering, default_blowup_factor(res), seed=3,
            params={"D": "8", "a": "2", "k": "2", "restarts": "3",
                    "mode": "certified"},
        )
        golden = (pathlib.Path(__file__).parent / "golden"
                  / "cert_column8_seed3.txt").read_text()
        assert serialize_certificate(cert) == golden


class TestGoldenProductOutputs:
    """Regression pins for the outputs of the product commands that are not
    certificates, on the 5x5 grid product of the ``work`` fixture."""

    def test_sparsify_bytes(self, work):
        out = work / "sp.txt"
        assert run("sparsify", "--product", work / "p.txt", "--D", "6",
                   "--out", out) == 0
        assert out.read_bytes() == (GOLDEN / "product5_sparsify_D6.txt").read_bytes()
        assert (work / "sp.txt.report").read_bytes() == (
            GOLDEN / "product5_sparsify_D6.txt.report").read_bytes()

    def test_embed_bytes(self, work):
        out = work / "emb.txt"
        assert run("embed", "--product", work / "p.txt", "--D", "8", "--seed", "5",
                   "--a", "2", "--k", "3", "--out", out) == 0
        assert out.read_bytes() == (GOLDEN / "product5_embed_D8_seed5.txt").read_bytes()

    def test_metric_axioms_bytes(self, work, capsys):
        out = work / "axioms.txt"
        assert run("oracle", "--what", "metric-axioms", "--product", work / "p.txt",
                   "--D", "8", "--seed", "1", "--out", out) == 0
        golden = (GOLDEN / "product5_metric_axioms_D8_seed1.txt").read_bytes()
        assert out.read_bytes() == golden
        assert capsys.readouterr().out.encode() == golden


class TestOracleCommand:
    def test_bandwidth(self, work, capsys):
        small = work / "small.txt"
        small.write_text(serialize_graph(path_graph(6)))
        assert run("oracle", "--what", "bandwidth", "--graph", small) == 0
        assert "exact_bandwidth 1" in capsys.readouterr().out

    def test_density(self, work, capsys):
        small = work / "small.txt"
        small.write_text(serialize_graph(path_graph(6)))
        assert run("oracle", "--what", "density", "--graph", small) == 0
        assert "exhaustive_local_density 2" in capsys.readouterr().out

    def test_volume_sandwich(self, capsys):
        assert run("oracle", "--what", "volume-sandwich", "--trials", "40",
                   "--seed", "2") == 0
        assert "violations 0" in capsys.readouterr().out

    def test_reciprocal(self, capsys):
        assert run("oracle", "--what", "reciprocal", "--trials", "30",
                   "--seed", "2") == 0
        assert "reciprocal_trials 30" in capsys.readouterr().out

    def test_missing_graph_flag(self):
        assert run("oracle", "--what", "bandwidth") == 2

    @pytest.mark.parametrize("what,flags,missing", [
        ("bandwidth", [], "--graph"),
        ("density", [], "--graph"),
        ("metric-axioms", ["--D", "8"], "--product"),
        ("metric-axioms", ["--product", "p.txt"], "--D"),
    ], ids=["bandwidth", "density", "metric-axioms-product", "metric-axioms-D"])
    def test_missing_flag_is_a_usage_error(self, work, capsys, what, flags, missing):
        flags = [work / f if f.endswith(".txt") else f for f in flags]
        assert run("oracle", "--what", what, *flags) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: oracle {what} needs {missing}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("what,flags,unread", [
        ("bandwidth", ["--graph", "g.txt", "--trials", "5"], "--trials"),
        ("density", ["--graph", "g.txt", "--product", "missing.txt", "--D", "8"],
         "--product"),
        ("metric-axioms", ["--product", "p.txt", "--D", "8", "--graph", "g.txt"],
         "--graph"),
        ("volume-sandwich", ["--trials", "3", "--graph", "g.txt", "--D", "2"],
         "--graph"),
        ("reciprocal", ["--trials", "3", "--seed", "2", "--D", "8"], "--D"),
    ], ids=["bandwidth", "density", "metric-axioms", "volume-sandwich", "reciprocal"])
    def test_unread_flag_is_a_usage_error(self, work, capsys, what, flags, unread):
        flags = [work / f if f.endswith(".txt") else f for f in flags]
        assert run("oracle", "--what", what, *flags) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: oracle {what} does not read {unread}\n"
        assert captured.out == ""

    def test_metric_axioms_tabulates_d_star_once(self, work, capsys, monkeypatch):
        # the axioms and the density both read StarMetric.matrix(): one
        # d_star call per ordered pair of the 5 points
        calls = []
        d_star = StarMetric.d_star

        def counted(self, u, v):
            calls.append((u, v))
            return d_star(self, u, v)

        monkeypatch.setattr(StarMetric, "d_star", counted)
        assert run("oracle", "--what", "metric-axioms", "--product", work / "p.txt",
                   "--D", "8", "--seed", "1") == 0
        assert "points 5\n" in capsys.readouterr().out
        assert len(calls) == 25

    def test_metric_axioms_writes_then_fails(self, work, capsys, monkeypatch):
        # a violation is written and printed like a pass, then exits 1
        def broken(self):
            # the last point is 7 from every point, itself included
            n = len(self.points)
            return tuple(tuple(int(i != j) for j in range(n))
                         for i in range(n - 1)) + ((7,) * n,)

        monkeypatch.setattr(StarMetric, "matrix", broken)
        out = work / "axioms.txt"
        assert run("oracle", "--what", "metric-axioms", "--product", work / "p.txt",
                   "--D", "8", "--seed", "1", "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.out == out.read_text()
        assert "asymmetry on (p0,p4): 1 vs 7" in captured.out
        assert captured.err == "verification failed: d(p4,p4) != 0\n"

    def test_metric_axioms_report(self, work, capsys):
        assert run("oracle", "--what", "metric-axioms", "--product",
                   work / "p.txt", "--D", "8", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert "violations 0" in out
        assert "detour_metric_density" in out
