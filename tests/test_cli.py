import ast
import io
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

#: A column count past float range: 1 followed by 400 zeros.
HUGE_N = "1" + "0" * 400
#: Column counts that Python's number grammar refuses, though Decimal
#: alone reads each as 1000.
MISPLACED_UNDERSCORES = ("_1000", "1__000", "1000_", "1e_3")

from gekr import cli as cli_module
from gekr import construct, exact, verify
from gekr.cli import main
from gekr.core import parse_array
from gekr.verify import is_gekr


@pytest.fixture
def cli(monkeypatch, capsys):
    def invoke(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = int(exc.code) if exc.code is not None else 0
        out, err = capsys.readouterr()
        return code, out, err

    return invoke


class TestBound:
    def test_independent_reference(self, cli):
        code, out, _ = cli(["bound", "--model", "independent", "--alpha", "0.5", "--n", "10000"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "2.26e289"
        assert lines[1].startswith("log10 = 289.353512")

    def test_fraction_alpha(self, cli):
        code, out, _ = cli(["bound", "--model", "independent", "--alpha", "2/3", "--n", "10000"])
        assert code == 0
        assert out.splitlines()[0] == "4.32e347"

    def test_fixed_asymptotic(self, cli):
        code, out, _ = cli(
            ["bound", "--model", "fixed-asymptotic", "--alpha", "0.7395", "--n", "10000"]
        )
        assert code == 0
        log10 = float(out.splitlines()[1].split("=")[1])
        reference = math.log10(3.28) + 548
        assert abs(log10 - reference) <= max(0.1, 0.005 * reference)

    def test_fixed_exact_by_weight(self, cli):
        code, out, _ = cli(["bound", "--model", "fixed-exact", "--k", "14", "--n", "20"])
        assert code == 0
        assert out.splitlines()[0] == "3.18e0"

    def test_json_round_trip(self, cli):
        args = ["bound", "--model", "independent", "--alpha", "0.5", "--n", "10000"]
        code, plain, _ = cli(args)
        code_j, out_j, _ = cli(args + ["--json"])
        assert code == code_j == 0
        payload = json.loads(out_j)
        assert payload["model"] == "independent"
        assert payload["alpha"] == 0.5
        assert payload["n"] == 10000
        human_log10 = float(plain.splitlines()[1].split("=")[1])
        assert abs(payload["log10"] - human_log10) < 1e-9
        recomposed = math.log10(payload["mantissa"]) + payload["exponent"]
        assert abs(recomposed - payload["log10"]) < 1e-2

    def test_usage_errors(self, cli):
        assert cli(["bound", "--model", "independent", "--alpha", "1.5", "--n", "10"])[0] == 2
        assert cli(["bound", "--model", "independent", "--n", "10"])[0] == 2
        assert cli(["bound", "--model", "independent", "--alpha", "0.5", "--k", "3", "--n", "10"])[0] == 2
        assert cli(["bound", "--model", "fixed-exact", "--alpha", "0.123", "--n", "10"])[0] == 2
        assert cli(["bound", "--model", "unknown", "--alpha", "0.5", "--n", "10"])[0] == 2
        for model in ("independent", "fixed-exact"):
            code, _, err = cli(["bound", "--model", model, "--k", "1", "--n", "0"])
            assert code == 2
            assert "need n >= 1" in err
        for model in ("independent", "fixed-asymptotic"):
            for n in (HUGE_N, *MISPLACED_UNDERSCORES):
                code, out, err = cli(["bound", "--model", model, "--alpha", "0.5", f"--n={n}"])
                assert (code, out) == (2, ""), n
                assert "column count" in err and "Traceback" not in err

    def test_underflowing_density(self, cli):
        # 1e-400 is in (0, 1] as a fraction but 0.0 as a float.
        for argv in (
            ["bound", "--model", "independent", "--alpha", "1e-400", "--n", "10"],
            ["table", "--model", "fixed-asymptotic", "--alphas", "0.5,1e-400", "--ns", "10"],
        ):
            code, out, err = cli(argv)
            assert (code, out) == (2, "")
            assert "density 1e-400 underflows a float" in err

    def test_huge_n(self, cli):
        # Every term of the independent sum rounds to the largest here.
        code, out, _ = cli(["bound", "--model", "independent", "--alpha", "0.5", "--n", "1e300"])
        assert code == 0 and out
        for n in ("10000001", "1e300"):
            code, out, err = cli(["bound", "--model", "fixed-exact", "--k", "3", "--n", n])
            assert (code, out) == (2, "")
            assert "past the limit of 10000000" in err and "Traceback" not in err


#: Run in a fresh interpreter with argv: print main's exit code and the
#: seconds it took, start-up left out.
TIMED_MAIN = """
import sys, time
from gekr.cli import main
start = time.perf_counter()
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, time.perf_counter() - start)
"""


def src_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def timed_main(*argv: str) -> subprocess.CompletedProcess:
    """TIMED_MAIN in a fresh process, so that a hang times out."""
    return subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, *argv], capture_output=True, text=True, env=src_env(), timeout=20
    )


@pytest.mark.parametrize(
    "value, message",
    [("1e-30000000", "density 1e-30000000 underflows a float"),
     ("1e30000000", "density must be in (0, 1], got 1e30000000")],
)
@pytest.mark.parametrize(
    "argv",
    [["bound", "--model", "independent", "--n", "10", "--alpha"],
     ["table", "--model", "independent", "--ns", "10", "--alphas"],
     ["construct", "--model", "independent", "--n", "10", "--m", "3", "--alpha"]],
    ids=lambda argv: argv[0],
)
def test_density_exponent_refused_unexpanded(argv, value, message):
    # Fraction("1e-30000000") would build 10**30000000; the range check
    # reads the exponent first.
    proc = timed_main(*argv, value)
    code, seconds = proc.stdout.split()
    assert code == "2" and float(seconds) < 1.0
    assert message in proc.stderr


@pytest.mark.parametrize("strategy", ["moser-tardos", "rejection", "greedy"])
@pytest.mark.parametrize(
    "model",
    [["--model", "independent", "--alpha", "1"], ["--model", "fixed", "--k", "4"]],
    ids=["independent", "fixed"],
)
def test_density_one_refused_before_resampling(model, strategy):
    # At density 1 every row is all ones and no three cover 011, so the
    # resampling strategies are refused before any draw, not after the
    # default 1,000,000 resamples; greedy stops at two rows.
    proc = timed_main("construct", *model, "--n", "4", "--m", "3", "--strategy", strategy)
    *rows, last = proc.stdout.splitlines()
    code, seconds = last.split()
    if strategy == "greedy":
        assert (code, rows) == ("0", ["1111", "1111"])
    else:
        assert (code, rows) == ("2", []) and float(seconds) < 1.0
        assert "m=3 is out of reach at density 1" in proc.stderr


class TestTable:
    def test_default_independent_shape(self, cli):
        code, out, _ = cli(["table", "--model", "independent"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,n,log10_m,rendered"
        assert len(lines) == 29
        first = lines[1].split(",")
        assert first[0] == "0.1669"
        assert first[1] == "10000"

    def test_default_fixed_shape(self, cli):
        code, out, _ = cli(["table", "--model", "fixed-asymptotic"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 29
        assert lines[1].split(",")[0] == "0.1685"

    def test_custom_grid(self, cli):
        code, out, _ = cli(
            ["table", "--model", "independent", "--alphas", "0.5,2/3", "--ns", "100,1000"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[2].split(",")[:2] == ["0.5", "1000"]
        assert lines[3].split(",")[:2] == ["2/3", "100"]

    def test_bad_grids(self, cli):
        assert cli(["table", "--model", "independent", "--alphas", ""])[0] == 2
        assert cli(["table", "--model", "independent", "--alphas", "0.5", "--ns", "ten"])[0] == 2
        assert cli(["table", "--model", "independent", "--alphas", "1.2"])[0] == 2
        for bad in ("inf", "nan", "-inf", "1e400", "2.5", "0", HUGE_N, *MISPLACED_UNDERSCORES):
            code, _, err = cli(["table", "--model", "independent", f"--ns={bad}"])
            assert code == 2, bad
            assert "column count" in err

    def test_float_notation_is_exact(self, cli):
        # Read as a decimal, not through a float (99999999999999991611392).
        code, out, _ = cli(["table", "--model", "independent", "--alphas", "0.5", "--ns", "1e23,1_000"])
        assert code == 0
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["1" + "0" * 23, "1000"]

    def test_huge_exponent_rejected_unexpanded(self, cli):
        # A billion-digit integer is never built: the range check comes first.
        code, out, err = cli(["table", "--model", "independent", "--ns", "1e999999999"])
        assert (code, out) == (2, "")
        assert "column count '1e999999999'" in err


class TestVerify:
    def test_covered_file(self, cli, tmp_path):
        path = tmp_path / "good.txt"
        path.write_text("1110\n1101\n1011\n")
        code, out, _ = cli(["verify", str(path)])
        assert code == 0
        assert "ok" in out

    def test_stdin_dash(self, cli):
        code, out, _ = cli(["verify", "-"], stdin_text="1110\n1101\n1011\n")
        assert code == 0

    def test_deficient_exit_and_listing(self, cli):
        text = "11111\n11111\n11111\n"
        code, out, _ = cli(["verify", "-", "--list-deficient"], stdin_text=text)
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("deficient: 1 of 1")
        assert lines[1] == "0 1 2 missing=011,101,110"

    def test_custom_patterns(self, cli):
        # All-ones rows cover the all-ones pattern just fine.
        code, _, _ = cli(
            ["verify", "-", "--patterns", "111"], stdin_text="111\n111\n111\n"
        )
        assert code == 0

    def test_empty_patterns(self, cli):
        # An empty list is malformed, not a request for the GEKR default,
        # which these rows would fail with exit 1.
        code, out, err = cli(["verify", "-", "--patterns", ""], stdin_text="111\n111\n111\n")
        assert (code, out) == (2, "")
        assert "gekr: error: bad pattern ''" in err and "Traceback" not in err

    def test_workers_flag(self, cli):
        code, _, _ = cli(["verify", "-", "--workers", "2"], stdin_text="1110\n1101\n1011\n")
        assert code == 0

    def test_workers_below_one(self, cli):
        code, _, err = cli(["verify", "-", "--workers", "0"], stdin_text="1110\n1101\n1011\n")
        assert code == 2
        assert "workers must be at least 1" in err

    def test_missing_file(self, cli, tmp_path):
        path = tmp_path / "absent.txt"
        code, out, err = cli(["verify", str(path)])
        assert (code, out) == (2, "")
        assert str(path) in err and "No such file or directory" in err and "Traceback" not in err

    def test_input_past_block_limit(self, cli, tmp_path, monkeypatch):
        # Two rows, which the scan would take, after a long comment: one
        # byte past the limit exits 2, from a path before it is opened
        # and from stdin; at the limit both are read.
        text = "# two rows hold no triple" + "." * 60 + "\n1110\n1101\n"
        assert verify.scan_bytes(2, 4) < len(text)
        path = tmp_path / "a.txt"
        path.write_text(text)
        monkeypatch.setattr(verify, "MAX_BLOCK_BYTES", len(text) - 1)
        with monkeypatch.context() as unopened:
            unopened.setattr(cli_module, "open", None, raising=False)
            code, _, err = cli(["verify", str(path)])
        assert code == 2 and f"limit of {len(text) - 1} bytes" in err
        code, _, err = cli(["verify", "-"], stdin_text=text)
        assert code == 2 and f"limit of {len(text) - 1} bytes" in err
        monkeypatch.setattr(verify, "MAX_BLOCK_BYTES", len(text))
        assert cli(["verify", str(path)])[:2] == (0, "ok: all 0 triples covered\n")
        assert cli(["verify", "-"], stdin_text=text)[:2] == (0, "ok: all 0 triples covered\n")

    def test_rows_past_scan_limit_refused_before_parse(self, cli, tmp_path, monkeypatch):
        # 7,600 rows of 62 columns, 474 KB, pass no byte limit, but the
        # scan takes at most 7,528 such rows: the row count stops at the
        # first past that, and no row is parsed.
        text = ("1" * 43 + "0" * 19 + "\n") * 7600
        path = tmp_path / "big.txt"
        path.write_text(text)

        def no_parse(text):
            raise AssertionError("the rows were parsed")

        monkeypatch.setattr(cli_module, "parse_array", no_parse)
        for argv, stdin_text in ((["verify", str(path)], None), (["verify", "-"], text)):
            code, out, err = cli(argv, stdin_text=stdin_text)
            assert (code, out) == (2, "")
            assert "the first 7529 rows need" in err and "past the limit of 1073741824" in err

    def test_rows_past_scan_limit_stop_the_read(self, cli, monkeypatch):
        # 20,000 rows of 62 columns, 1.26 MB, on stdin: the read stops at
        # row 7,529, some 474 KB in, and the rest is never read.
        stdin = io.StringIO(("1" * 43 + "0" * 19 + "\n") * 20_000)
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = cli(["verify", "-"])
        assert (code, out) == (2, "")
        assert "the first 7529 rows need" in err
        assert stdin.tell() < 500_000

    def test_comments_and_blanks_are_not_rows(self, cli):
        # 15,005 lines, past the 7,528 rows the scan takes at 62 columns,
        # but 5 of them rows: scanned, not refused.
        text = "# comment\n\n" * 5000 + "  \r\n" * 5000 + ("1" * 43 + "0" * 19 + "\n") * 5
        code, out, _ = cli(["verify", "-"], stdin_text=text)
        assert (code, out) == (1, "deficient: 10 of 10 triples\n")

    def test_parse_error(self, cli):
        code, out, err = cli(["verify", "-"], stdin_text="110\n1100\n")
        assert (code, out) == (2, "")
        assert "gekr: error: line 2: row length" in err and "Traceback" not in err
        assert cli(["verify", "-", "--patterns", "12"], stdin_text="11\n")[0] == 2


class TestConstruct:
    def test_writes_array_to_stdout(self, cli):
        code, out, _ = cli(
            ["construct", "--model", "fixed", "--k", "14", "--n", "20", "--m", "3", "--seed", "42"]
        )
        assert code == 0
        arr = parse_array(out)
        assert arr.m == 3
        assert set(arr.weights()) == {14}
        assert is_gekr(arr)

    def test_pipeline_into_verify(self, cli):
        code, out, _ = cli(
            ["construct", "--model", "fixed", "--k", "20", "--n", "30", "--m", "10", "--seed", "0"]
        )
        assert code == 0
        code2, _, _ = cli(["verify", "-"], stdin_text=out)
        assert code2 == 0

    def test_output_file(self, cli, tmp_path):
        path = tmp_path / "arr.txt"
        code, out, _ = cli(
            ["construct", "--model", "fixed", "--k", "14", "--n", "20", "--m", "3", "--output", str(path)]
        )
        assert code == 0
        assert out == ""
        assert is_gekr(parse_array(path.read_text()))

    def test_unwritable_output_exits_two(self, cli, tmp_path):
        # Exit 1 means the construction gave up; a failed write is exit 2.
        path = tmp_path / "absent" / "arr.txt"
        code, out, err = cli(["construct", "--n", "10", "--k", "7", "--m", "4", "--output", str(path)])
        assert (code, out) == (2, "")
        assert str(path) in err and "No such file or directory" in err
        assert "Traceback" not in err and not path.parent.exists()

    def test_failure_exit_one(self, cli):
        code, _, err = cli(
            ["construct", "--model", "fixed", "--k", "1", "--n", "2", "--m", "3", "--max-resamples", "25"]
        )
        assert code == 1
        assert "failed" in err

    def test_progress_on_stderr(self, cli, monkeypatch, caplog):
        monkeypatch.setattr(construct, "PROGRESS_EVERY", 10)
        code, _, err = cli(
            ["construct", "--model", "fixed", "--k", "1", "--n", "2", "--m", "3", "--max-resamples", "25"]
        )
        assert code == 1
        lines = [line for line in err.splitlines() if line.startswith("resamples:")]
        assert [line.split(" (")[0] for line in lines] == ["resamples: 10", "resamples: 20"]
        assert all(line.endswith(" steps/s)") for line in lines)
        assert [r.getMessage() for r in caplog.records if r.name == "gekr"] == lines
        # The handler and level last only as long as the command.
        assert not logging.getLogger("gekr").handlers
        assert logging.getLogger("gekr").level == logging.NOTSET

    def test_greedy_without_m(self, cli):
        code, out, _ = cli(
            ["construct", "--model", "fixed", "--k", "10", "--n", "15",
             "--strategy", "greedy", "--attempts-per-row", "60"]
        )
        assert code == 0
        assert is_gekr(parse_array(out))

    def test_greedy_zero_rows(self, cli):
        # --m 0 caps greedy at no rows, as it does the other strategies.
        for strategy in ("greedy", "moser-tardos", "rejection"):
            argv = ["construct", "--k", "7", "--n", "10", "--strategy", strategy, "--m", "0"]
            code, out, err = cli(argv)
            assert (code, out.split(), err) == (0, [], ""), strategy

    @pytest.mark.parametrize("m", ["0", "1"])
    def test_zero_and_one_rows_verify(self, cli, m):
        # construct prints nothing for no rows, and verify reads an input
        # with no row lines as that array: the pipeline holds for m = 0 too.
        code, out, _ = cli(["construct", "--k", "7", "--n", "10", "--m", m])
        assert code == 0 and out.count("\n") == int(m)
        assert cli(["verify", "-"], stdin_text=out) == (0, "ok: all 0 triples covered\n", "")
        assert cli(["verify", "-"], stdin_text="# a comment\n\n") == (0, "ok: all 0 triples covered\n", "")

    def test_independent_model(self, cli):
        code, out, _ = cli(
            ["construct", "--model", "independent", "--alpha", "0.6", "--n", "12", "--m", "2"]
        )
        assert code == 0
        assert parse_array(out).m == 2

    def test_usage_errors(self, cli):
        # moser-tardos needs a target row count
        assert cli(["construct", "--model", "fixed", "--k", "3", "--n", "6"])[0] == 2
        assert cli(["construct", "--model", "fixed", "--alpha", "1/3", "--n", "10", "--m", "2", "--k", "3"])[0] == 2
        code, _, err = cli(["construct", "--k", "3", "--n", "6", "--m", "4", "--seed", "-1"])
        assert code == 2
        assert "seed must be non-negative" in err
        assert cli(["construct", "--k", "1", "--n", "0", "--m", "2"])[0] == 2
        code, _, err = cli(["construct", "--alpha", "0.123", "--n", "10", "--m", "2"])
        assert code == 2
        assert "integer weight" in err


class TestOptimize:
    def test_independent(self, cli):
        code, out, _ = cli(["optimize", "--model", "independent", "--n", "200"])
        assert code == 0
        alpha_star = float(out.splitlines()[0].split("=")[1])
        assert abs(alpha_star - 2 / 3) <= 1e-3
        assert cli(["optimize", "--model", "independent", "--n", "1e300"])[0] == 0

    def test_fixed(self, cli):
        code, out, _ = cli(["optimize", "--model", "fixed"])
        assert code == 0
        lines = out.splitlines()
        alpha_star = float(lines[0].split("=")[1])
        assert 0.7385 <= alpha_star <= 0.7405
        assert lines[1].startswith("mu_star = 0.776419")

    def test_usage_errors(self, cli):
        for n in ("0", "-3"):
            code, out, err = cli(["optimize", "--model", "independent", "--n", n])
            assert code == 2
            assert out == ""
            assert "need n >= 1" in err
        code, out, err = cli(["optimize", "--model", "independent", "--n", HUGE_N])
        assert (code, out) == (2, "")
        assert "column count" in err


class TestFigure:
    def test_header_and_rows(self, cli):
        code, out, _ = cli(["figure", "3", "--grid-step", "0.1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,xi,theta"
        assert len(lines) == 12
        assert lines[1].split(",")[2] == ""  # theta undefined at 0

    def test_all_figures_emit(self, cli):
        for fig in "1234":
            code, out, _ = cli(["figure", fig, "--grid-step", "0.05"])
            assert code == 0
            assert len(out.strip().splitlines()) > 1

    def test_steps_that_do_not_divide(self, cli):
        for fig in "23":
            code, out, _ = cli(["figure", fig, "--grid-step", "0.06"])
            assert code == 0
            assert out.strip().splitlines()[-1].startswith("0.96,")

    def test_bad_args(self, cli):
        assert cli(["figure", "5"])[0] == 2
        assert cli(["figure", "1", "--grid-step", "0.5"])[0] == 2
        assert cli(["figure", "1", "--grid-step", "1e-9"])[0] == 2


class TestMaxFamily:
    def test_three_choose_two(self, cli):
        code, out, err = cli(["maxfamily", "--n", "3", "--k", "2"])
        assert code == 0
        assert err == "nodes: 0\n"
        lines = out.splitlines()
        assert lines[0] == "size: 2"
        assert lines[1] == "optimal: true"
        witness = parse_array("\n".join(lines[2:]) + "\n")
        assert witness.m == 2
        assert set(witness.weights()) == {2}

    def test_witness_verifies(self, cli):
        code, out, err = cli(["maxfamily", "--n", "6", "--k", "3"])
        assert code == 0
        witness = parse_array("\n".join(out.splitlines()[2:]) + "\n")
        assert is_gekr(witness)
        assert int(err.removeprefix("nodes: ")) == exact.max_family(6, 3).nodes > 0

    def test_overflow_guard(self, cli):
        assert cli(["maxfamily", "--n", "16", "--k", "8"])[0] == 2
        past = str(exact.MAX_FAMILY_CANDIDATES + 1)
        code, out, err = cli(["maxfamily", "--n", past, "--k", "1"])
        assert (code, out) == (2, "")
        assert "ceiling" in err


def test_no_command_is_usage_error(cli):
    assert cli([])[0] == 2


def test_closed_pipe_during_output():
    # 10,001 rows, more than a pipe holds: the reader takes one line and
    # leaves, and gekr exits as a shell reports SIGPIPE, with no traceback.
    argv = [sys.executable, "-m", "gekr.cli", "figure", "3", "--grid-step", "0.0001"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
    assert proc.stdout.readline() == b"alpha,xi,theta\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=20), err) == (141, b"")


def test_closed_pipe_before_output():
    read, write = os.pipe()
    os.close(read)
    argv = [sys.executable, "-m", "gekr.cli", "bound", "--model", "independent", "--alpha", "0.5", "--n", "100"]
    try:
        proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=src_env(), timeout=20)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def exit_paths(tree: ast.Module) -> list[str]:
    """Each place where a function other than main takes the parser,
    calls .error( or sys.exit, or returns 2: an exit path besides main's."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "main":
            continue
        if any(a.arg == "parser" for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs):
            found.append(f"{fn.name}: parser")
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "error" or ast.unparse(node.func) == "sys.exit":
                    found.append(f"{fn.name}:{node.lineno}: {ast.unparse(node.func)}")
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value == 2:
                found.append(f"{fn.name}:{node.lineno}: return 2")
    return found


def main_handlers(tree: ast.Module) -> list[str]:
    main = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "main")
    return [ast.unparse(h.type) for node in ast.walk(main) if isinstance(node, ast.Try) for h in node.handlers]


def test_one_exit_path():
    # Commands raise; main alone turns an error into a message and an exit
    # code, a closed pipe before any other OSError.
    probe = (
        "def main(parser):\n"
        "    try:\n        parser.error('x')\n        sys.exit(2)\n        return 2\n"
        "    except BrokenPipeError:\n        return 141\n"
        "    except (ValueError, OSError):\n        return 2\n"
        "def f(args, parser=None):\n    return 2\n"
        "def g(p):\n    p.error('x')\n    sys.exit(1)\n    return 1\n"
    )
    tree = ast.parse(probe)
    assert exit_paths(tree) == ["f: parser", "f:11: return 2", "g:13: p.error", "g:14: sys.exit"]
    assert main_handlers(tree) == ["BrokenPipeError", "(ValueError, OSError)"]
    tree = ast.parse(Path(cli_module.__file__).read_text())
    assert exit_paths(tree) == []
    assert main_handlers(tree) == ["BrokenPipeError", "(ValueError, OSError)"]
