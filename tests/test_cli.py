import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tarski.cli import main


def run_cli(capsys, *argv, env=None, monkeypatch=None):
    if env:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_true_exit_0(capsys):
    code, out, _ = run_cli(capsys, "decide", "exists x. x^2 = 2")
    assert code == 0
    assert out.strip() == "true"


def test_decide_false_exit_1(capsys):
    code, out, _ = run_cli(capsys, "decide", "exists x. x^2 + 1 = 0")
    assert code == 1
    assert out.strip() == "false"


def test_decide_open_formula_exit_2(capsys):
    code, _, err = run_cli(capsys, "decide", "x > 0")
    assert code == 2
    assert "not closed" in err and "x" in err


def test_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "decide", "exists x. x >")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_decide_json_contract(capsys):
    code, out, _ = run_cli(capsys, "decide", "forall x. x^2 + 1 > 0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "input", "result"}
    assert doc["command"] == "decide"
    assert doc["input"] == "forall x. x^2 + 1 > 0"
    assert doc["result"] is True


def test_qelim_text_and_check(capsys):
    code, out, _ = run_cli(capsys, "qelim", "exists x. x^2 + b*x + c = 0", "--check", "30")
    assert code == 0
    assert out.strip()
    # eliminated form mentions only the parameters
    assert "x " not in out and "x^" not in out


def test_qelim_negative_check_exit_2(capsys):
    code, out, err = run_cli(capsys, "qelim", "exists x. x^2 + b*x + c = 0", "--check", "-5")
    assert code == 2
    assert out == ""
    assert "error: --check must be non-negative" in err


def test_qelim_json_contract(capsys):
    code, out, _ = run_cli(
        capsys, "qelim", "exists x. x^2 + b*x + c = 0", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "qelim"
    assert set(doc["result"]) >= {"formula", "text"}
    assert isinstance(doc["result"]["formula"], dict)


def test_roots_text(capsys):
    code, out, _ = run_cli(capsys, "roots", "x^2 - 2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all("multiplicity 1" in line for line in lines)


def test_roots_no_real_roots(capsys):
    code, out, _ = run_cli(capsys, "roots", "x^2 + 1")
    assert code == 0
    assert "no real roots" in out


def test_roots_interval_filter_and_approx(capsys):
    code, out, _ = run_cli(
        capsys, "roots", "x^2 - 2", "--interval", "0", "2", "--eps", "1/1000000",
        "--approx", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert "~ 1.4142" in lines[0]


def test_roots_readme_example_intervals(capsys):
    code, out, _ = run_cli(capsys, "roots", "x^3 - 2*x + 1", "--eps", "1/1000000", "--approx", "4")
    assert code == 0
    assert out.strip().splitlines() == [
        "]-212079/131072,-1696631/1048576[ (multiplicity 1) ~ -1.6180",
        "]1296111/2097152,2592225/4194304[ (multiplicity 1) ~ 0.6180",
        "]4194303/4194304,2097153/2097152[ (multiplicity 1) ~ 1.0000",
    ]


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "roots", "x^2 - 2", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["command"] == "roots"
    assert doc["input"] == ["-2", "0", "1"]
    assert len(doc["result"]) == 2
    assert all(set(entry) == {"interval", "multiplicity"} for entry in doc["result"])


def test_roots_zero_poly_exit_2(capsys):
    code, _, err = run_cli(capsys, "roots", "0")
    assert code == 2
    assert "zero polynomial" in err


@pytest.mark.parametrize("digits", ["-1", "-3"])
def test_roots_negative_approx_exit_2(capsys, digits):
    code, out, err = run_cli(capsys, "roots", "x^2 - 2", "--approx", digits)
    assert code == 2
    assert out == ""
    assert "error: --approx must be non-negative" in err


def test_taq(capsys):
    # roots of x^2 - 1 are +-1; signs of x there sum to 0
    code, out, _ = run_cli(capsys, "taq", "x^2 - 1", "x")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run_cli(capsys, "taq", "x^2 - 1", "x + 2")
    assert out.strip() == "2"


def test_taq_json(capsys):
    code, out, _ = run_cli(capsys, "taq", "x^2 - 1", "x", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"] == 0
    assert doc["input"] == {"p": ["-1", "0", "1"], "q": ["0", "1"]}


def test_signdet_table(capsys):
    code, out, _ = run_cli(capsys, "signdet", "x^2 - 1", "x")
    assert code == 0
    table = dict(line.split(": ") for line in out.strip().splitlines())
    assert table == {"(+1)": "1", "(-1)": "1", "(0)": "0"}


def test_signdet_json_multiple_constraints(capsys):
    code, out, _ = run_cli(
        capsys, "signdet", "x^3 - x", "x + 1/2,x - 1/2", "--format", "json"
    )
    doc = json.loads(out)
    assert code == 0
    assert len(doc["result"]) == 9
    counts = {tuple(entry["signs"]): entry["count"] for entry in doc["result"]}
    # roots -1, 0, 1 against x+1/2 and x-1/2
    assert counts[("+1", "+1")] == 1   # root 1
    assert counts[("+1", "-1")] == 1   # root 0
    assert counts[("-1", "-1")] == 1   # root -1
    assert sum(counts.values()) == 3


def test_signdet_five_constraints_within_budget(capsys):
    # 3^5 sign vectors from one query vector and one solve
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "signdet", "x^3 - x", "x+1/2,x-1/2,x+1/3,x-2,x+3")
    elapsed = time.perf_counter() - start
    assert code == 0
    table = dict(line.split(": ") for line in out.strip().splitlines())
    assert len(table) == 3 ** 5
    nonzero = {signs: count for signs, count in table.items() if count != "0"}
    assert nonzero == {
        "(+1, +1, +1, -1, +1)": "1",  # root 1
        "(+1, -1, +1, -1, +1)": "1",  # root 0
        "(-1, -1, -1, -1, +1)": "1",  # root -1
    }
    assert elapsed < 5.0


def test_max_degree_guard(capsys, monkeypatch):
    monkeypatch.setenv("TARSKI_MAX_DEGREE", "3")
    code, _, err = run_cli(capsys, "roots", "x^5 - 1")
    assert code == 2 and "TARSKI_MAX_DEGREE" in err
    code, _, err = run_cli(capsys, "decide", "exists x. x^5 = 1")
    assert code == 2 and "TARSKI_MAX_DEGREE" in err
    code, out, _ = run_cli(capsys, "roots", "x^3 - 1")
    assert code == 0


def test_deeply_nested_input_exit_2(capsys, tmp_path):
    # a RecursionError must not exit 1, which reads as "false"
    path = tmp_path / "deep.txt"
    path.write_text("exists x. " + "(" * 60000 + "x" + ")" * 60000 + " = 1")
    code, _, err = run_cli(capsys, "decide", f"@{path}")
    assert code == 2 and err.startswith("error: ")


def test_at_file_indirection(capsys, tmp_path):
    path = tmp_path / "formula.txt"
    path.write_text("exists x. x^2 = 2\n")
    code, out, _ = run_cli(capsys, "decide", f"@{path}")
    assert code == 0 and out.strip() == "true"
    code, _, err = run_cli(capsys, "decide", "@/nonexistent/f.txt")
    assert code == 2 and "cannot read" in err


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli_process(*argv, cwd):
    """The CLI in its own interpreter, so that a crash of the process
    (such as a segfault) is an exit code rather than the end of pytest."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TARSKI_MAX_DEGREE", None)
    return subprocess.run(
        [sys.executable, "-m", "tarski.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def test_long_flat_sum_exit_0(tmp_path):
    # 20,000 summands parse into a term 20,000 levels deep
    path = tmp_path / "sum.txt"
    path.write_text("exists x. " + " + ".join(["x"] * 20000) + " = 1")
    proc = run_cli_process("decide", f"@{path}", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "true"


def test_huge_power_exit_2(tmp_path):
    proc = run_cli_process("decide", "exists x. x^20000 = 1", cwd=tmp_path)
    assert proc.returncode == 2
    assert "TARSKI_MAX_DEGREE" in proc.stderr
