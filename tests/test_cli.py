import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from toricqh import catalog, fan as fan_mod
from toricqh.cli import MAX_NESTING, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fan_path(fans_dir, name):
    return str(fans_dir / name)


def test_validate_accepts(capsys, fans_dir):
    code, out, err = run(capsys, "validate", "--fan", fan_path(fans_dir, "p2.json"))
    assert code == 0
    assert out.strip() == "accepted"
    assert err == ""


def test_validate_rejects(capsys, tmp_path):
    bad = fan_mod.Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
    path = tmp_path / "bad.json"
    path.write_text(fan_mod.fan_to_json(bad))
    code, out, _ = run(capsys, "validate", "--fan", str(path))
    assert code == 3
    assert out.startswith("rejected")
    assert "expected 2" in out


@pytest.mark.parametrize("name", ["double winding", "fold"])
def test_validate_rejects_overlapping_cones(capsys, tmp_path, not_fans, name):
    path = tmp_path / "overlap.json"
    path.write_text(fan_mod.fan_to_json(not_fans[name]))
    report = "".join(f"  - {p}\n" for p in fan_mod.validate(not_fans[name]).problems)
    assert run(capsys, "validate", "--fan", str(path)) == (3, "rejected\n" + report, "")
    code, out, err = run(capsys, "primitive", "--fan", str(path))
    assert code == 3 and out == "" and err.startswith("error: fan rejected: maximal cones (1, 2)")


def test_validate_json_flag(capsys, fans_dir):
    code, out, _ = run(capsys, "validate", "--json", "--fan", fan_path(fans_dir, "p2.json"))
    assert code == 0
    assert json.loads(out) == {"accepted": True, "problems": []}


def test_multiply_on_the_point_fan(capsys, tmp_path):
    # from cold caches: the first read of a product on this fan used to exit 2
    path = tmp_path / "point.json"
    path.write_text(fan_mod.fan_to_json(fan_mod.Fan(0, (), ((),))))
    fan_mod.clear_caches()
    assert run(capsys, "multiply", "--fan", str(path), "1", "1") == (0, "1\n", "")


def test_unreadable_inputs(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--fan", str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    code, _, err = run(capsys, "validate", "--fan", str(mangled))
    assert code == 2 and "error:" in err


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone away; it has no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_not_unusable_input(capsys, fans_dir):
    with contextlib.redirect_stdout(_ClosedStdout()):
        assert main(["census", "2", "8", "--json"]) == 141
    assert capsys.readouterr().err == ""
    # a real pipe closed at its read end: the output waits in the buffer until
    # main flushes, and afterwards the descriptor writes to devnull
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as pipe, contextlib.redirect_stdout(pipe):
        assert main(["validate", "--fan", fan_path(fans_dir, "p2.json")]) == 141
        pipe.write("the interpreter's final flush succeeds")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["--help"], ["census", "--help"]])
def test_help_on_a_closed_pipe(capsys, argv):
    # argparse prints the help into the buffer and exits; main flushes it
    # into the closed pipe before the interpreter's final flush would
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as pipe, contextlib.redirect_stdout(pipe):
        assert main(argv) == 141
    assert capsys.readouterr().err == ""


def test_deeply_nested_fan_file(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "validate", "--fan", str(deep))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed fan data")


def test_non_integer_fan_entries(capsys, tmp_path):
    good = json.loads(fan_mod.fan_to_json(catalog.projective_plane()))
    for where in ("rays", "max_cones"):
        for bad in (1.7, 1.0, True, "1"):
            data = json.loads(json.dumps(good))
            data[where][0][0] = bad
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(data))
            code, out, err = run(capsys, "validate", "--fan", str(path))
            assert code == 2 and out == "", (where, bad)
            assert "is not an integer" in err


def test_classify_text(capsys, fans_dir):
    code, out, _ = run(capsys, "classify", "--fan", fan_path(fans_dir, "f2.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tier: NotFano"
    assert "  {1,2}: coefficient sum 2, rhs {3}, rhs multiplicity 0" in lines


def test_classify_json(capsys, fans_dir):
    code, out, _ = run(capsys, "classify", "--json", "--fan", fan_path(fans_dir, "p2.json"))
    assert code == 0
    data = json.loads(out)
    assert data["tier"] == "FullClass"
    assert data["relations"] == [
        {"set": [1, 2, 3], "coefficient_sum": 0, "rhs": [], "rhs_multiplicity": 0}
    ]


def test_primitive(capsys, fans_dir):
    code, out, _ = run(capsys, "primitive", "--fan", fan_path(fans_dir, "bl1p2.json"))
    assert code == 0
    assert "{1,2}: D1*D2 = q^(1,1,0,-1) * D4 | class (1,1,0,-1) degree 1" in out
    assert "{3,4}: D3*D4 = q^(0,0,1,1) | class (0,0,1,1) degree 2" in out


def test_present(capsys, fans_dir):
    code, out, _ = run(capsys, "present", "--fan", fan_path(fans_dir, "p2.json"))
    assert code == 0
    assert "generators: 3" in out
    assert "linear: 1*D1 + -1*D3 = 0" in out
    assert "deformed: D1*D2*D3 = q^(1,1,1)" in out
    code, _, err = run(capsys, "present", "--fan", fan_path(fans_dir, "f2.json"))
    assert code == 4 and "error:" in err


def test_giambelli(capsys, fans_dir):
    code, out, _ = run(capsys, "giambelli", "--fan", fan_path(fans_dir, "bl1p2.json"), "1,4")
    assert code == 0
    assert out.splitlines() == ["D1*D4", "q^(1,1,0,-1) * D4"]
    code, _, err = run(capsys, "giambelli", "--fan", fan_path(fans_dir, "bl1p2.json"), "1,2")
    assert code == 2 and "error:" in err


def test_giambelli_tier_gate(capsys, tmp_path):
    path = tmp_path / "bundle3.json"
    path.write_text(fan_mod.fan_to_json(catalog.twisted_bundle_threefold()))
    code, _, err = run(capsys, "giambelli", "--fan", str(path), "1,2,4")
    assert code == 4 and "error:" in err


def test_zero_operands_are_refused_below_full_class(capsys, tmp_path):
    # the quantum ring refuses the fan where it is built, so a zero class
    # is refused as D1 is
    path = tmp_path / "bundle3.json"
    path.write_text(fan_mod.fan_to_json(catalog.twisted_bundle_threefold()))
    for args in (["multiply", "0", "D1"], ["multiply", "D1", "0"], ["gw", "0", "D1", "D1", "0,0,0,0,0"]):
        code, out, err = run(capsys, args[0], "--fan", str(path), *args[1:])
        assert (code, out) == (4, ""), args
        assert "error:" in err, args


def test_multiply_strata(capsys, fans_dir):
    code, out, _ = run(
        capsys, "multiply", "--fan", fan_path(fans_dir, "p2.json"), "[1,2]", "[1,2]"
    )
    assert code == 0
    assert out.strip() == "q^(1,1,1) * (X{3})"


def test_multiply_expressions(capsys, fans_dir):
    p2 = fan_path(fans_dir, "p2.json")
    code, out, _ = run(capsys, "multiply", "--fan", p2, "2D1", "D1")
    assert code == 0
    assert out.strip() == "2*X{2,3}"
    code, out, _ = run(capsys, "multiply", "--fan", p2, "D1 - D2", "D1")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "multiply", "--fan", p2, "(D1 + D2) * D3", "1/2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "product": [
            {"q": [0, 0, 0], "degree": 0, "value": [{"tau": [2, 3], "coeff": "1"}]}
        ]
    }


def test_multiply_errors(capsys, fans_dir):
    p2 = fan_path(fans_dir, "p2.json")
    code, _, err = run(capsys, "multiply", "--fan", p2, "D1 +", "D1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "multiply", "--fan", p2, "D9", "D1")
    assert code == 2
    code, _, err = run(capsys, "multiply", "--fan", fan_path(fans_dir, "f2.json"), "D1", "D1")
    assert code == 4


def test_expression_nesting_is_bounded(capsys, fans_dir):
    p2 = fan_path(fans_dir, "p2.json")
    deep = "(" * 400 + "D1" + ")" * 400
    for argv in (("multiply", deep, "D1"), ("gw", deep, "D1", "D1", "0,0,0")):
        code, out, err = run(capsys, argv[0], "--json", "--fan", p2, *argv[1:])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ExpressionError"
    at_bound = "(" * MAX_NESTING + "D1" + ")" * MAX_NESTING
    code, out, _ = run(capsys, "multiply", "--fan", p2, at_bound, "D1")
    assert code == 0 and out.strip() == "X{2,3}"
    code, _, err = run(capsys, "multiply", "--fan", p2, "(" + at_bound + ")", "D1")
    assert code == 2 and "deeper than" in err


def test_multiply_json_error_payload(capsys, fans_dir):
    code, out, err = run(
        capsys, "multiply", "--json", "--fan", fan_path(fans_dir, "f2.json"), "D1", "D1"
    )
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"]["type"] == "NotFano"


def test_gw(capsys, fans_dir):
    p2 = fan_path(fans_dir, "p2.json")
    code, out, _ = run(capsys, "gw", "--fan", p2, "[1,2]", "[1,2]", "D1", "1,1,1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "gw", "--json", "--fan", p2, "[1,2]", "[1,2]", "D1", "1,1,1")
    assert json.loads(out) == {"value": "1"}
    code, _, err = run(capsys, "gw", "--fan", p2, "D1", "D1", "D1", "1,0,0")
    assert code == 5 and "error:" in err
    code, _, err = run(capsys, "gw", "--fan", p2, "D1", "D1", "D1", "1,a,1")
    assert code == 2


def test_gw_search_budget(capsys, fans_dir, monkeypatch):
    bl3 = fan_path(fans_dir, "bl3p2.json")
    # a class the greedy pass cannot settle: the effectivity search decides it
    code, out, _ = run(capsys, "gw", "--fan", bl3, "D1", "D2", "D3", "20,20,-20,-20,20,20")
    assert code == 0 and out.strip() == "0"
    monkeypatch.setattr(fan_mod, "SEARCH_NODE_BUDGET", 1)
    code, out, err = run(capsys, "gw", "--json", "--fan", bl3, "D1", "D2", "D3", "1,1,-1,-1,1,1")
    assert code == 5 and out == ""
    assert json.loads(err)["error"]["type"] == "SearchBudgetExceeded"


def test_gw_on_a_huge_multiple_of_the_line(capsys, fans_dir):
    # 2^45 times the line of P^2: the greedy loop takes it in one batch
    big = ",".join([str(2**45)] * 3)
    p2 = fan_path(fans_dir, "p2.json")
    assert run(capsys, "gw", "--fan", p2, "D1", "D2", "D3", big) == (0, "0\n", "")


def test_tower(capsys, fans_dir):
    bl3 = fan_path(fans_dir, "bl3p2.json")
    code, out, _ = run(capsys, "tower", "--fan", bl3)
    assert code == 0
    assert "stage 0: 6 rays, tier FullClass" in out
    assert "stage 3: 3 rays, tier FullClass" in out
    assert "terminal: product of projective spaces (2,)" in out
    code, out, _ = run(capsys, "tower", "--fan", bl3, "--order", "4,5,6")
    assert code == 0 and "terminal: product of projective spaces (2,)" in out
    bl1 = fan_path(fans_dir, "bl1p2.json")
    code, _, err = run(capsys, "tower", "--fan", bl1, "--order", "1")
    assert code == 5 and "error:" in err
    code, _, err = run(capsys, "tower", "--fan", bl1, "--order", "9")
    assert code == 2


def test_tree(capsys, fans_dir):
    p2 = fan_path(fans_dir, "p2.json")
    code, out, _ = run(capsys, "tree", "--fan", p2, "1,1,1")
    assert code == 0
    assert "matches: yes" in out
    assert "1 x tree to D3" in out
    code, _, err = run(capsys, "tree", "--fan", p2, "--", "-1,-1,-1")
    assert code == 5 and "error:" in err


def test_tree_rejected_fan(capsys, tmp_path):
    bad = fan_mod.Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
    path = tmp_path / "bad.json"
    path.write_text(fan_mod.fan_to_json(bad))
    code, out, err = run(capsys, "tree", "--fan", str(path), "0,0,0")
    assert code == 3 and out == "" and "error:" in err


def test_census(capsys):
    code, out, _ = run(capsys, "census", "2", "6")
    assert code == 0
    assert out.splitlines()[0] == "5 equivalence classes"
    code, _, err = run(capsys, "census", "3", "6")
    assert code == 2 and "error:" in err
    code, out, _ = run(capsys, "census", "2", "6", "--json")
    data = json.loads(out)
    assert data["count"] == 5
    assert sorted(len(c["rays"]) for c in data["classes"]) == [3, 4, 4, 5, 6]


def test_only_ascii_digits(capsys, fans_dir):
    # int() and str.isdigit() would read these as 1, (1,1,1), 10, ...
    p2 = fan_path(fans_dir, "p2.json")
    for argv in (
        ("multiply", "--fan", p2, "D\u0661", "D1"),
        ("multiply", "--fan", p2, "\u0661", "D1"),
        ("multiply", "--fan", p2, "D1", "D\u00b9"),
        ("gw", "--fan", p2, "D1", "D1", "D1", "\u0661,\u0661,\u0661"),
        ("gw", "--fan", p2, "D1", "D1", "D1", "+1,1,1"),
        ("gw", "--fan", p2, "D1", "D1", "D1", "1_0,1,1"),
        ("giambelli", "--fan", p2, "1,\uff12"),
        ("census", "2", "1_0"),
        ("census", "\u0662", "6"),
        ("census", "2", "+6"),
        ("census", "2", " 6"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err, argv
    code, out, _ = run(capsys, "gw", "--fan", p2, "[1,2]", "[1,2]", "D1", " 1, 1 ,1")
    assert code == 0 and out.strip() == "1"


def test_argparse_failures(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["validate"]) == 2
    capsys.readouterr()


def test_one_parser_serves_every_call(fans_dir, tmp_path, monkeypatch):
    # main builds its parser on the first call; a call after any other,
    # including one that argparse ends with SystemExit, answers as the first
    dropped = tmp_path / "dropped.json"
    dropped.write_text(
        fan_mod.fan_to_json(fan_mod.Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2))))
    )
    p2, f2 = fan_path(fans_dir, "p2.json"), fan_path(fans_dir, "f2.json")
    sequence = (
        (["--help"], 0),
        (["census", "--help"], 0),
        (["multiply", "--fan", p2, "-D1", "D2"], 2),
        (["validate"], 2),
        (["no-such-command"], 2),
        (["giambelli", "--fan", f2, "1,2"], 4),
        (["validate", "--fan", str(dropped)], 3),
        (["multiply", "--json", "--fan", p2, "D1", "D2"], 0),
    )
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    first = [call(sequence[0][0])]
    built_by_first_call = len(built)
    first += [call(argv) for argv, _ in sequence[1:]]
    second = [call(argv) for argv, _ in sequence]
    assert [code for code, _, _ in first] == [code for _, code in sequence]
    assert first[0][1].startswith("usage: toricqh")
    assert second == first
    assert len(built) == built_by_first_call


ROOT = pathlib.Path(__file__).resolve().parent.parent
_RING = {"toricqh.cohomology", "toricqh.quantum"}
_OTHERS = {"toricqh.catalog", "toricqh.curves"}
# one call per subcommand, each a case of tests/golden/cli.json but tree,
# which has none there, with the modules its fresh process must not load
FRESH_CASES = (
    (("validate", "--fan", "fans/bl3p2.json"), _RING | _OTHERS | {"toricqh.fano", "fractions"}),
    (("primitive", "--fan", "fans/bl3p2.json"), _RING | _OTHERS | {"toricqh.fano", "fractions"}),
    (("classify", "--fan", "fans/bl3p2.json"), _RING | _OTHERS),
    (("tower", "--fan", "fans/bl3p2.json", "--json"), _RING | _OTHERS),
    (("present", "--fan", "fans/bl3p2.json"), _OTHERS),
    (("giambelli", "--fan", "fans/bl3p2.json", "1,2"), _OTHERS),
    (("multiply", "--fan", "fans/bl3p2.json", "D1", "D2"), _OTHERS),
    (("gw", "--fan", "fans/p2.json", "1/2*D1", "2/2*D2", "--", "-(D1 - D2)+[]", "0,0,0"), _OTHERS),
    (("tree", "--fan", "fans/p2.json", "1,1,1"), _RING | {"toricqh.catalog", "fractions"}),
    (("census", "2", "8"), _RING | {"toricqh.curves"}),
)
# runs main in a fresh process, then writes the modules it loaded to argv[1]
_FRESH_PROBE = """
import sys
from toricqh import cli
code = cli.main(sys.argv[2:])
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as out:
    out.write(" ".join(sorted(sys.modules)))
sys.exit(code)
"""


@pytest.mark.parametrize("argv, unloaded", FRESH_CASES, ids=[" ".join(a) for a, _ in FRESH_CASES])
def test_each_subcommand_in_a_fresh_process(capsys, tmp_path, argv, unloaded):
    # the golden cases share one process, so a handler that works only
    # because an earlier command imported its layer would pass there
    modules = tmp_path / "modules.txt"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FRESH_PROBE, str(modules), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    outcome = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    if argv[0] == "tree":
        code = main([str(ROOT / a) if a.startswith("fans/") else a for a in argv])
        captured = capsys.readouterr()
        expected = {"exit": code, "stdout": captured.out, "stderr": captured.err}
    else:
        golden = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text(encoding="utf-8"))
        expected = golden[" ".join(argv)]
    assert outcome == expected
    loaded = set(modules.read_text(encoding="utf-8").split())
    assert "toricqh.fan" in loaded
    assert not loaded & unloaded
