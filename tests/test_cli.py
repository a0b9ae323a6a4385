import contextlib
import io
import json
import os

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
