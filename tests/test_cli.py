import json
import sys
from pathlib import Path

import pytest

import wregret.cli
from wregret.cli import approx6, main
from wregret import rat

HERE = Path(__file__).parent
DATA = str(HERE / "data") + "/"

GOLDEN_COMMANDS = {
    "likelihood.txt": [
        "likelihood", "-p", DATA + "example2_p2.json", "-e", "h,t,empty,all",
    ],
    "regret_menu1.txt": [
        "regret", "-p", DATA + "example1_set.json",
        "-a", DATA + "example1_acts.json", "-m", DATA + "example1_menu1.json",
    ],
    "regret_menu2.txt": [
        "regret", "-p", DATA + "example1_set.json",
        "-a", DATA + "example1_acts.json", "-m", DATA + "example1_menu2.json",
    ],
    "regret_absolute.txt": [
        "regret", "-p", DATA + "counterexample_set.json",
        "-a", DATA + "counterexample_acts.json",
    ],
    "prefer_menu1.txt": [
        "prefer", "-p", DATA + "example1_set.json",
        "-a", DATA + "example1_acts.json", "-m", DATA + "example1_menu1.json",
        "1_{s1}", "1_{s2}",
    ],
    "prefer_menu2.txt": [
        "prefer", "-p", DATA + "example1_set.json",
        "-a", DATA + "example1_acts.json", "-m", DATA + "example1_menu2.json",
        "1_{s1}", "1_{s2}",
    ],
    "learn_h.txt": [
        "learn", "-p", DATA + "example2_p0.json",
        "-o", DATA + "example2_model.json", "-s", "h",
    ],
    "trajectory_ht.txt": [
        "trajectory", "-p", DATA + "example2_p0.json",
        "-o", DATA + "example2_model.json", "-s", "h,t", "-e", "h",
    ],
    "axioms_reg3.txt": [
        "axioms", "-f", DATA + "counterexample_f.json",
        "--variant", "reg3", "--bounds", "3,4",
    ],
    "axioms_reg3prime.txt": [
        "axioms", "-f", DATA + "counterexample_f.json",
        "--variant", "reg3prime", "--bounds", "2,3,2",
    ],
    "represent.txt": ["represent", "-f", DATA + "counterexample_f.json"],
    "weight.txt": [
        "weight", "-f", DATA + "counterexample_f.json",
        "-q", DATA + "counterexample_measure3.json",
    ],
}


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_transcripts(capsys, name):
    code, out, _ = run(capsys, GOLDEN_COMMANDS[name])
    assert code == 0
    assert out == (HERE / "golden" / name).read_text()


def test_output_is_deterministic(capsys):
    results = set()
    for _ in range(2):
        code, out, _ = run(capsys, GOLDEN_COMMANDS["represent.txt"])
        assert code == 0
        results.add(out)
    assert len(results) == 1


def test_learn_output_roundtrips(capsys):
    code, out, _ = run(
        capsys,
        ["learn", "-p", DATA + "example2_p0.json", "-o", DATA + "example2_model.json", "-s", ""],
    )
    assert code == 0
    assert json.loads(out) == json.loads((HERE / "data" / "example2_p0.json").read_text())
    code, out2, _ = run(
        capsys,
        ["learn", "-p", DATA + "example2_p0.json", "-o", DATA + "example2_model.json", "-s", "h,t"],
    )
    assert code == 0
    assert json.loads(out2) == json.loads(
        (HERE / "data" / "example2_p2.json").read_text()
    )


def test_observation_string_forms(capsys):
    comma = run(capsys, ["learn", "-p", DATA + "example2_p0.json", "-o", DATA + "example2_model.json", "-s", "h,t"])
    run_on = run(capsys, ["learn", "-p", DATA + "example2_p0.json", "-o", DATA + "example2_model.json", "-s", "ht"])
    assert comma == run_on


def test_domain_error_exits_one(capsys):
    bad_set = HERE / "data" / "tails_only.json"
    bad_set.write_text(
        json.dumps(
            {"states": ["h", "t"], "entries": [{"mass": ["0", "1"], "weight": "1"}]}
        )
    )
    model = HERE / "data" / "tails_model.json"
    model.write_text(
        json.dumps({"alphabet": ["h", "t"], "likelihoods": [["0", "1"]]})
    )
    try:
        code, out, err = run(
            capsys,
            ["learn", "-p", str(bad_set), "-o", str(model), "-s", "h"],
        )
        assert code == 1
        assert "impossible" in err
    finally:
        bad_set.unlink()
        model.unlink()


def test_parse_error_exits_two(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, ["likelihood", "-p", str(broken), "-e", "h"])
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, ["likelihood", "-p", str(tmp_path / "missing.json"), "-e", "h"])
    assert code == 2


def test_usage_errors_exit_two(capsys):
    assert run(capsys, ["likelihood", "-p", DATA + "example2_p2.json"])[0] == 2
    assert run(capsys, ["nonsense"])[0] == 2
    assert (
        run(
            capsys,
            ["likelihood", "-p", DATA + "example2_p2.json", "-e", "h", "--bogus"],
        )[0]
        == 2
    )


def test_unknown_event_label_exits_two(capsys):
    code, _, err = run(
        capsys, ["likelihood", "-p", DATA + "example2_p2.json", "-e", "x"]
    )
    assert code == 2
    assert "unknown state label" in err


def test_json_modes_parse(capsys):
    code, out, _ = run(
        capsys,
        ["likelihood", "-p", DATA + "example2_p2.json", "-e", "h", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["intervals"][0]["lower"] == "11/27"
    code, out, _ = run(
        capsys,
        ["axioms", "-f", DATA + "counterexample_f.json", "--variant", "reg3prime",
         "--bounds", "2,3,2", "--json"],
    )
    doc = json.loads(out)
    assert doc["violation"]["n"] == 1 and doc["violation"]["k"] == 1
    code, out, _ = run(
        capsys, ["represent", "-f", DATA + "counterexample_f.json", "--json"]
    )
    doc = json.loads(out)
    assert doc["representable"] is True
    assert len(doc["witness"]["entries"]) == 7
    code, out, _ = run(
        capsys,
        ["weight", "-f", DATA + "counterexample_f.json",
         "-q", DATA + "counterexample_measure3.json", "--json"],
    )
    assert json.loads(out) == {"weight": "1"}
    code, out, _ = run(
        capsys,
        ["prefer", "-p", DATA + "example1_set.json", "-a", DATA + "example1_acts.json",
         "-m", DATA + "example1_menu1.json", "--json", "1_{s1}", "1_{s2}"],
    )
    assert json.loads(out)["verdict"] == "better"


def test_trajectory_csv(capsys):
    code, out, _ = run(
        capsys,
        ["trajectory", "-p", DATA + "example2_p0.json", "-o", DATA + "example2_model.json",
         "-s", "h,t", "-e", "h", "--csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step,observation,lower,upper,width"
    assert lines[1] == "0,-,1/3,2/3,1/3"
    assert lines[3] == "2,t,11/27,16/27,5/27"


def test_represent_reports_certificate(capsys, tmp_path):
    table = {
        "states": ["a", "b", "c"],
        "values": {
            "": "1", "a": "1/5", "b": "1", "ab": "1/2",
            "c": "1", "ac": "1", "bc": "1", "abc": "0",
        },
    }
    path = tmp_path / "antimono.json"
    path.write_text(json.dumps(table))
    code, out, _ = run(capsys, ["represent", "-f", str(path)])
    assert code == 0
    assert "representable: no" in out
    assert "certificate" in out
    code, out, _ = run(capsys, ["represent", "-f", str(path), "--json"])
    doc = json.loads(out)
    assert doc["representable"] is False
    assert doc["certificate"]


def test_multilabel_event_spec(capsys):
    code, out, _ = run(
        capsys,
        ["likelihood", "-p", DATA + "example2_p2.json", "-e", "h+t", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["intervals"][0]["event"] == ["h", "t"]
    assert doc["intervals"][0]["lower"] == "0"
    assert doc["intervals"][0]["upper"] == "0"


def test_trajectory_json(capsys):
    code, out, _ = run(
        capsys,
        ["trajectory", "-p", DATA + "example2_p0.json", "-o", DATA + "example2_model.json",
         "-s", "h,t", "-e", "h", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert [step["upper"] for step in doc["steps"]] == ["2/3", "3/8", "16/27"]
    assert doc["steps"][0]["observation"] is None


def test_approx6_rounding():
    assert approx6(rat("1/3")) == "0.333333"
    assert approx6(rat("2/3")) == "0.666667"
    assert approx6(rat("-1/9")) == "-0.111111"
    assert approx6(rat("1")) == "1.000000"
    assert approx6(rat("1/2000000")) == "0.000000"


@pytest.fixture
def default_int_str_limit():
    """Restore CPython's default int/str digit limit for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


# A weight of 10**4999 / (10**5000 + 1), in lowest terms, with more digits
# than the default 4300-digit limit; written as text, so building it needs
# no int/str conversion.
HUGE = "1" + "0" * 4999 + "/1" + "0" * 4999 + "1"


def test_huge_rational_through_weight(capsys, tmp_path, default_int_str_limit):
    table = tmp_path / "f.json"
    table.write_text(
        json.dumps(
            {"states": ["a", "b"], "values": {"": "1", "a": HUGE, "b": "1", "ab": "0"}}
        )
    )
    measure = tmp_path / "q.json"
    measure.write_text(json.dumps({"states": ["a", "b"], "mass": ["0", "1"]}))
    argv = ["weight", "-f", str(table), "-q", str(measure)]
    code, out, err = run(capsys, argv + ["--json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"weight": HUGE}
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == f"canonical weight: {HUGE} (0.100000)\n"


def test_huge_rational_learn_roundtrip(capsys, tmp_path, default_int_str_limit):
    doc = {
        "states": ["a", "b"],
        "entries": [
            {"mass": ["1", "0"], "weight": "1"},
            {"mass": ["0", "1"], "weight": HUGE},
        ],
    }
    pset = tmp_path / "p.json"
    pset.write_text(json.dumps(doc))
    model = tmp_path / "m.json"
    model.write_text(
        json.dumps({"alphabet": ["x", "y"], "likelihoods": [["1/2", "1/2"]] * 2})
    )
    code, out, err = run(capsys, ["learn", "-p", str(pset), "-o", str(model), "-s", "x"])
    assert (code, err) == (0, "")
    assert json.loads(out) == doc
    again = tmp_path / "p1.json"
    again.write_text(out)
    code, out2, err = run(capsys, ["learn", "-p", str(again), "-o", str(model), "-s", "x"])
    assert (code, err) == (0, "")
    assert out2 == out


def test_unexpected_exception_exits_one(capsys, monkeypatch):
    def fail(_table):
        raise RuntimeError("simplex certificate failed exact verification")

    monkeypatch.setattr(wregret.cli, "representability", fail)
    code, out, err = run(capsys, GOLDEN_COMMANDS["represent.txt"])
    assert (code, out) == (1, "")
    assert err == "error: RuntimeError: simplex certificate failed exact verification\n"
