import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wregret.cli
from wregret.cli import approx6, main
from wregret import ProbMeasure, SetFunction, StateSpace, WeightedCredalSet, rat
from wregret.documents import credal_set_doc, measure_doc, set_function_doc

from conftest import coin_grid
from strategies import credal_sets, measures, spaces

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


@pytest.mark.parametrize(
    "alphabet, complaint",
    [
        ([1, None], "symbol 0 must be a string, got int"),
        ([["h"], "t"], "symbol 0 must be a string, got list"),
    ],
    ids=["int_and_null", "unhashable"],
)
def test_non_string_alphabet_exits_two(capsys, tmp_path, alphabet, complaint):
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps({"alphabet": alphabet, "likelihoods": [["1/2", "1/2"]] * 9})
    )
    code, out, err = run(
        capsys,
        ["learn", "-p", DATA + "example2_p0.json", "-o", str(model), "-s", "1"],
    )
    assert (code, out) == (2, "")
    assert err == f'error: model "alphabet" {complaint}\n'


def test_boolean_rational_exits_two(capsys, tmp_path):
    pset = tmp_path / "booleans.json"
    pset.write_text(
        json.dumps(
            {"states": ["h", "t"], "entries": [{"mass": [True, False], "weight": True}]}
        )
    )
    code, out, err = run(capsys, ["likelihood", "-p", str(pset), "-e", "h"])
    assert (code, out) == (2, "")
    assert err == "error: entry 0 mass must be a rational string, got True\n"


@pytest.mark.parametrize(
    "variant, bounds", [("reg3", "3,9"), ("reg3prime", "2,3,2"), ("lp", "2,3,2")]
)
def test_axioms_resource_guard_exits_one(capsys, tmp_path, variant, bounds):
    space = StateSpace(tuple("abcdefgh"))
    table = SetFunction.from_likelihood(
        WeightedCredalSet.unweighted([ProbMeasure.uniform(space)])
    )
    path = tmp_path / "uniform8.json"
    path.write_text(json.dumps(set_function_doc(table)))
    code, out, err = run(
        capsys, ["axioms", "-f", str(path), "--variant", variant, "--bounds", bounds]
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: bounded cover enumeration would visit about")


def test_deep_cover_search_does_not_recurse(capsys, tmp_path):
    # 1200 copies of the one event below the full space: a multiset deeper
    # than CPython's recursion limit, yet far inside the node guard.
    path = tmp_path / "one_state.json"
    path.write_text(json.dumps({"states": ["a"], "values": {"": "1", "a": "0"}}))
    argv = ["axioms", "-f", str(path), "--variant", "reg3prime", "--bounds", "999999999,1200"]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == (
        "REG3' bounded (n <= 999999999, k <= 2, m <= 1200): pass"
    )
    assert elapsed < 10


@pytest.mark.parametrize(
    "command, value, complaint",
    [
        ("regret", "1/0", "zero denominator in rational '1/0'"),
        ("prefer", "x", "cannot parse 'x' as a rational"),
    ],
)
def test_bad_ustar_names_the_flag(capsys, command, value, complaint):
    argv = [
        command, "-p", DATA + "example1_set.json",
        "-a", DATA + "example1_acts.json", f"--ustar={value}",
    ]
    if command == "prefer":
        argv += ["1_{s1}", "1_{s2}"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: --ustar: {complaint}\n"


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


@pytest.mark.parametrize("command", ["learn", "trajectory"])
def test_misaligned_model_fails_on_empty_stream(capsys, tmp_path, command):
    model = tmp_path / "one_row.json"
    model.write_text(
        json.dumps({"alphabet": ["h", "t"], "likelihoods": [["1/2", "1/2"]]})
    )
    argv = [command, "-p", DATA + "example2_p0.json", "-o", str(model), "-s", ""]
    if command == "trajectory":
        argv += ["-e", "h"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert "rows align with entry order" in err


def test_long_stream_learn_roundtrip(capsys, tmp_path, default_int_str_limit):
    # 3000 tosses on the 99-point grid: posterior weights of about 5000
    # digits, past CPython's default int/str limit.
    grid = coin_grid(step=100, lo=Fraction(1, 100), hi=Fraction(99, 100))
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps(credal_set_doc(grid.credal)))
    model = tmp_path / "model.json"
    rows = [[str(b), str(1 - b)] for b in grid.betas]
    model.write_text(json.dumps({"alphabet": ["h", "t"], "likelihoods": rows}))
    first, second = "hht" * 1000, "ht" * 100
    learn = ["learn", "-o", str(model), "-p"]
    code, out, err = run(capsys, learn + [str(prior), "-s", first])
    assert (code, err) == (0, "")
    posterior = tmp_path / "posterior.json"
    posterior.write_text(out)
    code, chained, err = run(capsys, learn + [str(posterior), "-s", second])
    assert (code, err) == (0, "")
    code, joint, err = run(capsys, learn + [str(prior), "-s", first + second])
    assert (code, err) == (0, "")
    assert chained == joint


_PRIOR = {
    "states": ["h", "t"],
    "entries": [
        {"mass": ["1/2", "1/2"], "weight": "1"},
        {"mass": ["1", "0"], "weight": "1/3"},
    ],
}
_VALUES = ["0", "1", "1/2", "1/3", "2/3", "-1", "3/2", "2/4", "1/0", "x", ""]
_VALUES += [0, 1, 0.5, None, []]
_VALID_ROWS = st.sampled_from([["1/2", "1/2"], ["1", "0"], ["0", "1"], ["1/3", "2/3"]])


@st.composite
def model_texts(draw):
    """Model files: mostly well formed, some with bad values, some not models."""
    if draw(st.integers(0, 9)) == 0:
        return draw(
            st.sampled_from(["{not json", "", "[]", "null", '"h"', '{"alphabet": ["h"]}'])
        )
    alphabet = draw(
        st.one_of(
            st.sampled_from([["h", "t"], ["x", "ht"]]),
            st.lists(st.sampled_from(["h", "t", "x", "", "ht", ",", 1, None]), max_size=3),
        )
    )
    any_row = st.one_of(_VALID_ROWS, st.lists(st.sampled_from(_VALUES), max_size=3))
    rows = draw(
        st.one_of(
            st.lists(_VALID_ROWS, min_size=2, max_size=2),
            st.lists(any_row, max_size=3),
        )
    )
    return json.dumps({"alphabet": alphabet, "likelihoods": rows})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_clean_exit(argv):
    """Exit 0, 1 or 2, no traceback, and stderr empty exactly on exit 0."""
    # Not capsys: hypothesis rejects function-scoped fixtures.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


@settings(max_examples=150)
@given(
    command=st.sampled_from(["learn", "trajectory"]),
    model=model_texts(),
    observations=st.one_of(st.text("ht,x? ", max_size=12), st.text(max_size=6)),
    event=st.sampled_from(["h", "t", "h+t", "empty", "all", "x", "", ",", "h,t"]),
    drop_zero=st.booleans(),
)
def test_fuzzed_learning_commands_never_raise(
    fuzz_dir, command, model, observations, event, drop_zero
):
    prior = fuzz_dir / "prior.json"
    prior.write_text(json.dumps(_PRIOR))
    model_path = fuzz_dir / "model.json"
    model_path.write_text(model)
    argv = [command, "-p", str(prior), "-o", str(model_path), "-s", observations]
    if command == "learn":
        argv += ["--drop-zero"] if drop_zero else []
    else:
        argv += ["-e", event]
    assert_clean_exit(argv)


_TABLE_JUNK = [True, False, 0.5, None, [], {}, "x", "", "1/0", "-1/3", "3/2", 2, -1]
_BOUNDS = st.one_of(
    st.none(),
    st.lists(st.integers(0, 3), min_size=2, max_size=3).map(
        lambda bounds: ",".join(map(str, bounds))
    ),
    st.sampled_from(
        ["", ",", "1", "a,b", "1,2,3,4", "1.5,2", "-1,2", "2,-1", "1,2,-3"]
    ),
    # A huge order bound n with a small multiset bound m.
    st.just("9" * 30 + ",2"),
    # Past the node guard at every state count from 1 to 3.
    st.sampled_from(["3,3000000", "2,3000000,2", "2," + "9" * 30]),
)


@st.composite
def table_documents(draw):
    """A set-function file over 1-3 states and a measure file.

    The table is induced by a weighted set or is the dual of one.  Some
    tables carry one flaw: a value that is a boolean, float, null, junk or
    out of range, an unknown key, a missing key, or no set function at all.
    The measure is mostly over the same states.
    """
    space = draw(spaces(max_size=3))
    table = SetFunction.from_likelihood(draw(credal_sets(space)))
    if draw(st.booleans()):
        table = SetFunction(space, tuple(1 - v for v in table.values))
    doc = set_function_doc(table)
    values = doc["values"]
    flaw = draw(
        st.sampled_from([None, None, None, "value", "unknown", "missing", "other"])
    )
    if flaw == "value":
        values[draw(st.sampled_from(sorted(values)))] = draw(
            st.sampled_from(_TABLE_JUNK)
        )
    if flaw == "unknown":
        values[draw(st.sampled_from(["z", "ba", "abcd", " a"]))] = "1"
    if flaw == "missing":
        del values[draw(st.sampled_from(sorted(values)))]
    function = json.dumps(doc)
    if flaw == "other":
        function = draw(
            st.sampled_from(
                ["{not json", "", "[]", "null", '{"states": ["a"]}',
                 '{"states": ["a", "a"], "values": {}}', '{"states": [true]}']
            )
        )
    measure_space = draw(st.one_of(st.just(space), spaces(max_size=3)))
    measure = measure_doc(draw(measures(measure_space)))
    if draw(st.integers(0, 9)) == 0:
        measure["mass"][0] = draw(st.sampled_from(_TABLE_JUNK))
    return function, json.dumps(measure)


@settings(max_examples=150)
@given(
    documents=table_documents(),
    command=st.sampled_from(["axioms", "represent", "weight"]),
    variant=st.sampled_from(["reg3", "reg3prime", "lp"]),
    bounds=_BOUNDS,
    as_json=st.booleans(),
)
def test_fuzzed_table_commands_never_raise(
    fuzz_dir, documents, command, variant, bounds, as_json
):
    function_path = fuzz_dir / "function.json"
    measure_path = fuzz_dir / "measure.json"
    function_path.write_text(documents[0])
    measure_path.write_text(documents[1])
    argv = [command, "-f", str(function_path)]
    if command == "axioms":
        argv += ["--variant", variant]
        argv += [] if bounds is None else ["--bounds", bounds]
    if command == "weight":
        argv += ["-q", str(measure_path)]
    argv += ["--json"] if as_json else []
    assert_clean_exit(argv)


_UTILITIES = ["0", "1", "1/2", "-1", "3/2", "7", "2/6"]
_ACT_NAMES = ["x", "y", "z", "1_{a}"]


def _rarely(draw, choices):
    """None nine times in ten, otherwise one of the choices."""
    return draw(st.sampled_from(choices)) if draw(st.integers(0, 9)) == 0 else None


@st.composite
def acts_texts(draw, space):
    """An acts or menu file: two to four acts named from a small pool, over
    the space's states.  Some have junk or misfitting utilities, a
    non-string, missing or repeated name, or a "states" key that may
    disagree with the space; a few are not acts documents at all."""
    junk = _rarely(
        draw,
        ["{not json", "", "[]", "null", '{"acts": []}', '{"acts": {}}',
         '{"acts": [1]}', '{"acts": [{}]}'],
    )
    if junk is not None:
        return junk
    acts = []
    for name in draw(st.lists(st.sampled_from(_ACT_NAMES), min_size=2, max_size=4)):
        utility = draw(
            st.lists(st.sampled_from(_UTILITIES), min_size=space.size, max_size=space.size)
        )
        flaw = _rarely(draw, ["value", "length", "name", "missing"])
        if flaw == "value":
            utility[draw(st.integers(0, space.size - 1))] = draw(
                st.sampled_from(_TABLE_JUNK)
            )
        if flaw == "length":
            utility = utility[1:] if draw(st.booleans()) else utility + ["0"]
        if flaw == "name":
            name = draw(st.sampled_from([1, None, ""]))
        act = {"name": name, "utility": utility}
        if flaw == "missing":
            del act[draw(st.sampled_from(["name", "utility"]))]
        acts.append(act)
    doc = {"acts": acts}
    states = _rarely(draw, ["same", ["a", "b", "c", "d"], ["a", "a"], "ab"])
    if states is not None:
        doc["states"] = list(space.labels) if states == "same" else states
    return json.dumps(doc)


@st.composite
def query_documents(draw):
    """A credal-set file over 1-3 states with an acts and a menu file.

    The set is drawn by `credal_sets`; some carry one flaw: a junk mass or
    weight, bad "entries" or "states", or no credal set at all.
    """
    space = draw(spaces(max_size=3))
    doc = credal_set_doc(draw(credal_sets(space)))
    entries = doc["entries"]
    flaw = _rarely(draw, ["mass", "weight", "entries", "states", "other"])
    if flaw == "mass":
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        entry["mass"][draw(st.integers(0, space.size - 1))] = draw(
            st.sampled_from(_TABLE_JUNK)
        )
    if flaw == "weight":
        entries[draw(st.integers(0, len(entries) - 1))]["weight"] = draw(
            st.sampled_from(_TABLE_JUNK + ["0", "2"])
        )
    if flaw == "entries":
        doc["entries"] = draw(st.sampled_from([[], {}, None, [1], [{}], [{"mass": []}]]))
    if flaw == "states":
        doc["states"] = draw(
            st.sampled_from([[], ["a", "a"], ["a", 1], "ab", None, [""], ["a", "b", "c", "d"]])
        )
    credal = json.dumps(doc)
    if flaw == "other":
        credal = draw(st.sampled_from(["{not json", "", "[]", "null", '{"states": ["a"]}']))
    return credal, draw(acts_texts(space)), draw(acts_texts(space))


_EVENT_SPECS = st.one_of(
    st.lists(
        st.lists(st.sampled_from("abc"), max_size=3).map("+".join), min_size=1, max_size=3
    ).map(",".join),
    st.text("abcz+, ", max_size=8),
    st.sampled_from(["empty", "all", "full", "a+a", " a ", "z", "-a", "--json"]),
)


@st.composite
def act_names(draw):
    """Mostly a name from the acts' pool; rarely one no act has, or one the
    argument parser takes for an option."""
    name = _rarely(draw, ["w", "", "-x", "x,y", "1_{a} "])
    return draw(st.sampled_from(_ACT_NAMES)) if name is None else name


_USTARS = st.one_of(
    st.none(), st.sampled_from(["1", "0", "-1/2", "3/2", "7"]), st.sampled_from(["x", "1/0", ""])
)


@settings(max_examples=150)
@given(
    documents=query_documents(),
    command=st.sampled_from(["likelihood", "regret", "prefer"]),
    events=_EVENT_SPECS,
    with_menu=st.booleans(),
    ustar=_USTARS,
    names=st.tuples(act_names(), act_names()),
    as_json=st.booleans(),
)
def test_fuzzed_query_commands_never_raise(
    fuzz_dir, documents, command, events, with_menu, ustar, names, as_json
):
    paths = [fuzz_dir / name for name in ("pset.json", "acts.json", "menu.json")]
    for path, text in zip(paths, documents):
        path.write_text(text)
    argv = [command, "-p", str(paths[0])]
    if command == "likelihood":
        argv += ["-e", events]
    else:
        argv += ["-a", str(paths[1])]
        argv += ["-m", str(paths[2])] if with_menu else []
        # "--ustar -1/2" would read -1/2 as an option; "=" keeps it a value.
        argv += [] if ustar is None else [f"--ustar={ustar}"]
    argv += ["--json"] if as_json else []
    if command == "prefer":
        argv += list(names)
    assert_clean_exit(argv)
