import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from wregret import (
    Act,
    DocumentError,
    ObservationModel,
    ProbMeasure,
    SetFunction,
    StateSpace,
    WeightedCredalSet,
)
from wregret.documents import (
    acts_doc,
    credal_set_doc,
    event_key,
    measure_doc,
    observation_model_doc,
    parse_acts,
    parse_credal_set,
    parse_measure,
    parse_observation_model,
    parse_set_function,
    set_function_doc,
)

DATA = Path(__file__).parent / "data"


def load(name):
    return json.loads((DATA / name).read_text())


def test_credal_set_roundtrip():
    doc = load("counterexample_set.json")
    credal = parse_credal_set(doc)
    assert credal_set_doc(credal) == doc
    assert parse_credal_set(credal_set_doc(credal)) == credal


def test_credal_set_canonicalizes_rationals():
    doc = {
        "states": ["a", "b"],
        "entries": [{"mass": ["2/4", "3/-6"], "weight": "3/3"}],
    }
    with pytest.raises(DocumentError):
        parse_credal_set(doc)  # 3/-6 is negative
    doc["entries"][0]["mass"] = ["2/4", "4/8"]
    credal = parse_credal_set(doc)
    assert credal_set_doc(credal)["entries"][0] == {
        "mass": ["1/2", "1/2"],
        "weight": "1",
    }


def test_credal_set_strictness():
    base = {"states": ["a", "b"], "entries": [{"mass": ["1/2", "1/3"], "weight": "1"}]}
    with pytest.raises(DocumentError):
        parse_credal_set(base)  # masses must sum to exactly 1
    with pytest.raises(DocumentError):
        parse_credal_set(
            {"states": ["a", "b"], "entries": [{"mass": ["1/2", "1/2"], "weight": "1/2"}]}
        )  # max weight must be 1
    with pytest.raises(DocumentError):
        parse_credal_set({"states": ["a", "b"], "entries": []})
    with pytest.raises(DocumentError):
        parse_credal_set([])


def test_acts_roundtrip_with_ambient_space():
    space = StateSpace(("s1", "s2", "s3", "s4"))
    acts = parse_acts(load("example1_acts.json"), space)
    assert [a.name for a in acts] == ["1_{s1}", "1_{s2}", "1_{s2,s3}"]
    assert acts_doc(acts) == load("example1_acts.json")
    with_states = acts_doc(acts, include_states=True)
    reparsed = parse_acts(with_states)
    assert reparsed == acts
    with pytest.raises(DocumentError):
        parse_acts(load("example1_acts.json"))  # no states anywhere
    other = StateSpace(("x", "y", "z", "w"))
    with pytest.raises(DocumentError):
        parse_acts(with_states, other)


def test_observation_model_roundtrip():
    doc = load("example2_model.json")
    model = parse_observation_model(doc)
    assert observation_model_doc(model) == doc
    with pytest.raises(DocumentError):
        parse_observation_model(
            {"alphabet": ["h", "t"], "likelihoods": [["1/2", "1/3"]]}
        )


def test_observation_alphabet_symbols_must_be_strings():
    rows = [["1/2", "1/2"]]
    for alphabet, message in [
        ([1, None], 'model "alphabet" symbol 0 must be a string, got int'),
        (["h", None], 'model "alphabet" symbol 1 must be a string, got NoneType'),
        ([["h"], "t"], 'model "alphabet" symbol 0 must be a string, got list'),
        (["h", True], 'model "alphabet" symbol 1 must be a string, got bool'),
    ]:
        with pytest.raises(DocumentError) as raised:
            parse_observation_model({"alphabet": alphabet, "likelihoods": rows})
        assert str(raised.value) == message


@pytest.mark.parametrize(
    "parse, doc, field",
    [
        (
            parse_credal_set,
            {"states": ["a", "b"], "entries": [{"mass": [True, False], "weight": "1"}]},
            "entry 0 mass",
        ),
        (
            parse_credal_set,
            {"states": ["a", "b"], "entries": [{"mass": ["1", "0"], "weight": True}]},
            "entry 0 weight",
        ),
        (
            parse_acts,
            {"states": ["a", "b"], "acts": [{"name": "x", "utility": ["1", False]}]},
            "act 0 utility",
        ),
        (
            parse_observation_model,
            {"alphabet": ["h", "t"], "likelihoods": [[True, False]]},
            "model row 0",
        ),
        (
            parse_set_function,
            {"states": ["a"], "values": {"": True, "a": "0"}},
            "value for ''",
        ),
        (parse_measure, {"states": ["a"], "mass": [True]}, "measure mass"),
    ],
    ids=["mass", "weight", "utility", "model_row", "set_function_value", "measure"],
)
def test_boolean_rationals_rejected(parse, doc, field):
    # Each document would parse if its booleans were read as 1 and 0.
    with pytest.raises(DocumentError, match="^" + re.escape(field) + " must be"):
        parse(doc)


def test_set_function_roundtrip():
    doc = load("counterexample_f.json")
    table = parse_set_function(doc)
    assert table.value(table.space.event(["a", "b"])) == Fraction(4, 9)
    emitted = set_function_doc(table)
    assert parse_set_function(emitted) == table
    assert set(emitted["values"]) == set(doc["values"])
    assert all(emitted["values"][k] == doc["values"][k] for k in doc["values"])


def test_set_function_table_must_be_total():
    doc = load("counterexample_f.json")
    del doc["values"]["ab"]
    with pytest.raises(DocumentError, match="total"):
        parse_set_function(doc)
    doc = load("counterexample_f.json")
    doc["values"]["zz"] = "1"
    with pytest.raises(DocumentError, match="unknown event key"):
        parse_set_function(doc)


def test_ambiguous_event_keys_rejected():
    doc = {
        "states": ["ab", "a", "b"],
        "values": {},
    }
    with pytest.raises(DocumentError, match="ambiguous"):
        parse_set_function(doc)


def test_event_key_sorts_labels():
    space = StateSpace(("b", "a"))
    assert event_key(space.event(["b", "a"])) == "ab"
    assert event_key(space.empty_event) == ""


def test_measure_roundtrip():
    doc = load("counterexample_measure3.json")
    measure = parse_measure(doc)
    assert measure_doc(measure) == doc
    with pytest.raises(DocumentError):
        parse_measure({"states": ["a"], "mass": ["1/2"]})
