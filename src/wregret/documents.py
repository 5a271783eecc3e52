"""JSON-compatible document formats.

Rationals travel as strings ("p/q" canonical with q > 0 and lowest terms,
or a bare integer); non-canonical forms are accepted on input and
canonicalized.  Parsing is strict: masses must sum to exactly 1, weights
must include a 1, set-function tables must be total.  Serialization is
canonical and deterministic, so parse followed by serialize is the identity
on canonical documents.

Formats:

* credal set:   ``{"states": [...], "entries": [{"mass": [...], "weight": "2/3"}, ...]}``
* acts:         ``{"acts": [{"name": "...", "utility": ["0", "1", ...]}, ...]}``
  (an optional "states" key fixes the space; otherwise the caller supplies it)
* model:        ``{"alphabet": ["h", "t"], "likelihoods": [["5/8", "3/8"], ...]}``
  with one row per credal-set entry, in entry order
* set function: ``{"states": [...], "values": {"": "1", "a": "2/3", ...}}``
  keyed by the sorted concatenation of member labels; every event required
* measure:      ``{"states": [...], "mass": [...]}``
"""

from __future__ import annotations

from typing import Any, Sequence

from .axioms import SetFunction
from .core import (
    DocumentError,
    DomainError,
    Event,
    ProbMeasure,
    Rat,
    StateSpace,
    WeightedCredalSet,
    rat,
    rat_str,
)
from .learning import ObservationModel
from .regret import Act

__all__ = [
    "event_key",
    "parse_credal_set",
    "credal_set_doc",
    "parse_acts",
    "acts_doc",
    "parse_observation_model",
    "observation_model_doc",
    "parse_set_function",
    "set_function_doc",
    "parse_measure",
    "measure_doc",
]


def event_key(event: Event) -> str:
    """Document key for an event: member labels sorted and concatenated."""
    return "".join(sorted(event.members()))


def _require_dict(doc: Any, what: str) -> dict:
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} document must be a JSON object")
    return doc


def _require_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a JSON array")
    return value


def _parse_rat(value: Any, what: str) -> Rat:
    # JSON true/false arrive as bool, an int subclass; they are not rationals.
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DocumentError(f"{what} must be a rational string, got {value!r}")
    try:
        return rat(value)
    except DocumentError as exc:
        raise DocumentError(f"{what}: {exc}") from None


def _parse_space(doc: dict, what: str) -> StateSpace:
    labels = _require_list(doc.get("states"), f'{what} "states"')
    try:
        return StateSpace(tuple(labels))
    except DomainError as exc:
        raise DocumentError(f"{what}: {exc}") from None


def _parse_mass(value: Any, space: StateSpace, what: str) -> ProbMeasure:
    raw = _require_list(value, f'{what} "mass"')
    masses = tuple(_parse_rat(v, f"{what} mass") for v in raw)
    try:
        return ProbMeasure(space, masses)
    except DomainError as exc:
        raise DocumentError(f"{what}: {exc}") from None


def parse_credal_set(doc: Any) -> WeightedCredalSet:
    doc = _require_dict(doc, "credal set")
    space = _parse_space(doc, "credal set")
    raw_entries = _require_list(doc.get("entries"), 'credal set "entries"')
    entries = []
    for position, raw in enumerate(raw_entries):
        raw = _require_dict(raw, f"credal set entry {position}")
        measure = _parse_mass(raw.get("mass"), space, f"entry {position}")
        weight = _parse_rat(raw.get("weight"), f"entry {position} weight")
        entries.append((measure, weight))
    try:
        return WeightedCredalSet(tuple(entries))
    except DomainError as exc:
        raise DocumentError(f"credal set: {exc}") from None


def credal_set_doc(credal: WeightedCredalSet) -> dict:
    return {
        "states": list(credal.space.labels),
        "entries": [
            {
                "mass": [rat_str(v) for v in measure.mass],
                "weight": rat_str(weight),
            }
            for measure, weight in credal
        ],
    }


def parse_acts(doc: Any, space: StateSpace | None = None) -> list[Act]:
    doc = _require_dict(doc, "acts")
    if "states" in doc:
        declared = _parse_space(doc, "acts")
        if space is not None and declared != space:
            raise DocumentError(
                "acts document declares different states than the ambient space"
            )
        space = declared
    if space is None:
        raise DocumentError('acts document needs a "states" key or an ambient space')
    acts = []
    for position, raw in enumerate(_require_list(doc.get("acts"), 'acts "acts"')):
        raw = _require_dict(raw, f"act {position}")
        name = raw.get("name", "")
        if not isinstance(name, str):
            raise DocumentError(f"act {position} name must be a string")
        utility = tuple(
            _parse_rat(v, f"act {position} utility")
            for v in _require_list(raw.get("utility"), f'act {position} "utility"')
        )
        try:
            acts.append(Act(space, utility, name))
        except DomainError as exc:
            raise DocumentError(f"act {position}: {exc}") from None
    if not acts:
        raise DocumentError("acts document contains no acts")
    return acts


def acts_doc(acts: Sequence[Act], include_states: bool = False) -> dict:
    doc: dict[str, Any] = {}
    if include_states:
        doc["states"] = list(acts[0].space.labels)
    doc["acts"] = [
        {"name": act.name, "utility": [rat_str(v) for v in act.utility]}
        for act in acts
    ]
    return doc


def parse_observation_model(doc: Any) -> ObservationModel:
    doc = _require_dict(doc, "observation model")
    alphabet = _require_list(doc.get("alphabet"), 'model "alphabet"')
    for position, symbol in enumerate(alphabet):
        if not isinstance(symbol, str):
            raise DocumentError(
                f'model "alphabet" symbol {position} must be a string, '
                f"got {type(symbol).__name__}"
            )
    rows = _require_list(doc.get("likelihoods"), 'model "likelihoods"')
    parsed_rows = tuple(
        tuple(
            _parse_rat(v, f"model row {position}")
            for v in _require_list(row, f"model row {position}")
        )
        for position, row in enumerate(rows)
    )
    try:
        return ObservationModel(tuple(alphabet), parsed_rows)
    except DomainError as exc:
        raise DocumentError(f"observation model: {exc}") from None


def observation_model_doc(model: ObservationModel) -> dict:
    return {
        "alphabet": list(model.alphabet),
        "likelihoods": [[rat_str(v) for v in row] for row in model.rows],
    }


def _event_key_table(space: StateSpace) -> dict[str, int]:
    table: dict[str, int] = {}
    for event in space.events():
        key = event_key(event)
        if key in table:
            raise DocumentError(
                "state labels are ambiguous under key concatenation; "
                "rename states so that event keys are unique"
            )
        table[key] = event.mask
    return table


def parse_set_function(doc: Any) -> SetFunction:
    doc = _require_dict(doc, "set function")
    space = _parse_space(doc, "set function")
    raw_values = doc.get("values")
    if not isinstance(raw_values, dict):
        raise DocumentError('set function "values" must be a JSON object')
    table = _event_key_table(space)
    values: list[Rat | None] = [None] * (1 << space.size)
    for key, raw in raw_values.items():
        if key not in table:
            raise DocumentError(f"unknown event key {key!r}")
        values[table[key]] = _parse_rat(raw, f"value for {key!r}")
    missing = [key for key, mask in table.items() if values[mask] is None]
    if missing:
        raise DocumentError(
            f"set-function table must be total; missing keys: {missing}"
        )
    try:
        return SetFunction(space, tuple(values))
    except DomainError as exc:
        raise DocumentError(f"set function: {exc}") from None


def set_function_doc(f: SetFunction) -> dict:
    return {
        "states": list(f.space.labels),
        "values": {
            event_key(event): rat_str(f.values[event.mask])
            for event in f.space.events()
        },
    }


def parse_measure(doc: Any) -> ProbMeasure:
    doc = _require_dict(doc, "measure")
    space = _parse_space(doc, "measure")
    return _parse_mass(doc.get("mass"), space, "measure")


def measure_doc(measure: ProbMeasure) -> dict:
    return {
        "states": list(measure.space.labels),
        "mass": [rat_str(v) for v in measure.mass],
    }
