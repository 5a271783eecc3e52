from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wregret import (
    AmbiguityInterval,
    DomainError,
    ObservationModel,
    ProbMeasure,
    StateSpace,
    WeightedCredalSet,
    ambiguity_trajectory,
    epstein_schneider_update,
    update_weights,
    update_weights_sequence,
)
from wregret import learning

import reference_learning as reference
from conftest import coin_grid
from strategies import credal_sets, events, measures, spaces


def tiny_grid():
    return coin_grid(step=6)  # betas 1/3, 1/2, 2/3


def test_single_update_reweights_by_likelihood(coin):
    updated = update_weights(coin.credal, coin.model, "h")
    assert updated.weights == tuple(3 * b / 2 for b in coin.betas)
    again = update_weights(updated, coin.model, "t")
    assert again.weights == tuple(4 * b * (1 - b) for b in coin.betas)


def test_single_measure_stays_at_weight_one():
    space = StateSpace(("h", "t"))
    solo = WeightedCredalSet.unweighted([ProbMeasure(space, ("5/8", "3/8"))])
    model = ObservationModel.iid(solo)
    assert update_weights(solo, model, "t").weights == (Fraction(1),)


def test_impossible_observation_is_an_error():
    space = StateSpace(("h", "t"))
    tails_only = WeightedCredalSet.unweighted([ProbMeasure(space, (0, 1))])
    model = ObservationModel.iid(tails_only)
    with pytest.raises(DomainError):
        update_weights(tails_only, model, "h")
    weightless = WeightedCredalSet(
        (
            (ProbMeasure(space, (1, 0)), Fraction(0)),
            (ProbMeasure(space, (0, 1)), Fraction(1)),
        )
    )
    with pytest.raises(DomainError):
        update_weights(weightless, ObservationModel.iid(weightless), "h")


def test_unknown_symbol_and_misaligned_model(coin):
    with pytest.raises(DomainError):
        update_weights(coin.credal, coin.model, "x")
    short = ObservationModel(("h", "t"), (("1/2", "1/2"),))
    with pytest.raises(DomainError):
        update_weights(coin.credal, short, "h")
    # Alignment is checked before the first observation, so an empty
    # stream cannot hide a misaligned model.
    with pytest.raises(DomainError, match="rows align with entry order"):
        update_weights_sequence(coin.credal, short, [])
    with pytest.raises(DomainError, match="rows align with entry order"):
        ambiguity_trajectory(coin.credal, short, [], coin.heads)


def test_first_failing_observation_is_reported():
    space = StateSpace(("h", "t"))
    tails_only = WeightedCredalSet.unweighted([ProbMeasure(space, (0, 1))])
    model = ObservationModel.iid(tails_only)
    heads = space.event("h")
    for stream, message in (
        (["h", "x"], "impossible"),
        (["x", "h"], "unknown observation symbol"),
    ):
        with pytest.raises(DomainError, match=message):
            update_weights_sequence(tails_only, model, stream)
        with pytest.raises(DomainError, match=message):
            ambiguity_trajectory(tails_only, model, stream, heads)


def test_sequence_equals_fold_and_empty_is_identity(coin):
    assert update_weights_sequence(coin.credal, coin.model, []) == coin.credal
    stepwise = update_weights(
        update_weights(coin.credal, coin.model, "h"), coin.model, "t"
    )
    assert update_weights_sequence(coin.credal, coin.model, ["h", "t"]) == stepwise


def test_two_heads_on_three_point_grid():
    coin = tiny_grid()
    assert coin.betas == (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    updated = update_weights_sequence(coin.credal, coin.model, ["h", "h"])
    assert updated.weights == tuple(9 * b * b / 4 for b in coin.betas)
    assert updated.weights == (Fraction(1, 4), Fraction(9, 16), Fraction(1))


def test_model_rows_must_be_distributions():
    with pytest.raises(DomainError):
        ObservationModel(("h", "t"), (("1/2", "1/3"),))
    with pytest.raises(DomainError):
        ObservationModel(("h", "h"), (("1/2", "1/2"),))
    with pytest.raises(DomainError):
        ObservationModel(("h", "t"), ())


def test_epstein_schneider_threshold():
    coin = tiny_grid()
    kept = epstein_schneider_update(coin.credal, coin.model, "h", Fraction(1, 2))
    assert tuple(m.mass[0] for m in kept) == (Fraction(1, 2), Fraction(2, 3))
    everything = epstein_schneider_update(coin.credal, coin.model, "h", "1/100")
    assert everything == coin.credal.measures
    with pytest.raises(DomainError):
        epstein_schneider_update(coin.credal, coin.model, "h", 1)
    with pytest.raises(DomainError):
        epstein_schneider_update(coin.credal, coin.model, "h", 0)
    with pytest.raises(DomainError):
        epstein_schneider_update(coin.credal, coin.model, "h", "99/100")


def test_trajectory_matches_known_intervals(coin):
    steps = ambiguity_trajectory(coin.credal, coin.model, ["h", "t"], coin.heads)
    assert steps == [
        AmbiguityInterval(Fraction(1, 3), Fraction(2, 3)),
        AmbiguityInterval(Fraction(1, 3), Fraction(3, 8)),
        AmbiguityInterval(Fraction(11, 27), Fraction(16, 27)),
    ]
    prior_only = ambiguity_trajectory(coin.credal, coin.model, [], coin.heads)
    assert prior_only == [AmbiguityInterval(Fraction(1, 3), Fraction(2, 3))]


def test_drop_zero_removes_dead_entries():
    space = StateSpace(("h", "t"))
    credal = WeightedCredalSet.unweighted(
        [ProbMeasure(space, (0, 1)), ProbMeasure(space, ("1/2", "1/2"))]
    )
    model = ObservationModel.iid(credal)
    kept = update_weights_sequence(credal, model, ["h"], drop_zero=True)
    assert len(kept) == 1
    retained = update_weights_sequence(credal, model, ["h"])
    assert len(retained) == 2 and retained.weights == (Fraction(0), Fraction(1))


@settings(max_examples=60)
@given(st.data())
def test_update_keeps_max_weight_one(data):
    space = data.draw(spaces(max_size=3))
    credal = data.draw(credal_sets(space))
    model = ObservationModel.iid(credal)
    symbol = space.labels[data.draw(st.integers(0, space.size - 1))]
    try:
        updated = update_weights(credal, model, symbol)
    except DomainError:
        return  # the drawn observation was impossible for this set
    assert updated.max_weight == 1
    assert len(updated) == len(credal)


@settings(max_examples=60)
@given(st.data())
def test_iid_updates_commute(data):
    space = data.draw(spaces(max_size=3))
    credal = data.draw(credal_sets(space))
    model = ObservationModel.iid(credal)
    first = space.labels[data.draw(st.integers(0, space.size - 1))]
    second = space.labels[data.draw(st.integers(0, space.size - 1))]
    try:
        one_way = update_weights_sequence(credal, model, [first, second])
        other_way = update_weights_sequence(credal, model, [second, first])
    except DomainError:
        return
    assert one_way == other_way


@settings(max_examples=60)
@given(st.data())
def test_sequence_equals_joint_likelihood_normalization(data):
    space = data.draw(spaces(max_size=3))
    credal = data.draw(credal_sets(space))
    model = ObservationModel.iid(credal)
    count = data.draw(st.integers(1, 4))
    observations = [
        space.labels[data.draw(st.integers(0, space.size - 1))] for _ in range(count)
    ]
    joint = []
    for i, (_, weight) in enumerate(credal.entries):
        value = weight
        for symbol in observations:
            value *= model.likelihood(i, symbol)
        joint.append(value)
    top = max(joint)
    try:
        folded = update_weights_sequence(credal, model, observations)
    except DomainError:
        assert top == 0
        return
    assert top > 0
    assert folded.weights == tuple(value / top for value in joint)


@settings(max_examples=60)
@given(st.data())
def test_zero_weight_absorbs(data):
    space = data.draw(spaces(max_size=3))
    credal = data.draw(credal_sets(space, max_entries=3))
    entries = list(credal.entries)
    entries[0] = (entries[0][0], Fraction(0))
    try:
        pinned = WeightedCredalSet(tuple(entries))
    except DomainError:
        return  # entry 0 carried the only weight 1
    model = ObservationModel.iid(pinned)
    symbol = space.labels[data.draw(st.integers(0, space.size - 1))]
    try:
        updated = update_weights(pinned, model, symbol)
    except DomainError:
        return
    assert updated.weights[0] == 0


def _outcomes(name, *args):
    """What the named function and its reference each return or raise."""
    outcomes = []
    for module in (learning, reference):
        try:
            outcomes.append(("value", getattr(module, name)(*args)))
        except DomainError as exc:
            outcomes.append(("raised", type(exc), str(exc)))
    return outcomes


@st.composite
def learning_inputs(draw):
    """A set, an aligned i.i.d. or general model, an event and a stream.

    Weights and likelihoods are often 0, so impossible observations occur;
    the stream sometimes holds a symbol outside the alphabet.
    """
    space = draw(spaces(max_size=3))
    credal = draw(credal_sets(space, max_entries=4))
    if draw(st.booleans()):
        model = ObservationModel.iid(credal)
    else:
        symbols = StateSpace(tuple("xyz"[: draw(st.integers(1, 3))]))
        rows = tuple(draw(measures(symbols, 6)).mass for _ in credal.entries)
        model = ObservationModel(symbols.labels, rows)
    alphabet = st.sampled_from(model.alphabet)
    symbol = st.one_of(alphabet, st.just("?")) if draw(st.booleans()) else alphabet
    stream = [draw(symbol) for _ in range(draw(st.integers(0, 6)))]
    return credal, model, draw(events(space)), stream


@settings(max_examples=300)
@given(learning_inputs(), st.booleans())
def test_integer_fold_equals_reference_fold(inputs, drop_zero):
    credal, model, event, stream = inputs
    new, old = _outcomes("update_weights_sequence", credal, model, stream, drop_zero)
    assert new == old
    new, old = _outcomes("ambiguity_trajectory", credal, model, stream, event)
    assert new == old
    for symbol in stream[:1]:
        new, old = _outcomes("update_weights", credal, model, symbol, drop_zero)
        assert new == old
