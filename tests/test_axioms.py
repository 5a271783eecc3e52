import functools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wregret import (
    DomainError,
    ProbMeasure,
    ResourceLimitError,
    SetFunction,
    StateSpace,
    WeightedCredalSet,
    canonical_weight,
    check_LP_axioms,
    check_REG12,
    check_REG3_bounded,
    check_REG3prime,
    event_system,
    lower_probability,
    regret_likelihood,
    representability,
    verify_certificate,
    verify_witness,
)

import reference_axioms as reference
from randgen import (
    break_antimonotonicity,
    break_by_perturbation,
    random_credal_set,
    random_space,
    verify_cover_violation,
)
from strategies import rationals_01


def lower_prob_table(credal):
    space = credal.space
    return SetFunction(
        space,
        tuple(
            lower_probability(space.event_from_mask(mask), credal)
            for mask in range(1 << space.size)
        ),
    )


def test_set_function_validation():
    space = StateSpace(("a", "b"))
    with pytest.raises(DomainError):
        SetFunction(space, (1, 0, 0))
    with pytest.raises(DomainError):
        SetFunction(space, (1, "3/2", 0, 0))
    table = SetFunction(space, ("1", "1/2", "1/2", "0"))
    assert table.value(space.event("a")) == Fraction(1, 2)


def test_check_reg12(three_weighted):
    assert check_REG12(three_weighted.table)
    space = three_weighted.space
    broken = three_weighted.table.with_value(space.full_event, Fraction(1, 2))
    assert not check_REG12(broken)
    assert not check_REG12(
        three_weighted.table.with_value(space.empty_event, Fraction(1, 2))
    )


def test_reg3_passes_on_weighted_example(three_weighted):
    assert check_REG3_bounded(three_weighted.table, 3, 4) is None


def test_reg3_catches_antimonotonicity_breach():
    space = StateSpace(("a", "b"))
    # subsets must rate at least as high as supersets; here {a} rates below {a,b}
    f = SetFunction(space, ("1", "1/5", "1", "1/2"))
    violation = check_REG3_bounded(f, 3, 4)
    assert violation is not None
    assert violation.n == 1 and violation.k == 0
    assert violation.target.members() == ("a", "b")
    assert violation.events == ((space.event("a"), 1),)
    assert violation.slack == Fraction(1, 5) - Fraction(1, 2)
    assert verify_cover_violation(f, violation)


def test_reg3_flags_positive_value_at_full_space():
    space = StateSpace(("a", "b"))
    f = SetFunction(space, ("1", "1", "1", "1"))
    violation = check_REG3_bounded(f, 3, 4)
    assert violation is not None
    assert violation.target == space.full_event
    assert violation.events == ()


def test_reg3prime_violation_on_weighted_example(three_weighted):
    violation = check_REG3prime(three_weighted.table, 2, 2, 3)
    assert violation is not None
    assert (violation.n, violation.k) == (1, 1)
    space = three_weighted.space
    assert violation.target == space.event(["a", "b"])
    assert violation.events == ((space.event("a"), 1), (space.event("b"), 1))
    assert violation.lhs == 1 + Fraction(4, 9)
    assert violation.rhs == Fraction(4, 3)
    assert verify_cover_violation(three_weighted.table, violation)


def test_reg3prime_cost_does_not_grow_with_max_n(three_weighted):
    # Orders above max_m can only matter at the full space, whose value is
    # 0 once the search starts; a loop up to max_n = 10**12 would not end.
    space = StateSpace(("a", "b"))
    uniform = SetFunction.from_likelihood(
        WeightedCredalSet.unweighted([ProbMeasure.uniform(space)])
    )
    for table in (uniform, three_weighted.table):
        assert check_REG3prime(table, 10**12, 2, 3) == check_REG3prime(table, 3, 2, 3)
    assert check_REG3prime(uniform, 10**12, 2, 3) is None


def test_reg3prime_holds_for_unweighted_sets():
    rng = Random(7)
    for _ in range(25):
        credal = random_credal_set(
            rng, random_space(rng, sizes=(2, 3)), unweighted=True
        )
        table = SetFunction.from_likelihood(credal)
        assert check_REG3prime(table, 2, 2, 3) is None


def test_reg3_holds_for_weighted_sets():
    rng = Random(11)
    for _ in range(25):
        credal = random_credal_set(rng, random_space(rng, sizes=(2, 3)))
        table = SetFunction.from_likelihood(credal)
        assert check_REG12(table)
        assert check_REG3_bounded(table, 3, 4) is None


@pytest.mark.parametrize(
    "check, bounds",
    [
        pytest.param(check_REG3_bounded, (3, 9), id="check_REG3_bounded"),
        pytest.param(check_REG3prime, (2, 2, 3), id="check_REG3prime"),
        pytest.param(check_LP_axioms, (2, 2, 3), id="check_LP_axioms"),
    ],
)
def test_resource_guard_names_the_bounds(check, bounds):
    space = StateSpace(tuple("abcdefgh"))
    table = SetFunction.from_likelihood(
        WeightedCredalSet.unweighted([ProbMeasure.uniform(space)])
    )
    with pytest.raises(ResourceLimitError) as raised:
        check(table, *bounds)
    with pytest.raises(ResourceLimitError) as expected:
        getattr(reference, check.__name__)(table, *bounds)
    message = str(raised.value)
    assert message == str(expected.value)
    assert message.startswith("bounded cover enumeration would visit about")
    assert "for N = 8; lower max_m" in message


@st.composite
def cover_tables(draw):
    """`randgen` tables over 2-4 states: induced by a weighted or unweighted
    set, its dual (a lower probability when unweighted), one with an
    antimonotonicity breach, a perturbed one, or one with a value replaced."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    space = random_space(rng, sizes=(draw(st.integers(2, 4)),))
    credal = random_credal_set(rng, space, unweighted=draw(st.booleans()))
    table = SetFunction.from_likelihood(credal)
    kind = draw(
        st.sampled_from(["induced", "dual", "breach", "perturbed", "replaced"])
    )
    if kind == "dual":
        return SetFunction(space, tuple(1 - v for v in table.values))
    if kind == "breach":
        return break_antimonotonicity(rng, table) or table
    if kind == "perturbed":
        return break_by_perturbation(rng, table, attempts=2) or table
    if kind == "replaced":
        mask = draw(st.integers(0, space.full_mask))
        return table.with_value(space.event_from_mask(mask), draw(rationals_01()))
    return table


@settings(max_examples=300)
@given(
    table=cover_tables(),
    max_n=st.integers(0, 3),
    max_k=st.integers(0, 3),
    max_m=st.integers(0, 3),
)
def test_cover_searches_equal_reference(table, max_n, max_k, max_m):
    assert check_REG3_bounded(table, max_n, max_m) == reference.check_REG3_bounded(
        table, max_n, max_m
    )
    assert check_REG3prime(table, max_n, max_k, max_m) == reference.check_REG3prime(
        table, max_n, max_k, max_m
    )
    assert check_LP_axioms(table, max_n, max_k, max_m) == reference.check_LP_axioms(
        table, max_n, max_k, max_m
    )


@functools.cache
def five_state_tables() -> dict[str, SetFunction]:
    """Seeded N = 5 tables of the kinds the `axioms` benchmark checks.

    Under seed 65 each kind reaches the cover search, not only the
    pre-scans: the weighted table first breaks REG3' with two events, the
    lowered value breaks REG3 with two, and the superadditivity breach is
    first found as an LP3 cover of two events.
    """
    rng = Random(65)
    space = StateSpace(tuple("abcde"))
    full = space.full_mask
    weighted = SetFunction.from_likelihood(random_credal_set(rng, space))
    unweighted = random_credal_set(rng, space, unweighted=True)
    lower = lower_prob_table(unweighted)
    left, right = next(
        (left, right)
        for left in range(1, full)
        for right in range(1, full)
        if not left & right
        and left | right != full
        and lower.values[left] + lower.values[right] > 0
    )
    superadditivity_broken = lower.with_value(
        space.event_from_mask(left | right),
        (lower.values[left] + lower.values[right]) / 2,
    )
    antimonotonicity_broken = break_antimonotonicity(rng, weighted)
    lowered = rng.randrange(1, full)
    value_replaced = weighted.with_value(
        space.event_from_mask(lowered),
        weighted.values[lowered] * Fraction(rng.randint(1, 3), 4),
    )
    return {
        "weighted": weighted,
        "unweighted": SetFunction.from_likelihood(unweighted),
        "lower_envelope": lower,
        "antimonotonicity_broken": antimonotonicity_broken,
        "superadditivity_broken": superadditivity_broken,
        "value_replaced": value_replaced,
    }


@pytest.mark.parametrize(
    "kind",
    [
        "weighted",
        "unweighted",
        "lower_envelope",
        "antimonotonicity_broken",
        "superadditivity_broken",
        "value_replaced",
    ],
)
def test_cover_searches_equal_reference_at_five_states(kind):
    # The benchmark's N = 5 bounds (n, m, k): (3, 3, 2) for REG3, (2, 2, 2)
    # for all three.  REG3' and LP3 at m = 3 take the reference seconds.
    table = five_state_tables()[kind]
    assert check_REG3_bounded(table, 3, 3) == reference.check_REG3_bounded(
        table, 3, 3
    )
    assert check_REG3_bounded(table, 2, 2) == reference.check_REG3_bounded(
        table, 2, 2
    )
    assert check_REG3prime(table, 2, 2, 2) == reference.check_REG3prime(
        table, 2, 2, 2
    )
    assert check_LP_axioms(table, 2, 2, 2) == reference.check_LP_axioms(
        table, 2, 2, 2
    )


def test_lp_axioms_on_lower_probability_tables():
    rng = Random(13)
    for _ in range(20):
        credal = random_credal_set(
            rng, random_space(rng, sizes=(2, 3)), unweighted=True
        )
        report = check_LP_axioms(lower_prob_table(credal), 2, 2, 3)
        assert report.all_hold


def test_lp_axioms_duality_with_unweighted_likelihood():
    rng = Random(17)
    for _ in range(20):
        credal = random_credal_set(
            rng, random_space(rng, sizes=(2, 3)), unweighted=True
        )
        space = credal.space
        induced = SetFunction.from_likelihood(credal)
        dual = SetFunction(
            space, tuple(1 - v for v in induced.values)
        )
        assert dual.values == lower_prob_table(credal).values
        assert check_LP_axioms(dual, 2, 2, 3).all_hold


def test_lp_axiom_failures_are_reported_individually():
    space = StateSpace(("a", "b"))
    report = check_LP_axioms(SetFunction(space, ("0", "0", "0", "0")), 2, 2, 3)
    assert not report.lp1_holds and report.lp2_holds
    superadditivity_fails = SetFunction(space, ("0", "2/3", "2/3", "1"))
    report = check_LP_axioms(superadditivity_fails, 2, 2, 3)
    assert report.lp1_holds and report.lp2_holds
    assert report.lp3prime_violation is not None
    assert report.lp3_violation is not None
    assert verify_cover_violation(superadditivity_fails, report.lp3_violation)


def test_representability_roundtrip_random_sets():
    rng = Random(23)
    for _ in range(20):
        credal = random_credal_set(rng, random_space(rng))
        table = SetFunction.from_likelihood(credal)
        result = representability(table)
        assert result.representable
        space = credal.space
        for mask in range(1 << space.size):
            event = space.event_from_mask(mask)
            assert regret_likelihood(event, result.witness) == table.value(event)


def test_representability_rejects_antimonotonicity_breach():
    space = StateSpace(("a", "b", "c"))
    credal = WeightedCredalSet.unweighted([ProbMeasure.uniform(space)])
    table = SetFunction.from_likelihood(credal)
    broken = break_antimonotonicity(Random(3), table)
    assert broken is not None
    result = representability(broken)
    assert not result.representable
    assert result.failing_event is not None
    rows, rhs = event_system(broken, result.failing_event)
    assert verify_certificate(rows, rhs, result.certificate)


def test_representability_of_all_ones_table():
    space = StateSpace(("a", "b"))
    f = SetFunction(space, ("1", "1", "1", "0"))
    result = representability(f)
    assert result.representable
    for event in space.events():
        assert regret_likelihood(event, result.witness) == f.value(event)


def test_representability_fast_rejects():
    space = StateSpace(("a", "b"))
    bad_empty = SetFunction(space, ("1/2", "1", "1", "0"))
    result = representability(bad_empty)
    assert not result.representable and result.certificate is None
    assert result.failing_event == space.empty_event
    bad_full = SetFunction(space, ("1", "1", "1", "1/2"))
    result = representability(bad_full)
    assert not result.representable
    assert result.failing_event == space.full_event


def test_event_system_witnesses_are_measures(three_weighted):
    table = three_weighted.table
    space = three_weighted.space
    from wregret import exact_feasibility

    rows, rhs = event_system(table, space.empty_event)
    assert len(rows) == (1 << space.size) + space.size
    outcome = exact_feasibility(rows, rhs)
    assert outcome.feasible
    assert verify_witness(rows, rhs, outcome.witness)
    assert sum(outcome.witness) == 1


def test_canonical_weight_cases(three_weighted):
    space = three_weighted.space
    uniform = ProbMeasure.uniform(space)
    assert canonical_weight(three_weighted.table, uniform) == 1
    solo_space = StateSpace(("x", "y"))
    star = ProbMeasure(solo_space, ("3/4", "1/4"))
    induced = SetFunction.from_likelihood(WeightedCredalSet.unweighted([star]))
    assert canonical_weight(induced, star) == 1
    other = ProbMeasure(solo_space, ("1/4", "3/4"))
    assert canonical_weight(induced, other) <= 1


def test_canonical_weight_dominates_member_weights():
    rng = Random(29)
    for _ in range(20):
        credal = random_credal_set(rng, random_space(rng))
        table = SetFunction.from_likelihood(credal)
        for measure, weight in credal:
            assert canonical_weight(table, measure) >= weight


def test_bounded_oracle_agrees_with_exact_decision():
    rng = Random(31)
    outside_bounds = []
    corpus = []
    for _ in range(15):
        credal = random_credal_set(rng, random_space(rng, sizes=(2, 3)))
        corpus.append(SetFunction.from_likelihood(credal))
    for _ in range(15):
        base = SetFunction.from_likelihood(
            random_credal_set(rng, random_space(rng, sizes=(2, 3)))
        )
        broken = break_antimonotonicity(rng, base) or break_by_perturbation(rng, base)
        if broken is not None:
            corpus.append(broken)
    for table in corpus:
        decided = representability(table).representable
        violation = check_REG3_bounded(table, 3, 4)
        if decided:
            assert violation is None
        elif violation is None:
            outside_bounds.append(table)  # reported, not asserted
        else:
            assert verify_cover_violation(table, violation)
    if outside_bounds:
        print(
            f"note: {len(outside_bounds)} non-representable tables had no "
            "violation within bounds (3, 4)"
        )
