from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randgen import random_credal_set
from reference_lp import dense_feasibility
from wregret import (
    DomainError,
    SetFunction,
    StateSpace,
    event_system,
    exact_feasibility,
    verify_certificate,
    verify_witness,
)


def fm_feasible(rows, rhs):
    """Fourier-Motzkin oracle for tiny ``A x >= b`` systems over free x."""
    cons = [
        (tuple(Fraction(v) for v in row), Fraction(b)) for row, b in zip(rows, rhs)
    ]
    width = len(rows[0]) if rows else 0
    for j in range(width):
        positive = [c for c in cons if c[0][j] > 0]
        negative = [c for c in cons if c[0][j] < 0]
        cons = [c for c in cons if c[0][j] == 0]
        for coeffs_p, bound_p in positive:
            for coeffs_n, bound_n in negative:
                a, b = coeffs_p[j], -coeffs_n[j]
                combined = tuple(
                    b * p + a * q for p, q in zip(coeffs_p, coeffs_n)
                )
                cons.append((combined, b * bound_p + a * bound_n))
    return all(bound <= 0 for _, bound in cons)


def test_feasible_interval():
    result = exact_feasibility([[1], [-1], [1]], [0, -1, Fraction(1, 2)])
    assert result.feasible
    (x,) = result.witness
    assert Fraction(1, 2) <= x <= 1


def test_infeasible_with_certificate():
    result = exact_feasibility([[1], [-1]], [1, 0])
    assert not result.feasible
    beta = result.certificate
    assert verify_certificate([[1], [-1]], [1, 0], beta)
    assert all(v >= 0 for v in beta)
    assert beta[0] * 1 + beta[1] * (-1) == 0
    assert beta[0] * 1 + beta[1] * 0 > 0


def test_empty_and_degenerate_systems():
    assert exact_feasibility([], []).feasible
    assert exact_feasibility([[]], [-1]).feasible
    bad = exact_feasibility([[]], [1])
    assert not bad.feasible and bad.certificate == (Fraction(1),)
    zero_row = exact_feasibility([[0, 0]], [Fraction(1, 7)])
    assert not zero_row.feasible


def test_dimension_errors():
    with pytest.raises(DomainError):
        exact_feasibility([[1, 2]], [1, 2])
    with pytest.raises(DomainError):
        exact_feasibility([[1, 2], [1]], [0, 0])


def test_equality_encoded_as_two_rows():
    # x + y = 1, x >= 1/3, y >= 1/3 has solutions; forcing y >= 3/4 kills it
    rows = [[1, 1], [-1, -1], [1, 0], [0, 1]]
    ok = exact_feasibility(rows, [1, -1, Fraction(1, 3), Fraction(1, 3)])
    assert ok.feasible
    assert sum(ok.witness) == 1
    bad = exact_feasibility(rows, [1, -1, Fraction(1, 3), Fraction(3, 4)])
    assert not bad.feasible
    assert verify_certificate(rows, [1, -1, Fraction(1, 3), Fraction(3, 4)], bad.certificate)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_matches_fourier_motzkin_and_self_certifies(data):
    nvars = data.draw(st.integers(1, 3))
    nrows = data.draw(st.integers(1, 5))
    rows = [
        [data.draw(small_rationals) for _ in range(nvars)] for _ in range(nrows)
    ]
    rhs = [data.draw(small_rationals) for _ in range(nrows)]
    result = exact_feasibility(rows, rhs)
    assert result.feasible == fm_feasible(rows, rhs)
    if result.feasible:
        assert verify_witness(rows, rhs, result.witness)
        assert result.certificate is None
    else:
        assert verify_certificate(rows, rhs, result.certificate)
        assert result.witness is None


def test_artificial_column_reenters_with_its_full_cost():
    # The artificial of row 3 leaves and later re-enters the basis; its
    # reduced cost includes its cost 1, and the certificate depends on it.
    rows = [[0], [1], [Fraction(-3, 2)], [-1]]
    rhs = [0, 0, 1, -1]
    result = exact_feasibility(rows, rhs)
    assert result == dense_feasibility(rows, rhs)
    assert result.certificate == (1, 1, Fraction(2, 3), 0)


def test_negated_split_column_gives_negative_coordinate():
    # For -7 <= x <= -3 only v = -u has a negative reduced cost, so v enters
    # and the witness is read off a basic v.
    rows = [[-1], [1]]
    rhs = [3, -7]
    result = exact_feasibility(rows, rhs)
    assert result == dense_feasibility(rows, rhs)
    assert result.witness == (-7,)
    rows, rhs = [[1, 1], [-1, 0]], [0, Fraction(5, 2)]
    mixed = exact_feasibility(rows, rhs)
    assert mixed == dense_feasibility(rows, rhs)
    assert mixed.witness == (Fraction(-5, 2), Fraction(5, 2))


def test_zero_rows_and_no_variables():
    cases = [
        ([[0, 0], [0, 0]], [0, -1]),
        ([[0, 0], [0, 0]], [0, Fraction(1, 7)]),
        ([[], []], [0, -1]),
        ([[], []], [-2, Fraction(1, 3)]),
        ([[], [], []], [0, 0, 0]),
    ]
    for rows, rhs in cases:
        assert exact_feasibility(rows, rhs) == dense_feasibility(rows, rhs)
    assert exact_feasibility([[0, 0], [0, 0]], [0, -1]).witness == (0, 0)
    assert exact_feasibility([[], []], [-2, Fraction(1, 3)]).certificate == (0, 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matches_dense_reference_exactly(data):
    nvars = data.draw(st.integers(0, 3))
    nrows = data.draw(st.integers(1, 6))
    rows = [
        [data.draw(small_rationals) for _ in range(nvars)] for _ in range(nrows)
    ]
    rhs = [data.draw(small_rationals) for _ in range(nrows)]
    assert exact_feasibility(rows, rhs) == dense_feasibility(rows, rhs)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 4), st.booleans())
def test_event_systems_match_dense_reference_exactly(seed, size, raise_one):
    rng = Random(seed)
    space = StateSpace(tuple("abcd"[:size]))
    f = SetFunction.from_likelihood(random_credal_set(rng, space, max_entries=4))
    if raise_one:
        mask = rng.randrange(1, space.full_mask)
        f = f.with_value(space.event_from_mask(mask), (f.values[mask] + 2) / 3)
    for mask in range(space.full_mask + 1):
        if f.values[mask] == 0:
            continue
        rows, rhs = event_system(f, space.event_from_mask(mask))
        assert exact_feasibility(rows, rhs) == dense_feasibility(rows, rhs)
