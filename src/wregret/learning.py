"""Observation-driven reweighting of credal sets and ambiguity trajectories.

Each observation multiplies every entry's weight by the probability that
entry assigns to the observation, then rescales so the maximum weight is 1.
Entries whose weight hits 0 are retained by default; adding or keeping
zero-weight measures never changes any regret or likelihood value.

The fold runs on integers.  The prior weights are put over their least
common denominator, and each symbol's column of model likelihoods over its
own, which gives integer scores and integer columns.  An observation
multiplies the scores by its column.  Every score then carries the same
positive factor, so dividing by the largest score gives exactly the weights
of the step-by-step rescaling.  That division happens once per query: once
at the end for the updated set, and once per step for a trajectory, which
never builds the intermediate sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from .core import (
    DomainError,
    Event,
    ProbMeasure,
    Rat,
    WeightedCredalSet,
    as_measures,
    rat,
    rat_str,
)
from .likelihood import AmbiguityInterval

__all__ = [
    "ObservationModel",
    "update_weights",
    "update_weights_sequence",
    "epstein_schneider_update",
    "ambiguity_trajectory",
]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ObservationModel:
    """Per-measure distribution over a finite observation alphabet.

    Row i gives the observation probabilities under the i-th entry of the
    credal set (or i-th measure of a plain sequence) the model is used with.
    """

    alphabet: tuple[str, ...]
    rows: tuple[tuple[Rat, ...], ...]

    def __post_init__(self) -> None:
        alphabet = tuple(self.alphabet)
        object.__setattr__(self, "alphabet", alphabet)
        if not alphabet:
            raise DomainError("the observation alphabet must be nonempty")
        if len(set(alphabet)) != len(alphabet):
            raise DomainError("observation symbols must be distinct")
        rows = tuple(tuple(rat(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise DomainError("an observation model needs at least one row")
        for row in rows:
            if len(row) != len(alphabet):
                raise DomainError("each row needs one likelihood per symbol")
            for value in row:
                if not 0 <= value <= 1:
                    raise DomainError(
                        f"likelihood {rat_str(value)} outside [0, 1]"
                    )
            total = sum(row, _ZERO)
            if total != 1:
                raise DomainError(
                    f"likelihoods per row must sum to exactly 1, got {rat_str(total)}"
                )

    @classmethod
    def iid(cls, credal: WeightedCredalSet) -> ObservationModel:
        """Model whose observations are draws of the state itself.

        Covers i.i.d. coins and dice: the alphabet is the state labels and
        each row is the corresponding measure's mass vector.
        """
        return cls(credal.space.labels, tuple(m.mass for m in credal.measures))

    def symbol_index(self, symbol: str) -> int:
        try:
            return self.alphabet.index(symbol)
        except ValueError:
            raise DomainError(f"unknown observation symbol {symbol!r}") from None

    def likelihood(self, entry: int, symbol: str) -> Rat:
        return self.rows[entry][self.symbol_index(symbol)]


def _require_aligned(count: int, model: ObservationModel) -> None:
    if len(model.rows) != count:
        raise DomainError(
            f"observation model has {len(model.rows)} rows but the set has "
            f"{count} entries; rows align with entry order"
        )


def _over_lcd(values: Sequence[Rat]) -> tuple[list[int], int]:
    """Numerators of the values over their least common denominator."""
    lcd = lcm(*[value.denominator for value in values])
    return [value.numerator * (lcd // value.denominator) for value in values], lcd


def _score_prefixes(
    credal: WeightedCredalSet, model: ObservationModel, observations: Iterable[str]
) -> Iterator[tuple[list[int], int]]:
    """Integer weight scores after each prefix of the observations.

    Yields ``(scores, scale)`` such that the fold's weight of entry i after
    that prefix is exactly ``Fraction(scores[i], scale)``, starting with the
    prior.  Every step multiplies the scores by the observed symbol's
    integer column, whose common denominator is the same factor for every
    entry, so after an observation the scale is simply the largest score.
    """
    _require_aligned(len(credal), model)
    scores, scale = _over_lcd(credal.weights)
    yield scores, scale
    columns = [_over_lcd(column)[0] for column in zip(*model.rows)]
    for observation in observations:
        column = columns[model.symbol_index(observation)]
        scores = [score * factor for score, factor in zip(scores, column)]
        scale = max(scores)
        if scale == 0:
            raise DomainError(
                f"observation {observation!r} is impossible: every measure with "
                "positive weight assigns it probability 0"
            )
        yield scores, scale


def _posterior(
    credal: WeightedCredalSet,
    model: ObservationModel,
    observations: Iterable[str],
    drop_zero: bool,
) -> WeightedCredalSet:
    """The set reweighted by the whole stream, normalized once."""
    for scores, scale in _score_prefixes(credal, model, observations):
        pass
    return WeightedCredalSet(
        tuple(
            (measure, Fraction(score, scale))
            for measure, score in zip(credal.measures, scores)
            if not (drop_zero and score == 0)
        )
    )


def update_weights(
    credal: WeightedCredalSet,
    model: ObservationModel,
    observation: str,
    drop_zero: bool = False,
) -> WeightedCredalSet:
    """Reweight after one observation.

    Each weight becomes old weight times the entry's probability of the
    observation, divided by the maximum of those products, so the maximum
    new weight is exactly 1.
    """
    return _posterior(credal, model, (observation,), drop_zero)


def update_weights_sequence(
    credal: WeightedCredalSet,
    model: ObservationModel,
    observations: Sequence[str],
    drop_zero: bool = False,
) -> WeightedCredalSet:
    """Fold of single-step updates over an observation sequence.

    Each entry's final weight is its prior weight times the product of its
    row's likelihoods of the observations, normalized once at the end.  The
    rows are fixed per entry, so the result depends only on how often each
    symbol occurs: it is order independent for every model, not only for
    i.i.d. ones.  An impossible or unknown observation is reported at its
    first occurrence in stream order.  Zero-weight entries are kept unless
    ``drop_zero`` is set.
    """
    return _posterior(credal, model, observations, drop_zero)


def epstein_schneider_update(
    measures: WeightedCredalSet | Iterable[ProbMeasure],
    model: ObservationModel,
    observation: str,
    threshold: Rat | int | str,
) -> tuple[ProbMeasure, ...]:
    """Keep only the measures giving the observation at least the threshold.

    The threshold must lie strictly between 0 and 1.  Model rows align with
    the order of the measures.
    """
    cut = rat(threshold)
    if not 0 < cut < 1:
        raise DomainError(
            f"threshold must lie strictly between 0 and 1, got {rat_str(cut)}"
        )
    pool = as_measures(measures)
    _require_aligned(len(pool), model)
    symbol = model.symbol_index(observation)
    kept = tuple(
        measure for i, measure in enumerate(pool) if model.rows[i][symbol] >= cut
    )
    if not kept:
        raise DomainError(
            f"every measure assigns {observation!r} probability below "
            f"{rat_str(cut)}; nothing would remain"
        )
    return kept


def ambiguity_trajectory(
    credal: WeightedCredalSet,
    model: ObservationModel,
    observations: Sequence[str],
    event: Event,
) -> list[AmbiguityInterval]:
    """Ambiguity interval of the event after each prefix of the observations.

    The first entry is the prior interval (empty prefix), so the result has
    one more interval than there are observations.  Each interval equals
    ``ambiguity_interval(event, ...)`` on the reweighted set, computed from
    the integer scores without building that set.
    """
    inside, lcd = _over_lcd([measure.prob(event) for measure in credal.measures])
    # Masses sum to exactly 1, so Pr_i(E^c) = 1 - Pr_i(E) over the same LCD.
    outside = [lcd - p for p in inside]
    intervals = []
    for scores, scale in _score_prefixes(credal, model, observations):
        # upper = max_i w_i Pr_i(E^c); lower = 1 - max_i w_i Pr_i(E).
        den = scale * lcd
        upper = max(score * q for score, q in zip(scores, outside))
        lower = den - max(score * p for score, p in zip(scores, inside))
        intervals.append(AmbiguityInterval(Fraction(lower, den), Fraction(upper, den)))
    return intervals
