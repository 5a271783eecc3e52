"""Reference weight updates for exactness tests: the step-by-step `Fraction` fold.

This is how `wregret.learning` updated weights before it moved to integer
scores normalised once per query: every observation rescales every weight
by the maximum and builds a fresh `WeightedCredalSet`, and a trajectory
recomputes `ambiguity_interval` on each of those sets.  The production
functions must return exactly the same sets and intervals, every
`Fraction` included, and fail with the same exception and message; tests
compare the two with dataclass equality.
"""

from __future__ import annotations

from typing import Sequence

from wregret.core import DomainError, Event, WeightedCredalSet
from wregret.learning import ObservationModel
from wregret.likelihood import AmbiguityInterval, ambiguity_interval


def _require_aligned(count: int, model: ObservationModel) -> None:
    if len(model.rows) != count:
        raise DomainError(
            f"observation model has {len(model.rows)} rows but the set has "
            f"{count} entries; rows align with entry order"
        )


def update_weights(
    credal: WeightedCredalSet,
    model: ObservationModel,
    observation: str,
    drop_zero: bool = False,
) -> WeightedCredalSet:
    """Multiply by the observation's likelihoods, then divide by the maximum."""
    _require_aligned(len(credal), model)
    symbol = model.symbol_index(observation)
    scores = [
        weight * model.rows[i][symbol] for i, (_, weight) in enumerate(credal.entries)
    ]
    top = max(scores)
    if top == 0:
        raise DomainError(
            f"observation {observation!r} is impossible: every measure with "
            "positive weight assigns it probability 0"
        )
    entries = tuple(
        (measure, score / top)
        for (measure, _), score in zip(credal.entries, scores)
        if not (drop_zero and score == 0)
    )
    return WeightedCredalSet(entries)


def update_weights_sequence(
    credal: WeightedCredalSet,
    model: ObservationModel,
    observations: Sequence[str],
    drop_zero: bool = False,
) -> WeightedCredalSet:
    """Fold of single-step updates; zero weights are dropped at the end."""
    current = credal
    for observation in observations:
        current = update_weights(current, model, observation)
    if drop_zero:
        kept = tuple(entry for entry in current.entries if entry[1] != 0)
        current = WeightedCredalSet(kept)
    return current


def ambiguity_trajectory(
    credal: WeightedCredalSet,
    model: ObservationModel,
    observations: Sequence[str],
    event: Event,
) -> list[AmbiguityInterval]:
    """`ambiguity_interval` on the prior and on each reweighted set."""
    intervals = [ambiguity_interval(event, credal)]
    current = credal
    for observation in observations:
        current = update_weights(current, model, observation)
        intervals.append(ambiguity_interval(event, current))
    return intervals
