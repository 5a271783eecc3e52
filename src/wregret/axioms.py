"""Axiom checks for candidate likelihood tables and exact representability.

A `SetFunction` assigns a rational in [0, 1] to every subset of a state
space.  `check_REG12`, `check_REG3_bounded` and `check_REG3prime` test the
regret-style axioms by bounded enumeration of multiset covers (an honest
brute-force oracle, complete only within its bounds).  `check_LP_axioms`
does the same for the lower-probability-style axioms.  `representability`
decides exactly, through rational linear feasibility, whether a table is
the regret likelihood of some weighted credal set, and reconstructs the
canonical maximal such set when it is.

Cover conventions, with f the table and E_1..E_m events counted with
multiplicity:

* plain n-cover form: if the complements of E_1..E_m jointly cover every
  state of the complement of E at least n times, then
  ``n*f(E) <= sum f(E_i)``;
* (n, k) form: if the complements cover the whole space at least k times
  and the complement of E at least n + k times, then
  ``k + n*f(E) <= sum f(E_i)``;
* LP3 form (for lower-probability candidates g): if E_1..E_m fit under k
  copies of the space plus n copies of E (each state appears at most k
  times outside E and at most n + k times inside it), then
  ``k + n*g(E) >= sum g(E_i)``.

Orders n and k range over nonnegative integers, not both zero.  Note the
direction flip in LP3: the at-least cover form matches worst-case (regret)
functionals, while lower probability, a best-case functional, obeys the
dual at-most form (a point mass already breaks the at-least form via
vacuous covers of the empty event).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    DomainError,
    Event,
    MultisetOfEvents,
    ProbMeasure,
    Rat,
    ResourceLimitError,
    StateSpace,
    WeightedCredalSet,
    _require_same_space,
    rat,
    rat_str,
)
from .likelihood import regret_likelihood
from .lp import FeasibilityResult, exact_feasibility

__all__ = [
    "SetFunction",
    "CoverViolation",
    "LPAxiomReport",
    "RepresentabilityResult",
    "check_REG12",
    "check_REG3_bounded",
    "check_REG3prime",
    "check_LP_axioms",
    "representability",
    "canonical_weight",
    "event_system",
    "exact_feasibility",
    "FeasibilityResult",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Cap on (multiset, target) pairs visited by one bounded enumeration.
_NODE_LIMIT = 5_000_000


@dataclass(frozen=True)
class SetFunction:
    """Total table of values in [0, 1], one per event, indexed by bitmask."""

    space: StateSpace
    values: tuple[Rat, ...]

    def __post_init__(self) -> None:
        values = tuple(rat(v) for v in self.values)
        object.__setattr__(self, "values", values)
        expected = 1 << self.space.size
        if len(values) != expected:
            raise DomainError(
                f"need {expected} values for a {self.space.size}-state space, "
                f"got {len(values)}"
            )
        for value in values:
            if not 0 <= value <= 1:
                raise DomainError(
                    f"set-function value {rat_str(value)} outside [0, 1]"
                )

    @classmethod
    def from_likelihood(cls, credal: WeightedCredalSet) -> SetFunction:
        """Table induced by a weighted credal set's regret likelihood."""
        space = credal.space
        return cls(
            space,
            tuple(
                regret_likelihood(space.event_from_mask(mask), credal)
                for mask in range(1 << space.size)
            ),
        )

    def value(self, event: Event) -> Rat:
        _require_same_space(self.space, event.space)
        return self.values[event.mask]

    def value_at(self, mask: int) -> Rat:
        return self.values[mask]

    def with_value(self, event: Event, value) -> SetFunction:
        """Copy of the table with one entry replaced."""
        _require_same_space(self.space, event.space)
        values = list(self.values)
        values[event.mask] = rat(value)
        return SetFunction(self.space, tuple(values))


@dataclass(frozen=True)
class CoverViolation:
    """Witness that one bounded cover inequality fails.

    ``events`` lists the E_i with multiplicities.  For REG3 and REG3' the
    complements of the E_i form the relevant cover and the requirement is
    ``lhs = k + n*f(E) <= rhs = sum f(E_i)``; for LP3 the E_i themselves fit
    under k copies of the space plus n copies of the target and the
    requirement is ``lhs >= rhs``.  ``slack`` is the satisfied side minus
    the required side, negative by construction.
    """

    axiom: str
    target: Event
    events: tuple[tuple[Event, int], ...]
    n: int
    k: int
    lhs: Rat
    rhs: Rat
    slack: Rat

    @property
    def multiset(self) -> MultisetOfEvents:
        return MultisetOfEvents(self.target.space, self.events)


@dataclass(frozen=True)
class LPAxiomReport:
    """Individual verdicts for the lower-probability axioms."""

    lp1_holds: bool
    lp2_holds: bool
    lp3prime_violation: tuple[Event, Event] | None
    lp3_violation: CoverViolation | None

    @property
    def all_hold(self) -> bool:
        return (
            self.lp1_holds
            and self.lp2_holds
            and self.lp3prime_violation is None
            and self.lp3_violation is None
        )


def check_REG12(f: SetFunction) -> bool:
    """Value 0 at the full space and 1 at the empty event."""
    return f.values[f.space.full_mask] == 0 and f.values[0] == 1


def _require_bounds(*bounds: int) -> None:
    if any(bound < 0 for bound in bounds):
        raise DomainError("bounds must be nonnegative")


def _member_indices(space: StateSpace) -> list[tuple[int, ...]]:
    size = space.size
    return [
        tuple(i for i in range(size) if (mask >> i) & 1)
        for mask in range(1 << size)
    ]


def _full_space_violation(
    f: SetFunction, axiom: str, max_n: int
) -> CoverViolation | None:
    # The empty multiset covers the empty complement of the full space any
    # number of times, so n*f(S) <= 0 must already hold.
    value = f.values[f.space.full_mask]
    if max_n == 0 or value == 0:
        return None
    return CoverViolation(
        axiom, f.space.full_event, (), 1, 0, lhs=value, rhs=_ZERO, slack=-value
    )


def _search_covers(
    f: SetFunction,
    alphabet: range,
    touched: list[tuple[int, ...]],
    ceiling: Rat,
    max_m: int,
    evaluate: Callable[[list[int], list[int], Rat], CoverViolation | None],
) -> CoverViolation | None:
    """First violation ``evaluate`` finds among multisets of alphabet events.

    Multisets of 1..max_m event masks drawn from ``alphabet`` are visited
    smallest first, so a reported violation uses a minimal multiset, and
    each size in lexicographic order of alphabet positions.  For every
    multiset, ``evaluate(counts, chosen, total)`` gets the chosen masks,
    ``counts[i]`` = how many of them touch state i (per ``touched[mask]``)
    and the sum of their values.  A branch whose sum reaches ``ceiling`` is
    cut: no target can make it a violation.
    """
    space = f.space
    # There are C(|alphabet| + max_m, max_m) - 1 multisets of sizes 1..max_m.
    nodes = (math.comb(len(alphabet) + max_m, max_m) - 1) << space.size
    if nodes > _NODE_LIMIT:
        raise ResourceLimitError(
            f"bounded cover enumeration would visit about {nodes:,} "
            f"(multiset, target) pairs for N = {space.size}; lower max_m "
            "(or the state-space size), or use representability() for the "
            "exact decision"
        )
    values = f.values
    counts = [0] * space.size
    chosen: list[int] = []

    def search(start: int, remaining: int, total: Rat) -> CoverViolation | None:
        for position in range(start, len(alphabet)):
            mask = alphabet[position]
            extended = total + values[mask]
            if extended >= ceiling:
                continue
            for i in touched[mask]:
                counts[i] += 1
            chosen.append(mask)
            if remaining == 1:
                hit = evaluate(counts, chosen, extended)
            else:
                hit = search(position, remaining - 1, extended)
            chosen.pop()
            for i in touched[mask]:
                counts[i] -= 1
            if hit is not None:
                return hit
        return None

    for depth in range(1, max_m + 1):
        hit = search(0, depth, _ZERO)
        if hit is not None:
            return hit
    return None


def check_REG3_bounded(
    f: SetFunction, max_n: int = 3, max_m: int = 4
) -> CoverViolation | None:
    """Search for a bounded violation of the plain n-cover inequality.

    Returns None when no multiset of at most max_m events (with
    multiplicity) yields a violating cover of order at most max_n;
    otherwise the first violation in enumeration order.  Complete only
    within the bounds.
    """
    _require_bounds(max_n, max_m)
    space = f.space
    full = space.full_mask
    values = f.values

    if max_n >= 1 and max_m >= 1:
        hit = _antimonotonicity_scan(f)
        if hit is not None:
            return hit
    hit = _full_space_violation(f, "REG3", max_n)
    if hit is not None or max_n == 0 or max_m == 0:
        return hit

    # Events equal to the empty set or the whole space never help a
    # violation (dropping them preserves it at no larger bounds), so the
    # alphabet is the proper nonempty events.
    alphabet = range(1, full)
    # members[::-1][mask] is members[full ^ mask]: the complement's states.
    complements = _member_indices(space)[::-1]
    targets = [
        (mask, values[mask], complements[mask])
        for mask in range(full)
        if values[mask] > 0
    ]
    if not targets or not alphabet:
        return None
    ceiling = max_n * max(value for _, value, _ in targets)

    def evaluate(
        counts: list[int], chosen: list[int], total: Rat
    ) -> CoverViolation | None:
        for mask, value, indices in targets:
            cover = min(counts[i] for i in indices)
            if cover <= 0:
                continue
            order = math.floor(total / value) + 1
            if order <= cover and order <= max_n:
                lhs = order * value
                return CoverViolation(
                    "REG3",
                    space.event_from_mask(mask),
                    MultisetOfEvents.from_events(
                        map(space.event_from_mask, chosen)
                    ).items,
                    order,
                    0,
                    lhs=lhs,
                    rhs=total,
                    slack=total - lhs,
                )
        return None

    return _search_covers(f, alphabet, complements, ceiling, max_m, evaluate)


def _antimonotonicity_scan(f: SetFunction) -> CoverViolation | None:
    """All (n = 1, m = 1) instances: subsets must not rate below supersets."""
    space = f.space
    values = f.values
    for target in range(1, space.full_mask + 1):
        high = values[target]
        if high == 0:
            continue
        sub = (target - 1) & target
        while True:
            if values[sub] < high:
                return CoverViolation(
                    "REG3",
                    space.event_from_mask(target),
                    ((space.event_from_mask(sub), 1),),
                    1,
                    0,
                    lhs=high,
                    rhs=values[sub],
                    slack=values[sub] - high,
                )
            if sub == 0:
                break
            sub = (sub - 1) & target
    return None


def check_REG3prime(
    f: SetFunction, max_n: int = 2, max_k: int = 2, max_m: int = 3
) -> CoverViolation | None:
    """Search for a bounded violation of the (n, k)-cover inequality.

    This is the stronger requirement that characterizes all-weights-1
    tables; genuinely weighted tables typically break it with k >= 1.
    """
    _require_bounds(max_n, max_k, max_m)
    space = f.space
    full = space.full_mask
    values = f.values

    hit = _full_space_violation(f, "REG3'", max_n)
    if hit is not None or max_m == 0 or (max_n == 0 and max_k == 0):
        return hit

    # members[::-1][mask] is members[full ^ mask]: the complement's states.
    complements = _member_indices(space)[::-1]
    ceiling = max_k + max_n * max(values)

    def evaluate(
        counts: list[int], chosen: list[int], total: Rat
    ) -> CoverViolation | None:
        space_cover = min(counts)
        k_cap = min(space_cover, max_k)
        for mask in range(full + 1):
            value = values[mask]
            indices = complements[mask]
            target_cover = min(counts[i] for i in indices) if indices else None
            for k in range(k_cap + 1):
                first_n = 1 if k == 0 else 0
                if target_cover is None:
                    # The full space is worth 0 here (a positive value was
                    # reported above), so lhs = k for every n: the first n
                    # decides, and max_n bounds no loop.
                    n_cap = min(first_n, max_n)
                else:
                    n_cap = min(target_cover - k, max_n)
                for n in range(first_n, n_cap + 1):
                    lhs = k + n * value
                    if lhs > total:
                        return CoverViolation(
                            "REG3'",
                            space.event_from_mask(mask),
                            MultisetOfEvents.from_events(
                                map(space.event_from_mask, chosen)
                            ).items,
                            n,
                            k,
                            lhs=lhs,
                            rhs=total,
                            slack=total - lhs,
                        )
        return None

    # The whole space never helps (its complement adds no coverage), but the
    # empty event does: its complement raises every count by one.
    return _search_covers(f, range(full), complements, ceiling, max_m, evaluate)


def check_LP_axioms(
    g: SetFunction, max_n: int = 2, max_k: int = 2, max_m: int = 3
) -> LPAxiomReport:
    """Verdicts for the lower-probability axioms, LP3 by bounded covers."""
    _require_bounds(max_n, max_k, max_m)
    space = g.space
    full = space.full_mask
    values = g.values

    lp1 = values[full] == 1
    lp2 = values[0] == 0

    lp3prime: tuple[Event, Event] | None = None
    for left in range(full + 1):
        rest = full ^ left
        right = rest
        found = False
        while True:
            if values[left | right] < values[left] + values[right]:
                lp3prime = (space.event_from_mask(left), space.event_from_mask(right))
                found = True
                break
            if right == 0:
                break
            right = (right - 1) & rest
        if found:
            break

    members = _member_indices(space)

    def evaluate(
        counts: list[int], chosen: list[int], total: Rat
    ) -> CoverViolation | None:
        for mask in range(full + 1):
            inside_max = max((counts[i] for i in members[mask]), default=0)
            outside_max = max(
                (counts[i] for i in members[full ^ mask]), default=0
            )
            # The left side k + n*g grows with k, so the smallest admissible
            # order pair is the only violation candidate for this target.
            k = max(outside_max, inside_max - max_n, 0)
            n = max(inside_max - k, 0)
            if n == 0 and k == 0:
                if max_n >= 1:
                    n = 1
                else:
                    k = 1
            if k > max_k or n > max_n:
                continue
            lhs = k + n * values[mask]
            if lhs < total:
                return CoverViolation(
                    "LP3",
                    space.event_from_mask(mask),
                    MultisetOfEvents.from_events(
                        map(space.event_from_mask, chosen)
                    ).items,
                    n,
                    k,
                    lhs=lhs,
                    rhs=total,
                    slack=lhs - total,
                )
        return None

    lp3 = None
    if max_m >= 1 and (max_n >= 1 or max_k >= 1):
        # Values are at most 1, so no multiset of at most max_m events
        # reaches the ceiling max_m + 1: LP3 prunes nothing.
        lp3 = _search_covers(g, range(full + 1), members, max_m + 1, max_m, evaluate)
    return LPAxiomReport(lp1, lp2, lp3prime, lp3)


def event_system(
    f: SetFunction, event: Event
) -> tuple[list[list[Rat]], list[Rat]]:
    """Inequality system ``A x >= b`` for the tightness measure of an event.

    Solutions are probability measures supported on the event's complement
    that realize the table's value at the event with the largest admissible
    weight.  Variables are the masses on the complement's states; rows say
    the measure stays under ``f(E')/f(E)`` on every relevant complement,
    each mass is nonnegative, and the masses sum to at least 1 (together
    with the event's own row this pins the sum to exactly 1).

    For the empty event (value 1) this is the weight-one system over all
    states, whose solutions carry weight exactly 1.
    """
    _require_same_space(f.space, event.space)
    scale = f.value(event)
    if scale == 0:
        raise DomainError(
            "no tightness system for a value-0 event; any measure is tight there"
        )
    support = event.complement.indices()
    width = len(support)
    position = {state: j for j, state in enumerate(support)}
    rows: list[list[Rat]] = []
    rhs: list[Rat] = []
    for other in range(f.space.full_mask):
        shared = [position[i] for i in support if not (other >> i) & 1]
        if not shared:
            continue
        row = [_ZERO] * width
        for j in shared:
            row[j] = -_ONE
        rows.append(row)
        rhs.append(-(f.values[other] / scale))
    for j in range(width):
        row = [_ZERO] * width
        row[j] = _ONE
        rows.append(row)
        rhs.append(_ZERO)
    rows.append([_ONE] * width)
    rhs.append(_ONE)
    return rows, rhs


@dataclass(frozen=True)
class RepresentabilityResult:
    """Decision outcome: a canonical witness set, or a proof of failure.

    On failure, ``certificate`` (when present) is a nonnegative multiplier
    vector proving the ``event_system`` of ``failing_event`` unsatisfiable;
    it is absent only for the two fast value checks at the empty and full
    events.
    """

    representable: bool
    witness: WeightedCredalSet | None = None
    reason: str | None = None
    failing_event: Event | None = None
    certificate: tuple[Rat, ...] | None = None


def representability(f: SetFunction) -> RepresentabilityResult:
    """Decide whether the table is the regret likelihood of a weighted set.

    Feasibility of the weight-one system plus, for every event with a
    positive value, feasibility of its tightness system is equivalent to
    representability; the collected tightness measures, each carrying its
    canonical weight, form the maximal representing set.
    """
    space = f.space
    full = space.full_mask
    if f.values[0] != 1:
        return RepresentabilityResult(
            False,
            reason=f"the empty event must have value 1, got {rat_str(f.values[0])}",
            failing_event=space.empty_event,
        )
    if f.values[full] != 0:
        return RepresentabilityResult(
            False,
            reason=f"the full space must have value 0, got {rat_str(f.values[full])}",
            failing_event=space.full_event,
        )

    entries: dict[tuple[Rat, ...], tuple[ProbMeasure, Rat]] = {}
    for mask in range(full + 1):
        value = f.values[mask]
        if value == 0:
            continue
        event = space.event_from_mask(mask)
        rows, rhs = event_system(f, event)
        outcome = exact_feasibility(rows, rhs)
        if not outcome.feasible:
            return RepresentabilityResult(
                False,
                reason=(
                    f"no admissible measure attains the value at "
                    f"{event.label_text()}"
                ),
                failing_event=event,
                certificate=outcome.certificate,
            )
        masses = [_ZERO] * space.size
        for j, state in enumerate(event.complement.indices()):
            masses[state] = outcome.witness[j]
        measure = ProbMeasure(space, tuple(masses))
        weight = canonical_weight(f, measure)
        if weight != value:
            raise RuntimeError(
                "tightness witness does not carry the expected canonical weight"
            )
        entries.setdefault(measure.mass, (measure, weight))

    witness = WeightedCredalSet(tuple(entries.values()))
    for mask in range(full + 1):
        if regret_likelihood(space.event_from_mask(mask), witness) != f.values[mask]:
            raise RuntimeError("reconstructed set does not reproduce the table")
    return RepresentabilityResult(True, witness=witness)


def canonical_weight(f: SetFunction, measure: ProbMeasure) -> Rat:
    """Largest weight the measure may carry without exceeding the table.

    The supremum of admissible weights is attained: it is the minimum of
    ``f(E) / Pr(complement of E)`` over events whose complement has
    positive probability (the empty event always qualifies and bounds the
    result by ``f(empty)``).
    """
    _require_same_space(f.space, measure.space)
    space = f.space
    best: Rat | None = None
    for mask in range(space.full_mask + 1):
        probability = measure.prob(space.event_from_mask(mask).complement)
        if probability > 0:
            ratio = f.values[mask] / probability
            if best is None or ratio < best:
                best = ratio
    assert best is not None
    return best
