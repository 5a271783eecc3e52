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

The three bounded checks share one multiset enumeration, `_search_covers`.
Along the way it keeps the sum of the chosen values as an integer numerator
over the table's least common denominator, and for each level j the bit
mask ``levels[j]`` of the states the chosen events touch more than j times
(complements for REG3 and REG3', the events themselves for LP3).  Each
check turns these into an exact integer test of whether the multiset yields
any violation; only where one does, it scans the targets in mask order, in
`Fraction`s, for the violation it reports.  With U_c = S minus
``levels[c - 1]``, the targets whose complement is covered at least c times
are exactly the supersets of U_c:

* REG3 runs after the antimonotonicity pre-scan, so subsets never rate
  below supersets and f(U_n) is the largest value among those targets: a
  violation exists iff ``n*f(U_n) > sum f(E_i)`` for some n <= max_n (and
  the scan reports U_n for the least such n, as U_n has the smallest mask
  of its supersets);
* REG3' uses the largest value over supersets of U_c, for c = n + k;
* LP3 fits a target to (n, k) iff it contains ``levels[k]`` and n + k
  reaches the largest count, so it uses the smallest value over supersets
  of ``levels[k]``.
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


def _numerators(values: tuple[Rat, ...]) -> tuple[int, list[int]]:
    """The values as integer numerators over their least common denominator."""
    scale = math.lcm(*[value.denominator for value in values])
    return scale, [value.numerator * (scale // value.denominator) for value in values]


def _superset_extremum(
    nums: list[int], size: int, pick: Callable[[int, int], int]
) -> list[int]:
    """``table[u]`` is ``pick`` over ``nums[t]`` for every event t containing u."""
    table = list(nums)
    for i in range(size):
        bit = 1 << i
        for mask in range(1 << size):
            if not mask & bit:
                table[mask] = pick(table[mask], table[mask | bit])
    return table


def _search_covers(
    f: SetFunction,
    nums: list[int],
    alphabet: range,
    touched: list[tuple[int, ...]],
    ceiling: int,
    max_m: int,
    fires: Callable[[list[int], int], bool],
    evaluate: Callable[[list[int], list[int], Rat], CoverViolation | None],
) -> CoverViolation | None:
    """First violation among multisets of alphabet events.

    Multisets of 1..max_m event masks drawn from ``alphabet`` (a range of
    masks) are visited smallest first, so a reported violation uses a
    minimal multiset, and each size in lexicographic order.  For the
    chosen masks of the current multiset the search keeps:

    * ``total``, the sum of their values as integer numerators ``nums``
      over one common denominator; a branch whose total reaches the
      equally scaled ``ceiling`` is cut, since no target can make it a
      violation;
    * ``counts[i]``, how many of them touch state i (per ``touched``);
    * ``levels[j]``, the bit mask of the states touched more than j times,
      so each level contains the next, and "every state of U is touched
      at least c times" is the one test ``U & ~levels[c - 1] == 0``.

    A push or pop updates ``counts`` and ``levels`` for the states the
    event touches, nothing else.  ``fires(levels, total)`` decides in
    integers whether the multiset yields a violation at all; only where it
    does, ``evaluate(counts, chosen, total)`` finds the check's first
    violation in exact `Fraction`s (with ``total`` the `Fraction` sum of
    the chosen values).  The enumeration keeps its own stack, so only the
    node guard bounds its depth.
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
    steps = [tuple((i, 1 << i) for i in states) for states in touched]
    counts = [0] * space.size
    first, stop = alphabet.start, alphabet.stop
    for depth in range(1, max_m + 1):
        levels = [0] * depth
        # (mask, total before it) for every chosen event but the last.
        stack: list[tuple[int, int]] = []
        start, total = first, 0
        while True:
            if len(stack) + 1 < depth:
                mask = start
                while mask < stop and total + nums[mask] >= ceiling:
                    mask += 1
                if mask < stop:
                    for i, bit in steps[mask]:
                        levels[counts[i]] |= bit
                        counts[i] += 1
                    stack.append((mask, total))
                    total += nums[mask]
                    start = mask
                    continue
            else:
                for mask in range(start, stop):
                    extended = total + nums[mask]
                    if extended >= ceiling:
                        continue
                    step = steps[mask]
                    for i, bit in step:
                        levels[counts[i]] |= bit
                        counts[i] += 1
                    if fires(levels, extended):
                        chosen = [held for held, _ in stack] + [mask]
                        exact = sum((f.values[held] for held in chosen), _ZERO)
                        hit = evaluate(counts, chosen, exact)
                        if hit is None:
                            raise RuntimeError(
                                "cover search fired on a multiset without a violation"
                            )
                        return hit
                    for i, bit in step:
                        counts[i] -= 1
                        levels[counts[i]] ^= bit
            if not stack:
                break
            mask, total = stack.pop()
            for i, bit in steps[mask]:
                counts[i] -= 1
                levels[counts[i]] ^= bit
            start = mask + 1
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
    _, nums = _numerators(values)
    orders = range(1, max_n + 1)

    def fires(levels: list[int], total: int) -> bool:
        # The targets covered at least n times are the supersets of
        # U_n = full ^ levels[n - 1].  The pre-scan passed, so f is
        # antimonotone and U_n rates highest among them; the order n
        # itself is best, as n*f grows with n.
        for n, held in zip(orders, levels):
            if not held:
                return False
            if n * nums[full ^ held] > total:
                return True
        return False

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

    ceiling = max_n * max(nums[mask] for mask, _, _ in targets)
    return _search_covers(
        f, nums, alphabet, complements, ceiling, max_m, fires, evaluate
    )


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
    scale, nums = _numerators(values)
    # best[u]: the highest value of an event containing u.
    best = _superset_extremum(nums, space.size, max)

    def fires(levels: list[int], total: int) -> bool:
        space_cover = 0
        for held in levels:
            if held != full:
                break
            space_cover += 1
        k_cap = min(space_cover, max_k)
        # n = 0 leaves lhs = k for every target, the full space included.
        if k_cap * scale > total:
            return True
        # The targets covered at least c = n + k times are the supersets of
        # full ^ levels[c - 1].  For one c, lhs = c*f + k*(1 - f) grows with
        # k, so the largest k that leaves n >= 1 is best.
        for c, held in enumerate(levels, 1):
            if not held:
                return False
            k = min(k_cap, c - 1)
            if c - k > max_n:
                return False
            if k * scale + (c - k) * best[full ^ held] > total:
                return True
        return False

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
    ceiling = max_k * scale + max_n * max(nums)
    return _search_covers(
        f, nums, range(full), complements, ceiling, max_m, fires, evaluate
    )


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
    scale, nums = _numerators(values)
    # worst[u]: the lowest value of an event containing u.
    worst = _superset_extremum(nums, space.size, min)

    def fires(levels: list[int], total: int) -> bool:
        top = 0
        for held in levels:
            if not held:
                break
            top += 1
        # A target fits (n, k) when it contains levels[k] (no state outside
        # it is touched more than k times) and n + k >= top (none inside
        # more than n + k times).  lhs = k + n*g grows with n, so n is the
        # least that reaches max(top, 1); k beyond that only adds to lhs.
        reach = max(top, 1)
        for k in range(min(max_k, reach) + 1):
            n = reach - k
            inside = levels[k] if k < top else 0
            if n <= max_n and k * scale + n * worst[inside] < total:
                return True
        return False

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
        ceiling = (max_m + 1) * scale
        lp3 = _search_covers(
            g, nums, range(full + 1), members, ceiling, max_m, fires, evaluate
        )
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
