"""Reference cover searches for exactness tests: one enumeration per axiom.

This is how `wregret.axioms` searched bounded covers before REG3, REG3'
and LP3 moved onto one shared multiset search: each check carries its own
copy of the iterative-deepening enumeration, its own node guard and its
own collation of the chosen events.  The production checks must return
exactly the same `CoverViolation` and `LPAxiomReport` values, every
`Fraction` included, and fail with the same exception and message; tests
compare the two with dataclass equality.
"""

from __future__ import annotations

import math
from fractions import Fraction

from wregret.axioms import CoverViolation, LPAxiomReport, SetFunction
from wregret.core import DomainError, Event, ResourceLimitError, StateSpace

_ZERO = Fraction(0)

# Cap on (multiset, target) pairs visited by one bounded enumeration.
_NODE_LIMIT = 5_000_000


def _complement_indices(space: StateSpace) -> list[tuple[int, ...]]:
    size = space.size
    return [
        tuple(i for i in range(size) if not (mask >> i) & 1)
        for mask in range(1 << size)
    ]


def _enumeration_nodes(alphabet_size: int, max_m: int) -> int:
    return sum(math.comb(alphabet_size + s - 1, s) for s in range(1, max_m + 1))


def _guard_bounds(space: StateSpace, alphabet_size: int, max_m: int) -> None:
    nodes = _enumeration_nodes(alphabet_size, max_m) * (1 << space.size)
    if nodes > _NODE_LIMIT:
        raise ResourceLimitError(
            f"bounded cover enumeration would visit about {nodes:,} "
            f"(multiset, target) pairs for N = {space.size}; lower max_m "
            "(or the state-space size), or use representability() for the "
            "exact decision"
        )


def _collate(space: StateSpace, chosen: list[int]) -> tuple[tuple[Event, int], ...]:
    items: list[tuple[Event, int]] = []
    for mask in sorted(set(chosen)):
        items.append((space.event_from_mask(mask), chosen.count(mask)))
    return tuple(items)


def check_REG3_bounded(
    f: SetFunction, max_n: int = 3, max_m: int = 4
) -> CoverViolation | None:
    """Search for a bounded violation of the plain n-cover inequality.

    Returns None when no multiset of at most max_m events (with
    multiplicity) yields a violating cover of order at most max_n;
    otherwise the first violation in enumeration order.  Complete only
    within the bounds.
    """
    if max_n < 0 or max_m < 0:
        raise DomainError("bounds must be nonnegative")
    space = f.space
    size = space.size
    full = space.full_mask
    values = f.values

    if max_n >= 1 and max_m >= 1:
        hit = _antimonotonicity_scan(f)
        if hit is not None:
            return hit

    # The empty multiset covers the empty complement of the full space any
    # number of times, so n*f(S) <= 0 must already hold.
    if max_n >= 1 and values[full] > 0:
        return CoverViolation(
            "REG3",
            space.full_event,
            (),
            1,
            0,
            lhs=values[full],
            rhs=_ZERO,
            slack=-values[full],
        )
    if max_n == 0 or max_m == 0:
        return None

    # Events equal to the empty set or the whole space never help a
    # violation (dropping them preserves it at no larger bounds), so the
    # alphabet is the proper nonempty events.
    alphabet = list(range(1, full))
    comp_indices = _complement_indices(space)
    targets = [
        (mask, values[mask], comp_indices[mask])
        for mask in range(full)
        if values[mask] > 0
    ]
    if not targets or not alphabet:
        return None
    _guard_bounds(space, len(alphabet), max_m)
    ceiling = max_n * max(value for _, value, _ in targets)

    counts = [0] * size
    chosen: list[int] = []

    def evaluate(total: Fraction) -> CoverViolation | None:
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
                    _collate(space, chosen),
                    order,
                    0,
                    lhs=lhs,
                    rhs=total,
                    slack=total - lhs,
                )
        return None

    def search(start: int, remaining: int, total: Fraction) -> CoverViolation | None:
        for position in range(start, len(alphabet)):
            mask = alphabet[position]
            extended = total + values[mask]
            if extended >= ceiling:
                continue
            for i in comp_indices[mask]:
                counts[i] += 1
            chosen.append(mask)
            if remaining == 1:
                hit = evaluate(extended)
            else:
                hit = search(position, remaining - 1, extended)
            chosen.pop()
            for i in comp_indices[mask]:
                counts[i] -= 1
            if hit is not None:
                return hit
        return None

    # Smaller multisets first, so the reported violation uses a minimal cover.
    for depth in range(1, max_m + 1):
        hit = search(0, depth, _ZERO)
        if hit is not None:
            return hit
    return None


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
    if max_n < 0 or max_k < 0 or max_m < 0:
        raise DomainError("bounds must be nonnegative")
    space = f.space
    size = space.size
    full = space.full_mask
    values = f.values

    if max_n >= 1 and values[full] > 0:
        return CoverViolation(
            "REG3'",
            space.full_event,
            (),
            1,
            0,
            lhs=values[full],
            rhs=_ZERO,
            slack=-values[full],
        )
    if max_m == 0 or (max_n == 0 and max_k == 0):
        return None

    # The whole space never helps (its complement adds no coverage), but the
    # empty event does: its complement raises every count by one.
    alphabet = list(range(0, full))
    comp_indices = _complement_indices(space)
    _guard_bounds(space, len(alphabet), max_m)
    ceiling = max_k + max_n * max(values)

    counts = [0] * size
    chosen: list[int] = []

    def evaluate(total: Fraction) -> CoverViolation | None:
        space_cover = min(counts)
        k_cap = min(space_cover, max_k)
        for mask in range(full + 1):
            value = values[mask]
            indices = comp_indices[mask]
            target_cover = min(counts[i] for i in indices) if indices else None
            for k in range(k_cap + 1):
                if target_cover is None:
                    n_cap = max_n
                else:
                    n_cap = min(target_cover - k, max_n)
                first_n = 1 if k == 0 else 0
                for n in range(first_n, n_cap + 1):
                    lhs = k + n * value
                    if lhs > total:
                        return CoverViolation(
                            "REG3'",
                            space.event_from_mask(mask),
                            _collate(space, chosen),
                            n,
                            k,
                            lhs=lhs,
                            rhs=total,
                            slack=total - lhs,
                        )
        return None

    def search(start: int, remaining: int, total: Fraction) -> CoverViolation | None:
        for position in range(start, len(alphabet)):
            mask = alphabet[position]
            extended = total + values[mask]
            if extended >= ceiling:
                continue
            for i in comp_indices[mask]:
                counts[i] += 1
            chosen.append(mask)
            if remaining == 1:
                hit = evaluate(extended)
            else:
                hit = search(position, remaining - 1, extended)
            chosen.pop()
            for i in comp_indices[mask]:
                counts[i] -= 1
            if hit is not None:
                return hit
        return None

    for depth in range(1, max_m + 1):
        hit = search(0, depth, _ZERO)
        if hit is not None:
            return hit
    return None


def check_LP_axioms(
    g: SetFunction, max_n: int = 2, max_k: int = 2, max_m: int = 3
) -> LPAxiomReport:
    """Verdicts for the lower-probability axioms, LP3 by bounded covers."""
    if max_n < 0 or max_k < 0 or max_m < 0:
        raise DomainError("bounds must be nonnegative")
    space = g.space
    size = space.size
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

    lp3 = _lp3_scan(g, max_n, max_k, max_m)
    return LPAxiomReport(lp1, lp2, lp3prime, lp3)


def _member_indices(space: StateSpace) -> list[tuple[int, ...]]:
    size = space.size
    return [
        tuple(i for i in range(size) if (mask >> i) & 1)
        for mask in range(1 << size)
    ]


def _lp3_scan(
    g: SetFunction, max_n: int, max_k: int, max_m: int
) -> CoverViolation | None:
    if max_m == 0 or (max_n == 0 and max_k == 0):
        return None
    space = g.space
    size = space.size
    full = space.full_mask
    values = g.values
    alphabet = list(range(full + 1))
    members = _member_indices(space)
    comp_indices = _complement_indices(space)
    _guard_bounds(space, len(alphabet), max_m)

    counts = [0] * size
    chosen: list[int] = []

    def evaluate(total: Fraction) -> CoverViolation | None:
        for mask in range(full + 1):
            inside_max = max((counts[i] for i in members[mask]), default=0)
            outside_max = max((counts[i] for i in comp_indices[mask]), default=0)
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
                    _collate(space, chosen),
                    n,
                    k,
                    lhs=lhs,
                    rhs=total,
                    slack=lhs - total,
                )
        return None

    def search(start: int, remaining: int, total: Fraction) -> CoverViolation | None:
        for position in range(start, len(alphabet)):
            mask = alphabet[position]
            for i in members[mask]:
                counts[i] += 1
            chosen.append(mask)
            if remaining == 1:
                hit = evaluate(total + values[mask])
            else:
                hit = search(position, remaining - 1, total + values[mask])
            chosen.pop()
            for i in members[mask]:
                counts[i] -= 1
            if hit is not None:
                return hit
        return None

    for depth in range(1, max_m + 1):
        hit = search(0, depth, _ZERO)
        if hit is not None:
            return hit
    return None
