"""Independent exact checks of every benchmark answer.

Straight transcriptions of the definitions in plain `Fraction` arithmetic,
sharing no code with the library.  Each ``check_*`` takes the op's stdout
and the data the generator built the op from, and returns None when the
answer is right or a one-line reason when it is not.  Checks run outside
the timed interval of the op.

Which verdicts are right is known by construction:

* a table induced by a weighted credal set is representable and satisfies
  REG3; with all weights 1 it satisfies REG3' too;
* a lower envelope satisfies LP1, LP2, LP3' and LP3;
* a table with one value raised is either representable (checked through
  the witness) or fails exactly at the raised event (checked through the
  Farkas certificate of that event's tightness system), because raising
  one value only loosens every other event's system;
* an antimonotone pair or a superadditivity break is itself a violation
  within the bounds, so such tables must report one, and the reported one
  is re-derived from the cover definition.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ------------------------------------------------------------- rationals


def rat_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


_RAT = re.compile(r"-?\d+(/\d+)?\Z")


def parse_rat(token: str) -> Fraction:
    if not _RAT.match(token):
        raise ValueError(f"not a canonical rational: {token!r}")
    value = Fraction(token)
    if rat_text(value) != token:
        raise ValueError(f"not in lowest terms: {token!r}")
    return value


def approx6(value: Fraction) -> str:
    """Round half to even at six decimals, keeping the sign of the value."""
    sign = "-" if value < 0 else ""
    quotient, remainder = divmod(abs(value.numerator) * 10**6, value.denominator)
    if 2 * remainder > value.denominator or (
        2 * remainder == value.denominator and quotient % 2
    ):
        quotient += 1
    return f"{sign}{quotient // 10**6}.{quotient % 10**6:06d}"


class _Cells:
    """Reads "p/q (0.xxxxxx)" cells off a whitespace-split line."""

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.position = 0

    def word(self) -> str:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def value(self) -> Fraction:
        value = parse_rat(self.word())
        shown = self.word()
        if shown != f"({approx6(value)})":
            raise ValueError(f"approximation {shown} does not match {rat_text(value)}")
        return value

    def done(self) -> bool:
        return self.position == len(self.tokens)


def _value_after(line: str, prefix: str) -> Fraction:
    if not line.startswith(prefix):
        raise ValueError(f"expected {prefix!r}, got {line!r}")
    cells = _Cells(line[len(prefix):].split())
    value = cells.value()
    if not cells.done():
        raise ValueError(f"trailing text in {line!r}")
    return value


# ---------------------------------------------------------------- events


def mask_key(mask: int, labels: str) -> str:
    return "".join(label for i, label in enumerate(labels) if mask >> i & 1)


def mask_spec(mask: int, labels: str) -> str:
    return "+".join(mask_key(mask, labels)) or "empty"


def mask_label(mask: int, labels: str) -> str:
    return "{" + ",".join(mask_key(mask, labels)) + "}"


def parse_label(label: str, labels: str) -> int:
    if not (label.startswith("{") and label.endswith("}")):
        raise ValueError(f"not an event label: {label!r}")
    inner = label[1:-1]
    mask = 0
    for member in inner.split(",") if inner else ():
        mask |= 1 << labels.index(member)
    if mask_label(mask, labels) != label:
        raise ValueError(f"not a canonical event label: {label!r}")
    return mask


def measure_table(size: int, mass) -> list[Fraction]:
    """Probability of every event, by mask."""
    table = [_ZERO] * (1 << size)
    for mask in range(1, 1 << size):
        low = (mask & -mask).bit_length() - 1
        table[mask] = table[mask & (mask - 1)] + mass[low]
    return table


def likelihood_table(size: int, entries) -> tuple[Fraction, ...]:
    """Regret likelihood: the largest weight times Pr(complement)."""
    full = (1 << size) - 1
    tables = [(measure_table(size, mass), weight) for mass, weight in entries]
    return tuple(
        max(weight * table[full ^ mask] for table, weight in tables)
        for mask in range(full + 1)
    )


def lower_probability_table(size: int, entries) -> tuple[Fraction, ...]:
    tables = [measure_table(size, mass) for mass, _ in entries]
    return tuple(min(table[mask] for table in tables) for mask in range(1 << size))


def _size_of(table) -> int:
    return len(table).bit_length() - 1


# ------------------------------------------------------------- represent


def tightness_system(table, event: int):
    """Rows of the tightness system of one event, in the documented order.

    Variables are the masses on the event's complement; one row per event
    E' < full whose complement meets that support, bounding the mass there
    by f(E')/f(E); then one nonnegativity row per variable; then the sum.
    """
    size = _size_of(table)
    full = (1 << size) - 1
    support = [i for i in range(size) if not event >> i & 1]
    scale = table[event]
    rows, rhs = [], []
    for other in range(full):
        row = [-_ONE if not other >> i & 1 else _ZERO for i in support]
        if any(row):
            rows.append(row)
            rhs.append(-(table[other] / scale))
    for j in range(len(support)):
        rows.append([_ONE if i == j else _ZERO for i in range(len(support))])
        rhs.append(_ZERO)
    rows.append([_ONE] * len(support))
    rhs.append(_ONE)
    return rows, rhs


def _certificate_holds(rows, rhs, beta) -> bool:
    if len(beta) != len(rows) or any(b < 0 for b in beta):
        return False
    for j in range(len(rows[0])):
        if sum(b * row[j] for b, row in zip(beta, rows)) != 0:
            return False
    return sum(b * r for b, r in zip(beta, rhs)) > 0


def _witness_reason(table, witness) -> str | None:
    size = _size_of(table)
    if not witness:
        return "empty witness"
    masses = [mass for mass, _ in witness]
    if len(set(masses)) != len(masses):
        return "witness repeats a measure"
    for mass, weight in witness:
        if not 0 <= weight <= 1:
            return f"witness weight {weight} outside [0, 1]"
        if any(m < 0 for m in mass) or sum(mass) != 1:
            return "witness measure is not a probability"
    if max(weight for _, weight in witness) != 1:
        return "witness maximum weight is not 1"
    if likelihood_table(size, witness) != tuple(table):
        return "witness does not reproduce the table"
    return None


def check_represent(output: str, table, raised: int | None) -> str | None:
    size = _size_of(table)
    labels = "abcdefgh"[:size]
    lines = output.splitlines()
    if lines[0] == "representable: yes":
        header = lines[2].split()
        if header != ["weight", *labels]:
            return f"bad witness header {lines[2]!r}"
        witness = []
        for line in lines[3:]:
            cells = _Cells(line.split())
            weight = cells.value()
            mass = tuple(cells.value() for _ in labels)
            if not cells.done():
                return f"bad witness row {line!r}"
            witness.append((mass, weight))
        if lines[1] != f"canonical maximal weighted set ({len(witness)} measures):":
            return f"bad witness title {lines[1]!r}"
        return _witness_reason(table, witness)
    if lines[0] != "representable: no":
        return f"bad verdict line {lines[0]!r}"
    if raised is None:
        return "an induced table was declared not representable"
    failing = parse_label(lines[2].removeprefix("failing event: "), labels)
    if failing != raised:
        return f"failing event {lines[2]!r} is not the raised event"
    beta = [parse_rat(token) for token in lines[4].strip().split(", ")]
    rows, rhs = tightness_system(table, failing)
    if not _certificate_holds(rows, rhs, beta):
        return "certificate does not prove the failing system infeasible"
    if len(lines) != 5:
        return "trailing output"
    return None


# ---------------------------------------------------------------- axioms


def _cover_counts(size: int, items, complement: bool) -> list[int]:
    full = (1 << size) - 1
    counts = [0] * size
    for mask, multiplicity in items:
        if complement:
            mask ^= full
        for i in range(size):
            if mask >> i & 1:
                counts[i] += multiplicity
    return counts


def _violation_reason(lines, table, axiom: str, bounds, labels: str) -> str | None:
    """Re-derive a printed cover violation from the cover definition."""
    size = len(labels)
    max_n, max_m, max_k = bounds
    target = parse_label(lines[0].strip().removeprefix("target event E: "), labels)
    listed = lines[1].strip().removeprefix("events E_i (with multiplicity): ")
    items = []
    if listed != "(none)":
        for part in listed.split(", "):
            label, multiplicity = part.rsplit(" x", 1)
            items.append((parse_label(label, labels), int(multiplicity)))
    match = re.fullmatch(r"\s*n = (\d+), k = (\d+)", lines[2])
    if match is None:
        return f"bad order line {lines[2]!r}"
    n, k = int(match[1]), int(match[2])
    comparison = ">=" if axiom == "LP3" else "<="
    got = lines[4].strip().removeprefix("got: ").removesuffix(" fails")
    left, right = got.split(f" {comparison} ")
    lhs, rhs = _Cells(left.split()).value(), _Cells(right.split()).value()
    slack = _value_after(lines[5].strip(), "slack: ")
    m = sum(multiplicity for _, multiplicity in items)
    if n > max_n or k > max_k or m > max_m or n + k == 0:
        return "violation outside the bounds"
    total = sum((table[mask] * mult for mask, mult in items), _ZERO)
    value = k + n * table[target]
    if axiom == "LP3":
        counts = _cover_counts(size, items, complement=False)
        fits = all(
            counts[i] <= (k + n if target >> i & 1 else k) for i in range(size)
        )
        holds = fits and value < total and slack == value - total
    else:
        # Complements cover the space k times and the target's complement
        # n + k times; the plain REG3 form has k = 0.
        counts = _cover_counts(size, items, complement=True)
        outside = [i for i in range(size) if not target >> i & 1]
        covered = (
            (axiom == "REG3'" or k == 0)
            and min(counts) >= k
            and all(counts[i] >= n + k for i in outside)
        )
        holds = covered and value > total and slack == total - value
    if not holds or lhs != value or rhs != total:
        return f"printed {axiom} violation does not re-derive"
    return None


def check_axioms(output: str, table, variant: str, bounds, expect_pass: bool) -> str | None:
    size = _size_of(table)
    labels = "abcdefgh"[:size]
    full = (1 << size) - 1
    lines = output.splitlines()
    max_n, max_m, max_k = bounds
    if variant == "lp":
        expected = [
            f"LP1 (value 1 at the full space): {'pass' if table[full] == 1 else 'FAIL'}",
            f"LP2 (value 0 at the empty event): {'pass' if table[0] == 0 else 'FAIL'}",
        ]
        if lines[:2] != expected:
            return "LP1/LP2 verdicts are wrong"
        prime = lines[2]
        if prime == "LP3' (superadditivity on disjoint events): pass":
            if not expect_pass:
                return "LP3' passed on a superadditivity break"
        else:
            pair = prime.removeprefix(
                "LP3' (superadditivity on disjoint events): VIOLATION at "
            )
            left, right = (parse_label(x, labels) for x in pair.split(" and "))
            if left & right or table[left | right] >= table[left] + table[right]:
                return "printed LP3' violation does not re-derive"
            if expect_pass:
                return "LP3' violation on a lower envelope"
        head = f"LP3 bounded (n <= {max_n}, k <= {max_k}, m <= {max_m}): "
        verdict_line, rest, axiom = lines[3], lines[4:], "LP3"
    else:
        expected = [
            f"REG1 (value 0 at the full space): {'pass' if table[full] == 0 else 'FAIL'}",
            f"REG2 (value 1 at the empty event): {'pass' if table[0] == 1 else 'FAIL'}",
        ]
        if lines[:2] != expected:
            return "REG1/REG2 verdicts are wrong"
        if variant == "reg3":
            head = f"REG3 bounded (n <= {max_n}, m <= {max_m}): "
            axiom = "REG3"
        else:
            head = f"REG3' bounded (n <= {max_n}, k <= {max_k}, m <= {max_m}): "
            axiom = "REG3'"
        verdict_line, rest = lines[2], lines[3:]
    if verdict_line == head + "pass":
        if rest:
            return "trailing output"
        return None if expect_pass else f"{axiom} passed on a table that violates it"
    if verdict_line != head + "VIOLATION":
        return f"bad verdict line {verdict_line!r}"
    if expect_pass:
        return f"{axiom} violation on a table that satisfies it"
    if len(rest) != 6:
        return "violation report has the wrong length"
    return _violation_reason(rest, table, axiom, bounds, labels)


# ----------------------------------------------------------------- learn


def posterior(weights, masses, heads: int, tails: int) -> tuple[Fraction, ...]:
    """w_i * Pr_i(h)^heads * Pr_i(t)^tails, divided by the largest."""
    scores = [w * h**heads * t**tails for w, (h, t) in zip(weights, masses)]
    top = max(scores)
    return tuple(score / top for score in scores)


def check_learn(output: str, prior, masses, stream: str) -> str | None:
    doc = json.loads(output)
    if doc["states"] != ["h", "t"] or len(doc["entries"]) != len(masses):
        return "posterior has the wrong shape"
    expected = posterior(prior, masses, stream.count("h"), stream.count("t"))
    for entry, mass, weight in zip(doc["entries"], masses, expected):
        if tuple(parse_rat(v) for v in entry["mass"]) != mass:
            return "posterior changed a measure"
        if parse_rat(entry["weight"]) != weight:
            return "posterior weight differs from w * prod Pr(s)^n_s / max"
    return None


def _interval(weights, masses) -> tuple[Fraction, Fraction]:
    """Ambiguity interval of heads: 1 - max w Pr(h), max w Pr(t)."""
    lower = _ONE - max(w * h for w, (h, _) in zip(weights, masses))
    upper = max(w * t for w, (_, t) in zip(weights, masses))
    return lower, upper


_TRAJECTORY_HEADER = ["step", "observation", "lower", "upper", "width"]


def _trajectory_rows(output: str, as_csv: bool):
    """(step, observation, lower, upper, width) per row; ValueError if malformed."""
    if as_csv:
        rows = list(csv.reader(io.StringIO(output)))
        if rows[0] != _TRAJECTORY_HEADER:
            raise ValueError("bad CSV header")
        for step, label, *values in rows[1:]:
            if len(values) != 3:
                raise ValueError(f"bad CSV row at step {step}")
            yield (step, label, *map(parse_rat, values))
        return
    lines = output.splitlines()
    if lines[0].split() != _TRAJECTORY_HEADER:
        raise ValueError("bad table header")
    for line in lines[1:]:
        cells = _Cells(line.split())
        row = (cells.word(), cells.word(), cells.value(), cells.value(), cells.value())
        if not cells.done():
            raise ValueError(f"bad trajectory row {line!r}")
        yield row


def check_trajectory(output: str, prior, masses, stream: str, as_csv: bool) -> str | None:
    rows = list(_trajectory_rows(output, as_csv))
    if len(rows) != len(stream) + 1:
        return "trajectory has the wrong number of steps"
    for i, (step, label, lower, upper, width) in enumerate(rows):
        if step != str(i) or label != ("-" if i == 0 else stream[i - 1]):
            return f"step {i} is mislabelled"
        if width != upper - lower or not 0 <= lower <= upper <= 1:
            return f"step {i} is not an interval"
    last = len(stream)
    for i in sorted({0, 1, last // 3, 2 * last // 3, last}):
        prefix = stream[:i]
        weights = posterior(prior, masses, prefix.count("h"), prefix.count("t"))
        if rows[i][2:4] != _interval(weights, masses):
            return f"step {i} differs from the recomputed interval"
    return None


# --------------------------------------------------------------- queries


def check_likelihood(output: str, entries, size: int) -> str | None:
    labels = "abcdefgh"[:size]
    full = (1 << size) - 1
    table = likelihood_table(size, entries)
    lines = output.splitlines()
    if lines[0].split() != ["event", "lower", "upper", "width"]:
        return "bad header"
    if len(lines) != full + 2:
        return "wrong number of events"
    for mask, line in enumerate(lines[1:]):
        cells = _Cells(line.split())
        if parse_label(cells.word(), labels) != mask:
            return f"row {mask} names the wrong event"
        lower, upper, width = cells.value(), cells.value(), cells.value()
        if (lower, upper, width) != (
            _ONE - table[full ^ mask],
            table[mask],
            table[mask] - (_ONE - table[full ^ mask]),
        ) or not cells.done():
            return f"interval of {line.split()[0]} differs from the recomputed one"
    return None


def _regrets(entries, utility, menu) -> list[Fraction]:
    """Per-measure expected regret: against the largest utility of any act
    when ``menu`` is a number (absolute regret), else against the menu's
    best act state by state."""
    if isinstance(menu, Fraction):
        shortfall = [menu - u for u in utility]
    else:
        shortfall = [
            max(act[1][s] for act in menu) - u for s, u in enumerate(utility)
        ]
    return [sum(p * r for p, r in zip(mass, shortfall)) for mass, _ in entries]


def _weighted(entries, values) -> Fraction:
    return max(weight * v for (_, weight), v in zip(entries, values))


def _best_outcome(acts) -> Fraction:
    return max(max(utility) for _, utility in acts)


def check_regret(output: str, entries, acts, menu) -> str | None:
    lines = output.splitlines()
    if menu is None:
        menu = _best_outcome(acts)
        title = f"absolute regret (u* = {rat_text(menu)})"
    else:
        title = "menu-relative regret (menu: " + ", ".join(n for n, _ in menu) + ")"
    if lines[0] != title:
        return f"bad title {lines[0]!r}"
    columns = [f"Pr{i + 1}" for i in range(len(entries))]
    if lines[1].split() != ["act", *columns, "weighted"]:
        return "bad header"
    if len(lines) != len(acts) + 2:
        return "wrong number of acts"
    for (name, utility), line in zip(acts, lines[2:]):
        cells = _Cells(line.split())
        if cells.word() != name:
            return "acts out of order"
        shown = [cells.value() for _ in entries]
        total = cells.value()
        expected = _regrets(entries, utility, menu)
        if shown != expected or total != _weighted(entries, expected) or not cells.done():
            return f"regret of {name} differs from the recomputed one"
    return None


def check_prefer(output: str, entries, left, right, acts) -> str | None:
    best = _best_outcome(acts)
    values = [
        _weighted(entries, _regrets(entries, utility, best)) for _, utility in (left, right)
    ]
    verdict = (
        "better" if values[0] < values[1]
        else "worse" if values[0] > values[1]
        else "equivalent"
    )
    lines = output.splitlines()
    if lines[0] != f"{left[0]} vs {right[0]} (absolute, u* = {rat_text(best)}): {verdict}":
        return f"wrong verdict line {lines[0]!r}"
    shown = lines[1].removeprefix("weighted regret: ").split(" vs ")
    if [_Cells(part.split()).value() for part in shown] != values or len(lines) != 2:
        return "weighted regrets differ from the recomputed ones"
    return None


def check_weight(output: str, table, mass) -> str | None:
    size = _size_of(table)
    full = (1 << size) - 1
    probability = measure_table(size, mass)
    expected = min(
        table[mask] / probability[full ^ mask]
        for mask in range(full + 1)
        if probability[full ^ mask] > 0
    )
    lines = output.splitlines()
    if len(lines) != 1 or _value_after(lines[0], "canonical weight: ") != expected:
        return "canonical weight differs from min f(E) / Pr(complement)"
    return None
