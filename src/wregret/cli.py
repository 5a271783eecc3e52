"""Command-line front end over the JSON document formats.

Exit codes: 0 on success (including reports of axiom violations or
non-representability, which are answers), 1 on domain errors such as an
impossible observation, 2 on usage or parse errors.  Any other exception
is reported in one line and exits 1, never as a traceback.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from typing import Sequence

from .axioms import (
    CoverViolation,
    canonical_weight,
    check_LP_axioms,
    check_REG3_bounded,
    check_REG3prime,
    representability,
)
from .core import (
    DocumentError,
    DomainError,
    Event,
    Rat,
    StateSpace,
    WeightedCredalSet,
    rat,
    rat_str,
)
from .documents import (
    credal_set_doc,
    parse_acts,
    parse_credal_set,
    parse_measure,
    parse_observation_model,
    parse_set_function,
)
from .learning import ambiguity_trajectory, update_weights_sequence
from .likelihood import ambiguity_interval
from .regret import (
    Act,
    Menu,
    absolute_weighted_regret,
    expected_regret,
    prefer,
    prefer_absolute,
    weighted_regret,
)

__all__ = ["main", "console"]


def approx6(value: Rat) -> str:
    """Six-decimal approximation of an exact rational, for display."""
    with localcontext() as context:
        context.prec = 50
        decimal = Decimal(value.numerator) / Decimal(value.denominator)
        return str(decimal.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))


def fmt(value: Rat) -> str:
    return f"{rat_str(value)} ({approx6(value)})"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from None


def emit_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def parse_event_spec(spec: str, space: StateSpace) -> Event:
    """One event per spec: labels joined by "+", or "empty" / "all"."""
    text = spec.strip()
    if text in ("empty", ""):
        return space.empty_event
    if text in ("all", "full"):
        return space.full_event
    try:
        return space.event(part.strip() for part in text.split("+"))
    except DomainError as exc:
        raise DocumentError(f"bad event {spec!r}: {exc}") from None


def parse_event_list(arg: str, space: StateSpace) -> list[Event]:
    return [parse_event_spec(part, space) for part in arg.split(",")]


def parse_observations(arg: str, alphabet: Sequence[str]) -> list[str]:
    """Comma-separated symbols; a bare string may also be one symbol or a
    run of single-character symbols."""
    if arg == "":
        return []
    if "," in arg:
        return [part.strip() for part in arg.split(",")]
    if arg in alphabet:
        return [arg]
    return list(arg)


def parse_bounds(arg: str | None, defaults: tuple[int, int, int]) -> tuple[int, int, int]:
    """Bounds flag "n,m[,k]" to (max_n, max_m, max_k)."""
    if arg is None:
        return defaults
    parts = arg.split(",")
    if len(parts) not in (2, 3):
        raise DocumentError('bounds must look like "n,m" or "n,m,k"')
    try:
        numbers = [int(part) for part in parts]
    except ValueError:
        raise DocumentError(f"bounds must be integers, got {arg!r}") from None
    if any(number < 0 for number in numbers):
        raise DocumentError("bounds must be nonnegative")
    max_n, max_m = numbers[0], numbers[1]
    max_k = numbers[2] if len(numbers) == 3 else defaults[2]
    return max_n, max_m, max_k


def _act_by_name(acts: Sequence[Act], name: str) -> Act:
    for act in acts:
        if act.name == name:
            return act
    known = ", ".join(act.name for act in acts)
    raise DocumentError(f"no act named {name!r}; known acts: {known}")


def _measure_columns(credal: WeightedCredalSet) -> list[str]:
    return [f"Pr{i + 1}" for i in range(len(credal))]


def cmd_likelihood(args) -> int:
    credal = parse_credal_set(read_json(args.pset))
    events = parse_event_list(args.events, credal.space)
    intervals = [ambiguity_interval(event, credal) for event in events]
    if args.json:
        emit_json(
            {
                "intervals": [
                    {
                        "event": list(event.members()),
                        "lower": rat_str(interval.lower),
                        "upper": rat_str(interval.upper),
                        "width": rat_str(interval.width),
                    }
                    for event, interval in zip(events, intervals)
                ]
            }
        )
        return 0
    rows = [
        [
            event.label_text(),
            fmt(interval.lower),
            fmt(interval.upper),
            fmt(interval.width),
        ]
        for event, interval in zip(events, intervals)
    ]
    print(render_table(["event", "lower", "upper", "width"], rows))
    return 0


def _default_u_star(acts: Sequence[Act]) -> Rat:
    return max(max(act.utility) for act in acts)


def cmd_regret(args) -> int:
    credal = parse_credal_set(read_json(args.pset))
    acts = parse_acts(read_json(args.acts), credal.space)
    columns = _measure_columns(credal)
    if args.menu:
        menu = Menu(tuple(parse_acts(read_json(args.menu), credal.space)))
        title = "menu-relative regret (menu: " + ", ".join(a.name for a in menu) + ")"
        per_measure = [
            [expected_regret(act, measure, menu) for measure, _ in credal]
            for act in acts
        ]
        totals = [weighted_regret(act, credal, menu) for act in acts]
    else:
        u_star = rat(args.ustar) if args.ustar is not None else _default_u_star(acts)
        title = f"absolute regret (u* = {rat_str(u_star)})"
        per_measure = [
            [u_star - act.expected_utility(measure) for measure, _ in credal]
            for act in acts
        ]
        totals = [absolute_weighted_regret(act, credal, u_star) for act in acts]
    if args.json:
        emit_json(
            {
                "acts": [
                    {
                        "name": act.name,
                        "per_measure": [rat_str(v) for v in values],
                        "weighted": rat_str(total),
                    }
                    for act, values, total in zip(acts, per_measure, totals)
                ]
            }
        )
        return 0
    print(title)
    rows = [
        [act.name, *[fmt(v) for v in values], fmt(total)]
        for act, values, total in zip(acts, per_measure, totals)
    ]
    print(render_table(["act", *columns, "weighted"], rows))
    return 0


def cmd_prefer(args) -> int:
    credal = parse_credal_set(read_json(args.pset))
    acts = parse_acts(read_json(args.acts), credal.space)
    left = _act_by_name(acts, args.left)
    right = _act_by_name(acts, args.right)
    if args.menu:
        menu = Menu(tuple(parse_acts(read_json(args.menu), credal.space)))
        verdict = prefer(left, right, credal, menu)
        left_value = weighted_regret(left, credal, menu)
        right_value = weighted_regret(right, credal, menu)
        mode = "menu-relative"
    else:
        u_star = rat(args.ustar) if args.ustar is not None else _default_u_star(acts)
        verdict = prefer_absolute(left, right, credal, u_star)
        left_value = absolute_weighted_regret(left, credal, u_star)
        right_value = absolute_weighted_regret(right, credal, u_star)
        mode = f"absolute, u* = {rat_str(u_star)}"
    if args.json:
        emit_json(
            {
                "left": args.left,
                "right": args.right,
                "verdict": verdict.value,
                "left_regret": rat_str(left_value),
                "right_regret": rat_str(right_value),
            }
        )
        return 0
    print(f"{args.left} vs {args.right} ({mode}): {verdict.value}")
    print(f"weighted regret: {fmt(left_value)} vs {fmt(right_value)}")
    return 0


def cmd_learn(args) -> int:
    credal = parse_credal_set(read_json(args.pset))
    model = parse_observation_model(read_json(args.model))
    observations = parse_observations(args.observations, model.alphabet)
    updated = update_weights_sequence(
        credal, model, observations, drop_zero=args.drop_zero
    )
    emit_json(credal_set_doc(updated))
    return 0


def cmd_trajectory(args) -> int:
    credal = parse_credal_set(read_json(args.pset))
    model = parse_observation_model(read_json(args.model))
    observations = parse_observations(args.observations, model.alphabet)
    event = parse_event_spec(args.event, credal.space)
    intervals = ambiguity_trajectory(credal, model, observations, event)
    steps = [
        ("-" if i == 0 else observations[i - 1], interval)
        for i, interval in enumerate(intervals)
    ]
    if args.json:
        emit_json(
            {
                "event": list(event.members()),
                "steps": [
                    {
                        "step": i,
                        "observation": None if i == 0 else observations[i - 1],
                        "lower": rat_str(interval.lower),
                        "upper": rat_str(interval.upper),
                        "width": rat_str(interval.width),
                    }
                    for i, interval in enumerate(intervals)
                ],
            }
        )
        return 0
    if args.csv:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["step", "observation", "lower", "upper", "width"])
        for i, (label, interval) in enumerate(steps):
            writer.writerow(
                [
                    i,
                    label,
                    rat_str(interval.lower),
                    rat_str(interval.upper),
                    rat_str(interval.width),
                ]
            )
        sys.stdout.write(buffer.getvalue())
        return 0
    rows = [
        [str(i), label, fmt(itv.lower), fmt(itv.upper), fmt(itv.width)]
        for i, (label, itv) in enumerate(steps)
    ]
    print(render_table(["step", "observation", "lower", "upper", "width"], rows))
    return 0


def _violation_lines(violation: CoverViolation, requirement: str) -> list[str]:
    cover = ", ".join(
        f"{event.label_text()} x{multiplicity}"
        for event, multiplicity in violation.events
    )
    comparison = "<=" if violation.axiom != "LP3" else ">="
    return [
        f"  target event E: {violation.target.label_text()}",
        f"  events E_i (with multiplicity): {cover if cover else '(none)'}",
        f"  n = {violation.n}, k = {violation.k}",
        f"  requires: {requirement}",
        f"  got: {fmt(violation.lhs)} {comparison} {fmt(violation.rhs)} fails",
        f"  slack: {fmt(violation.slack)}",
    ]


def _violation_json(violation: CoverViolation) -> dict:
    return {
        "axiom": violation.axiom,
        "target": list(violation.target.members()),
        "events": [
            {"event": list(event.members()), "multiplicity": multiplicity}
            for event, multiplicity in violation.events
        ],
        "n": violation.n,
        "k": violation.k,
        "lhs": rat_str(violation.lhs),
        "rhs": rat_str(violation.rhs),
        "slack": rat_str(violation.slack),
    }


def cmd_axioms(args) -> int:
    f = parse_set_function(read_json(args.function))
    max_n, max_m, max_k = parse_bounds(args.bounds, (3, 4, 2))
    if args.variant == "lp":
        report = check_LP_axioms(f, max_n=max_n, max_k=max_k, max_m=max_m)
        if args.json:
            emit_json(
                {
                    "variant": "lp",
                    "lp1": report.lp1_holds,
                    "lp2": report.lp2_holds,
                    "lp3prime": (
                        None
                        if report.lp3prime_violation is None
                        else [
                            list(event.members())
                            for event in report.lp3prime_violation
                        ]
                    ),
                    "lp3": (
                        None
                        if report.lp3_violation is None
                        else _violation_json(report.lp3_violation)
                    ),
                }
            )
            return 0
        print(f"LP1 (value 1 at the full space): {'pass' if report.lp1_holds else 'FAIL'}")
        print(f"LP2 (value 0 at the empty event): {'pass' if report.lp2_holds else 'FAIL'}")
        if report.lp3prime_violation is None:
            print("LP3' (superadditivity on disjoint events): pass")
        else:
            left, right = report.lp3prime_violation
            print(
                "LP3' (superadditivity on disjoint events): VIOLATION at "
                f"{left.label_text()} and {right.label_text()}"
            )
        if report.lp3_violation is None:
            print(f"LP3 bounded (n <= {max_n}, k <= {max_k}, m <= {max_m}): pass")
        else:
            print(f"LP3 bounded (n <= {max_n}, k <= {max_k}, m <= {max_m}): VIOLATION")
            for line in _violation_lines(
                report.lp3_violation, "k + n*g(E) >= sum of g(E_i)"
            ):
                print(line)
        return 0

    reg1 = f.values[f.space.full_mask] == 0
    reg2 = f.values[0] == 1
    if args.variant == "reg3":
        violation = check_REG3_bounded(f, max_n=max_n, max_m=max_m)
        label = f"REG3 bounded (n <= {max_n}, m <= {max_m})"
        requirement = "n*f(E) <= sum of f(E_i)"
    else:
        violation = check_REG3prime(f, max_n=max_n, max_k=max_k, max_m=max_m)
        label = f"REG3' bounded (n <= {max_n}, k <= {max_k}, m <= {max_m})"
        requirement = "k + n*f(E) <= sum of f(E_i)"
    if args.json:
        emit_json(
            {
                "variant": args.variant,
                "reg1": reg1,
                "reg2": reg2,
                "violation": None if violation is None else _violation_json(violation),
            }
        )
        return 0
    print(f"REG1 (value 0 at the full space): {'pass' if reg1 else 'FAIL'}")
    print(f"REG2 (value 1 at the empty event): {'pass' if reg2 else 'FAIL'}")
    if violation is None:
        print(f"{label}: pass")
    else:
        print(f"{label}: VIOLATION")
        for line in _violation_lines(violation, requirement):
            print(line)
    return 0


def cmd_represent(args) -> int:
    f = parse_set_function(read_json(args.function))
    result = representability(f)
    if args.json:
        doc: dict = {"representable": result.representable}
        if result.witness is not None:
            doc["witness"] = credal_set_doc(result.witness)
        if result.reason is not None:
            doc["reason"] = result.reason
        if result.failing_event is not None:
            doc["failing_event"] = list(result.failing_event.members())
        if result.certificate is not None:
            doc["certificate"] = [rat_str(v) for v in result.certificate]
        emit_json(doc)
        return 0
    if result.representable:
        witness = result.witness
        print("representable: yes")
        print(f"canonical maximal weighted set ({len(witness)} measures):")
        rows = [
            [fmt(weight), *[fmt(v) for v in measure.mass]]
            for measure, weight in witness
        ]
        print(render_table(["weight", *witness.space.labels], rows))
        return 0
    print("representable: no")
    print(f"reason: {result.reason}")
    if result.failing_event is not None:
        print(f"failing event: {result.failing_event.label_text()}")
    if result.certificate is not None:
        print(
            "certificate (nonnegative multipliers proving A x >= b unsatisfiable):"
        )
        print("  " + ", ".join(rat_str(v) for v in result.certificate))
    return 0


def cmd_weight(args) -> int:
    f = parse_set_function(read_json(args.function))
    measure = parse_measure(read_json(args.measure))
    if measure.space != f.space:
        raise DocumentError(
            "the measure and the set function declare different states"
        )
    weight = canonical_weight(f, measure)
    if args.json:
        emit_json({"weight": rat_str(weight)})
        return 0
    print(f"canonical weight: {fmt(weight)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Argparse objects form reference cycles, so a parser per call would leave
    garbage for the cycle collector on every in-process invocation.
    """
    parser = argparse.ArgumentParser(
        prog="wregret",
        description=(
            "Weighted credal sets: regret tables, likelihood intervals, "
            "weight updating, axiom checks, and exact representability."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    likelihood = commands.add_parser(
        "likelihood", help="ambiguity intervals for events"
    )
    likelihood.add_argument("-p", "--pset", required=True, help="credal-set file")
    likelihood.add_argument(
        "-e",
        "--events",
        required=True,
        help='events, comma separated; labels joined by "+", or "empty"/"all"',
    )
    likelihood.add_argument("--json", action="store_true")
    likelihood.set_defaults(handler=cmd_likelihood)

    regret = commands.add_parser(
        "regret", help="regret table for acts (absolute without a menu)"
    )
    regret.add_argument("-p", "--pset", required=True)
    regret.add_argument("-a", "--acts", required=True, help="acts file")
    regret.add_argument("-m", "--menu", help="menu file (menu-relative regret)")
    regret.add_argument("--ustar", help="best-outcome utility (default: max in acts)")
    regret.add_argument("--json", action="store_true")
    regret.set_defaults(handler=cmd_regret)

    preference = commands.add_parser("prefer", help="compare two acts by name")
    preference.add_argument("-p", "--pset", required=True)
    preference.add_argument("-a", "--acts", required=True)
    preference.add_argument("-m", "--menu")
    preference.add_argument("--ustar")
    preference.add_argument("--json", action="store_true")
    preference.add_argument("left", help="name of the first act")
    preference.add_argument("right", help="name of the second act")
    preference.set_defaults(handler=cmd_prefer)

    learn = commands.add_parser(
        "learn", help="update weights from observations; prints the new set"
    )
    learn.add_argument("-p", "--pset", required=True)
    learn.add_argument("-o", "--model", required=True, help="observation-model file")
    learn.add_argument(
        "-s",
        "--observations",
        required=True,
        help="observation string (comma separated, or a run of symbols)",
    )
    learn.add_argument(
        "--drop-zero", action="store_true", help="drop entries whose weight becomes 0"
    )
    learn.set_defaults(handler=cmd_learn)

    trajectory = commands.add_parser(
        "trajectory", help="ambiguity interval after each observation prefix"
    )
    trajectory.add_argument("-p", "--pset", required=True)
    trajectory.add_argument("-o", "--model", required=True)
    trajectory.add_argument("-s", "--observations", required=True)
    trajectory.add_argument("-e", "--event", required=True)
    trajectory.add_argument("--csv", action="store_true", help="emit CSV instead")
    trajectory.add_argument("--json", action="store_true")
    trajectory.set_defaults(handler=cmd_trajectory)

    axioms = commands.add_parser("axioms", help="axiom report for a set function")
    axioms.add_argument("-f", "--function", required=True, help="set-function file")
    axioms.add_argument(
        "--variant", choices=["reg3", "reg3prime", "lp"], default="reg3"
    )
    axioms.add_argument(
        "--bounds", help='enumeration bounds "n,m[,k]" (default 3,4,2)'
    )
    axioms.add_argument("--json", action="store_true")
    axioms.set_defaults(handler=cmd_axioms)

    represent = commands.add_parser(
        "represent", help="decide representability; witness set or certificate"
    )
    represent.add_argument("-f", "--function", required=True)
    represent.add_argument("--json", action="store_true")
    represent.set_defaults(handler=cmd_represent)

    weight = commands.add_parser(
        "weight", help="canonical weight of a measure under a set function"
    )
    weight.add_argument("-f", "--function", required=True)
    weight.add_argument("-q", "--measure", required=True, help="measure file")
    weight.add_argument("--json", action="store_true")
    weight.set_defaults(handler=cmd_weight)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Exact rationals outgrow CPython's default 4300-digit limit on int/str
    # conversion (long observation streams do); documents carry them as text.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    try:
        return args.handler(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console()
