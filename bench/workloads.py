"""Seeded inputs for the benchmark workloads.

Each workload is a closed loop with one client: op ``i`` is issued only when
op ``i - 1`` has returned.  An op is one ``wregret`` CLI invocation on JSON
documents that this module writes from the workload seed; the library sees
only those documents.  Every op also carries its expected answer (the data
the generator built it from), which `oracle` checks after the op's timed
interval.

The generator is deliberately independent of the library: tables, lower
probabilities and posteriors are computed here from their definitions with
plain `Fraction` arithmetic.

Op ``i`` of a run depends only on (workload, seed, i), so the same seed gives
the same inputs however long the run lasts.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

import oracle

LABELS = "abcdefgh"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check its answer must pass."""

    kind: str
    argv: tuple[str, ...]
    check: Callable[[str], str | None]


@dataclass(frozen=True)
class Workload:
    """A named closed loop over a cycle of op kinds.

    ``tail_percentile`` is the highest of p50/p75/p90/p95/p99 that keeps
    ten samples beyond it in a run at the defining commit on a quiet host
    (a few fewer while the host is slow; each run prints the count).  It is
    fixed per workload, so that a faster or slower program is compared at
    the same percentile rather than at one chosen from its sample count.
    """

    name: str
    why: str
    schedule: tuple[str, ...]
    builders: dict
    tail_percentile: int

    def op(self, seed: int, index: int, workdir: Path) -> Op:
        """Op number ``index`` of the run, its documents written to workdir."""
        kind = self.schedule[index % len(self.schedule)]
        rng = Random(f"{self.name}:{seed}:{index}")
        argv, check = self.builders[kind](rng, _Writer(workdir, index))
        return Op(kind, tuple(argv), check)


class _Writer:
    """Writes one op's documents under names unique to the op."""

    def __init__(self, workdir: Path, index: int) -> None:
        self.workdir = workdir
        self.index = index

    def __call__(self, name: str, doc) -> str:
        path = self.workdir / f"op{self.index}-{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


text = oracle.rat_text


# ---------------------------------------------------------------- measures


def random_mass(rng: Random, size: int, denominator: int) -> tuple[Fraction, ...]:
    """Masses k/denominator, every state at least 1/denominator."""
    counts = [1] * size
    for _ in range(denominator - size):
        counts[rng.randrange(size)] += 1
    return tuple(Fraction(c, denominator) for c in counts)


def random_set(
    rng: Random, size: int, count: int, denominators, weights=None
) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """``count`` distinct full-support measures.

    Weights are drawn from ``weights`` with one of them set to 1, or are all
    1 when ``weights`` is None.
    """
    masses: list[tuple[Fraction, ...]] = []
    while len(masses) < count:
        mass = random_mass(rng, size, rng.choice(denominators))
        if mass not in masses:
            masses.append(mass)
    if weights is None:
        return [(mass, Fraction(1)) for mass in masses]
    drawn = [rng.choice(weights) for _ in masses]
    drawn[rng.randrange(count)] = Fraction(1)
    return list(zip(masses, drawn))


def set_doc(size: int, entries) -> dict:
    return {
        "states": list(LABELS[:size]),
        "entries": [
            {"mass": [text(m) for m in mass], "weight": text(weight)}
            for mass, weight in entries
        ],
    }


def table_doc(size: int, values) -> dict:
    labels = LABELS[:size]
    return {
        "states": list(labels),
        "values": {
            oracle.mask_key(mask, labels): text(value)
            for mask, value in enumerate(values)
        },
    }


# --------------------------------------------------------------- represent

# Why: the LP layer does almost all the work here (one exact LP per
# positive event, then canonical_weight and reconstruction), and learning
# and regret are idle.  Tables induced by weighted sets take the witness
# path; N=4 tables with one value raised mostly take the certificate path.
# A faster exact LP (ROADMAP item 2) shows here first.
REPRESENT_WHY = (
    "represent on N=4 and N=5 tables: one exact LP per positive event, so "
    "the LP layer does almost all the work while learning and regret idle"
)

# One family for every N=4/N=5 table: three measures in twelfths with
# weights from a short list.  Op cost varies with the rationals the LP and
# the cover search meet, so a narrow family keeps runs comparable.
_TABLE_MEASURES = 3
_TABLE_DENOMINATORS = (12,)
_TABLE_WEIGHTS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1))


def _table_set(rng: Random, size: int, weighted: bool):
    weights = _TABLE_WEIGHTS if weighted else None
    return random_set(rng, size, _TABLE_MEASURES, _TABLE_DENOMINATORS, weights)


def _weighted_table(rng: Random, size: int):
    return oracle.likelihood_table(size, _table_set(rng, size, True))


def _represent_from_set(size: int, rng: Random, write):
    """Table induced by a weighted set: representable, LP witness path."""
    table = _weighted_table(rng, size)
    path = write("table", table_doc(size, table))
    check = functools.partial(oracle.check_represent, table=table, raised=None)
    return ["represent", "-f", path], check


def _represent_raised(size: int, rng: Random, write):
    """Induced table with one proper event's value raised.

    Raising f(E*) only loosens the tightness systems of the other events,
    which stay feasible, so an answer of "no" must name E* and carry a
    certificate for E*'s system; an answer of "yes" must carry a witness.
    """
    table = list(_weighted_table(rng, size))
    full = (1 << size) - 1
    # From the last quarter of mask order, so the LP path runs through at
    # least three quarters of the events before it can stop, and raised
    # tables cost about as much as induced ones.
    raised = rng.randrange(full - (full + 1) // 4, full)
    table[raised] = (table[raised] + 2) / 3
    table = tuple(table)
    path = write("table", table_doc(size, table))
    check = functools.partial(oracle.check_represent, table=table, raised=raised)
    return ["represent", "-f", path], check


# N=4 ops take about 0.1 s and N=5 ones about 0.8 s with a wide spread, so
# N=5 runs once in 21 ops: it is about a third of the op time, while the
# median and p75 fall inside the N=4 ops, of which a run holds 60-150.
REPRESENT = Workload(
    name="represent",
    why=REPRESENT_WHY,
    schedule=("n4.set", "n4.raised") * 10 + ("n5.set",),
    builders={
        "n4.set": functools.partial(_represent_from_set, 4),
        "n4.raised": functools.partial(_represent_raised, 4),
        "n5.set": functools.partial(_represent_from_set, 5),
    },
    tail_percentile=75,
)


# ------------------------------------------------------------------ axioms

# Why: the bounded cover search does the work with zero LP calls.  ROADMAP
# item 3 replaces that search with LP certificates, so this workload shows
# whether the replacement pays off, and `represent` whether it costs the LP
# path anything.  Tables that satisfy the axioms search fully to the bounds;
# broken ones stop at the first violation.
AXIOMS_WHY = (
    "axioms reg3, reg3prime and lp on N=4 and N=5 tables: the bounded cover "
    "search does the work with zero LP calls"
)

# Bounds (n, m, k) per (variant, N).  The CLI default (3,4,2) makes one N=5
# op take 4-35 s; these keep every op under half a second (reg3 at N=5 about
# 0.3 s, every other search about 0.1 s), so a run holds a few hundred ops.
_BOUNDS = {
    ("reg3", 4): (3, 4, 2),
    ("reg3", 5): (3, 3, 2),
    ("reg3prime", 4): (2, 3, 2),
    ("reg3prime", 5): (2, 2, 2),
    ("lp", 4): (2, 3, 2),
    ("lp", 5): (2, 2, 2),
}
_VARIANTS = ("reg3", "reg3prime", "lp")


def _break_antimonotonicity(rng: Random, size: int, table) -> tuple:
    """Raise a proper event above one of its subsets.

    That pair is itself a one-event cover (n = 1, k = 0, m = 1), so both
    REG3 and REG3' have a violation within any bounds of at least 1.
    """
    full = (1 << size) - 1
    while True:
        big = rng.randrange(1, full)
        sub = rng.randrange(1 << size) & big
        if sub != big and table[sub] < 1:
            break
    values = list(table)
    values[big] = (table[sub] + 1) / 2
    return tuple(values)


def _break_superadditivity(rng: Random, size: int, table) -> tuple:
    """Lower g(A u B) below g(A) + g(B) for disjoint nonempty A, B.

    LP3' is checked exhaustively and the pair is an LP3 instance with
    n = 1, k = 0, m = 2, so both report a violation.
    """
    full = (1 << size) - 1
    while True:
        union = rng.randrange(1, full)
        left = rng.randrange(1 << size) & union
        right = union & ~left
        if left and right:
            break
    values = list(table)
    values[union] = (table[left] + table[right]) / 2
    return tuple(values)


def _axioms_op(variant: str, size: int, broken: bool, rng: Random, write):
    if variant == "lp":
        # Lower envelopes satisfy LP1-LP3 for every order.
        table = oracle.lower_probability_table(size, _table_set(rng, size, False))
        if broken:
            table = _break_superadditivity(rng, size, table)
    else:
        # Induced tables satisfy REG3 for every order; all-weights-1 ones
        # satisfy REG3' as well.
        table = oracle.likelihood_table(size, _table_set(rng, size, variant == "reg3"))
        if broken:
            table = _break_antimonotonicity(rng, size, table)
    path = write("table", table_doc(size, table))
    check = functools.partial(
        oracle.check_axioms,
        table=table,
        variant=variant,
        bounds=_BOUNDS[variant, size],
        expect_pass=not broken,
    )
    bounds = ",".join(map(str, _BOUNDS[variant, size]))
    return ["axioms", "-f", path, "--variant", variant, "--bounds", bounds], check


def _axioms_builders() -> dict:
    builders = {}
    for variant, size in _BOUNDS:
        for broken in (False, True):
            kind = f"n{size}.{variant}.{'broken' if broken else 'pass'}"
            builders[kind] = functools.partial(_axioms_op, variant, size, broken)
    return builders


def _axioms_block(variant: str, n5_kind: str) -> tuple[str, ...]:
    return (
        "n4.reg3.pass", "n4.reg3prime.pass", "n4.lp.pass",
        f"n4.{variant}.broken", "n5.reg3.pass", n5_kind,
    )


# Broken tables stop within milliseconds and make a fifth of the ops; N=5
# reg3 (about 0.3 s) makes a sixth; every other op takes about 0.1 s.  So
# the median falls inside the 0.1 s ops and p90 inside the N=5 reg3 ones,
# rather than on a boundary between two kinds.
AXIOMS = Workload(
    name="axioms",
    why=AXIOMS_WHY,
    schedule=_axioms_block("reg3", "n5.reg3prime.pass")
    + _axioms_block("reg3prime", "n5.lp.pass")
    + _axioms_block("lp", "n5.lp.broken"),
    builders=_axioms_builders(),
    tail_percentile=90,
)


# ------------------------------------------------------------------- learn

# Why: the weight-update fold and rational growth dominate; LP and axioms
# are idle.  A chained op's prior and stream total 450 tosses, well below
# the roughly 3000 tosses at which the 4300-digit int/str conversion limit
# ends an op (ROADMAP item 5, which that item fixes and tests).
LEARN_WHY = (
    "learn and trajectory on the 99-point coin grid with streams of a few "
    "hundred tosses: the weight-update fold and rational growth dominate"
)

GRID = tuple(Fraction(n, 100) for n in range(1, 100))
GRID_MASSES = tuple((p, 1 - p) for p in GRID)


def _grid_docs(write, weights) -> tuple[str, str]:
    prior = write(
        "prior",
        {
            "states": ["h", "t"],
            "entries": [
                {"mass": [text(p), text(1 - p)], "weight": text(w)}
                for p, w in zip(GRID, weights)
            ],
        },
    )
    model = write(
        "model",
        {
            "alphabet": ["h", "t"],
            "likelihoods": [[text(p), text(1 - p)] for p in GRID],
        },
    )
    return prior, model


def _stream(rng: Random, length: int) -> str:
    bias = rng.choice((0.3, 0.4, 0.5, 0.6, 0.7))
    return "".join("h" if rng.random() < bias else "t" for _ in range(length))


def _learn_op(chained: bool, rng: Random, write):
    weights = (Fraction(1),) * len(GRID)
    if chained:
        # A posterior the generator computes itself, fed back as the prior,
        # so the documents layer parses rationals of hundreds of digits.
        history = _stream(rng, 300)
        weights = oracle.posterior(
            weights, GRID_MASSES, history.count("h"), history.count("t")
        )
    prior, model = _grid_docs(write, weights)
    stream = _stream(rng, 150 if chained else 260)
    check = functools.partial(
        oracle.check_learn, prior=weights, masses=GRID_MASSES, stream=stream
    )
    return ["learn", "-p", prior, "-o", model, "-s", stream], check


def _trajectory_op(as_csv: bool, rng: Random, write):
    weights = (Fraction(1),) * len(GRID)
    prior, model = _grid_docs(write, weights)
    stream = _stream(rng, 150)
    argv = ["trajectory", "-p", prior, "-o", model, "-s", stream, "-e", "h"]
    if as_csv:
        argv.append("--csv")
    check = functools.partial(
        oracle.check_trajectory,
        prior=weights,
        masses=GRID_MASSES,
        stream=stream,
        as_csv=as_csv,
    )
    return argv, check


LEARN = Workload(
    name="learn",
    why=LEARN_WHY,
    schedule=("learn", "learn.chained", "trajectory.text", "trajectory.csv"),
    builders={
        "learn": functools.partial(_learn_op, False),
        "learn.chained": functools.partial(_learn_op, True),
        "trajectory.text": functools.partial(_trajectory_op, False),
        "trajectory.csv": functools.partial(_trajectory_op, True),
    },
    tail_percentile=75,
)


# ----------------------------------------------------------------- queries

# Why: this is the interactive traffic and the only workload that measures
# the regret layer.  It bypasses LP, learning and cover search, so changes
# there should leave it unmoved; a mask-table primitive (ROADMAP item 4)
# should move its likelihood and weight ops.
QUERIES_WHY = (
    "likelihood, regret, prefer and weight on N=6 and N=8 sets: interactive "
    "traffic, the only regret-layer load; LP, learning and cover search idle"
)

_QUERY_SIZES = {6: 16, 8: 28}
_QUERY_DENOMINATORS = (10, 12, 16, 20)
_QUERY_WEIGHTS = tuple(Fraction(k, 20) for k in range(1, 21))
_ACTS = 30
_MENU = 5


def _acts(rng: Random, size: int) -> list[tuple[str, tuple[Fraction, ...]]]:
    return [
        (f"act{j:02d}", tuple(Fraction(rng.randint(0, 12), 4) for _ in range(size)))
        for j in range(_ACTS)
    ]


def _acts_doc(acts) -> dict:
    return {
        "acts": [
            {"name": name, "utility": [text(u) for u in utility]}
            for name, utility in acts
        ]
    }


def _query_set(rng: Random, size: int):
    return random_set(rng, size, _QUERY_SIZES[size], _QUERY_DENOMINATORS, _QUERY_WEIGHTS)


def _likelihood_op(size: int, rng: Random, write):
    entries = _query_set(rng, size)
    path = write("set", set_doc(size, entries))
    labels = LABELS[:size]
    events = [oracle.mask_spec(mask, labels) for mask in range(1 << size)]
    check = functools.partial(oracle.check_likelihood, entries=entries, size=size)
    return ["likelihood", "-p", path, "-e", ",".join(events)], check


def _regret_op(size: int, with_menu: bool, rng: Random, write):
    entries = _query_set(rng, size)
    acts = _acts(rng, size)
    argv = ["regret", "-p", write("set", set_doc(size, entries)),
            "-a", write("acts", _acts_doc(acts))]
    menu = None
    if with_menu:
        menu = rng.sample(acts, _MENU)
        argv += ["-m", write("menu", _acts_doc(menu))]
    check = functools.partial(
        oracle.check_regret, entries=entries, acts=acts, menu=menu
    )
    return argv, check


def _prefer_op(size: int, rng: Random, write):
    entries = _query_set(rng, size)
    acts = _acts(rng, size)
    left, right = rng.sample(acts, 2)
    argv = [
        "prefer",
        "-p", write("set", set_doc(size, entries)),
        "-a", write("acts", _acts_doc(acts)),
        left[0], right[0],
    ]
    check = functools.partial(
        oracle.check_prefer, entries=entries, left=left, right=right, acts=acts
    )
    return argv, check


def _weight_op(size: int, rng: Random, write):
    table = oracle.likelihood_table(size, _query_set(rng, size))
    mass = random_mass(rng, size, rng.choice(_QUERY_DENOMINATORS))
    argv = [
        "weight",
        "-f", write("table", table_doc(size, table)),
        "-q", write("measure", {"states": list(LABELS[:size]),
                                "mass": [text(m) for m in mass]}),
    ]
    check = functools.partial(oracle.check_weight, table=table, mass=mass)
    return argv, check


def _queries_builders() -> dict:
    builders = {}
    for size in _QUERY_SIZES:
        builders[f"n{size}.likelihood"] = functools.partial(_likelihood_op, size)
        builders[f"n{size}.regret.absolute"] = functools.partial(_regret_op, size, False)
        builders[f"n{size}.regret.menu"] = functools.partial(_regret_op, size, True)
        builders[f"n{size}.prefer"] = functools.partial(_prefer_op, size)
        builders[f"n{size}.weight"] = functools.partial(_weight_op, size)
    return builders


# Prefer and weight ops take a few ms, likelihood and regret ops 20-100 ms
# and N=8 likelihood about 0.12 s, so the median falls inside the N=6
# likelihood and regret ops and p95 inside the N=8 likelihood ones.
QUERIES = Workload(
    name="queries",
    why=QUERIES_WHY,
    schedule=tuple(
        f"n{size}.{kind}"
        for size in _QUERY_SIZES
        for kind in ("likelihood", "regret.absolute", "prefer", "weight", "regret.menu")
    ),
    builders=_queries_builders(),
    tail_percentile=95,
)


WORKLOADS = {w.name: w for w in (REPRESENT, AXIOMS, LEARN, QUERIES)}
