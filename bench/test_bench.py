"""Tests of the benchmark itself: oracles, generator, tracer, harness.

    python3 -m pytest bench
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction

import pytest

import oracle
import run
import tracer
from workloads import WORKLOADS, Workload

sys.path.insert(0, str(run.SRC))

import wregret.cli as cli  # noqa: E402


def make_op(workload: str, index: int, workdir, seed: int = 1):
    return WORKLOADS[workload].op(seed, index, workdir)


def answer(op) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(op.argv)) == 0
    return out.getvalue()


def find_op(workload: str, kind: str, workdir, accept=lambda text: True):
    """First op of the given kind (seed 1) whose answer passes ``accept``."""
    for index in range(200):
        op = make_op(workload, index, workdir)
        if op.kind == kind:
            text = answer(op)
            if accept(text):
                return op, text
    raise AssertionError(f"no {kind} op found")


def cell(value: Fraction) -> str:
    return f"{oracle.rat_text(value)} ({oracle.approx6(value)})"


def replace_cell(line: str, index: int, value: Fraction) -> str:
    """Rewrite the index-th "p/q (approx)" cell of a table line consistently."""
    tokens = line.split()
    cells = [i for i, token in enumerate(tokens) if token.startswith("(")]
    position = cells[index] - 1
    tokens[position : position + 2] = cell(value).split()
    return "  ".join(tokens)


def edit_line(text: str, number: int, edit) -> str:
    lines = text.splitlines()
    lines[number] = edit(lines[number])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- oracles


def test_represent_oracle_rejects_a_changed_witness_mass(tmp_path):
    op, text = find_op("represent", "n4.set", tmp_path)
    assert op.check(text) is None
    first = text.splitlines()[3].split()
    mass = oracle.parse_rat(first[2]), oracle.parse_rat(first[4])
    shift = min(mass[0], 1 - mass[1]) / 2 or Fraction(1, 2)
    planted = edit_line(text, 3, lambda line: replace_cell(line, 1, mass[0] - shift))
    planted = edit_line(planted, 3, lambda line: replace_cell(line, 2, mass[1] + shift))
    assert op.check(planted) is not None


def test_represent_oracle_rejects_a_wrong_certificate_or_event(tmp_path):
    op, text = find_op(
        "represent", "n4.raised", tmp_path, lambda t: t.startswith("representable: no")
    )
    assert op.check(text) is None
    beta = text.splitlines()[4].strip().split(", ")
    positive = next(i for i, v in enumerate(beta) if v != "0")
    beta[positive] = "0"
    assert op.check(edit_line(text, 4, lambda _: "  " + ", ".join(beta))) is not None
    moved = edit_line(text, 2, lambda _: "failing event: {a}")
    assert op.check(moved) is not None


def test_axioms_oracle_rejects_wrong_verdicts_and_violations(tmp_path):
    op, text = find_op("axioms", "n4.reg3.broken", tmp_path)
    assert op.check(text) is None
    lines = text.splitlines()
    assert op.check("\n".join(lines[:2] + [lines[2].replace("VIOLATION", "pass")])) is not None
    order = next(i for i, line in enumerate(lines) if line.strip().startswith("n = "))
    assert op.check(edit_line(text, order, lambda _: "  n = 2, k = 0")) is not None

    op, text = find_op("axioms", "n4.lp.pass", tmp_path)
    assert op.check(text) is None
    broken, _ = find_op("axioms", "n4.lp.broken", tmp_path)
    assert broken.check(text) is not None


def test_learn_oracle_rejects_a_changed_posterior_weight(tmp_path):
    op, text = find_op("learn", "learn", tmp_path)
    assert op.check(text) is None
    doc = json.loads(text)
    weight = oracle.parse_rat(doc["entries"][40]["weight"])
    doc["entries"][40]["weight"] = oracle.rat_text(weight * Fraction(999, 1000))
    assert op.check(json.dumps(doc)) is not None


@pytest.mark.parametrize("kind", ["trajectory.csv", "trajectory.text"])
def test_trajectory_oracle_rejects_a_changed_step(tmp_path, kind):
    op, text = find_op("learn", kind, tmp_path)
    assert op.check(text) is None
    last = len(text.splitlines()) - 1
    if kind == "trajectory.csv":
        def edit(line):
            step, label, lower, upper, _ = line.split(",")
            upper = oracle.parse_rat(upper) * Fraction(999, 1000)
            width = upper - oracle.parse_rat(lower)
            return ",".join([step, label, lower, oracle.rat_text(upper), oracle.rat_text(width)])
    else:
        def edit(line):
            tokens = line.split()
            lower, upper = oracle.parse_rat(tokens[2]), oracle.parse_rat(tokens[4])
            upper *= Fraction(999, 1000)
            return replace_cell(replace_cell(line, 1, upper), 2, upper - lower)
    assert op.check(edit_line(text, last, edit)) is not None


def test_query_oracles_reject_planted_answers(tmp_path):
    op, text = find_op("queries", "n6.likelihood", tmp_path)
    assert op.check(text) is None
    assert op.check(edit_line(text, 5, lambda l: replace_cell(l, 1, Fraction(1, 7)))) is not None

    op, text = find_op("queries", "n6.regret.menu", tmp_path)
    assert op.check(text) is None
    assert op.check(edit_line(text, 2, lambda l: replace_cell(l, 0, Fraction(-1, 7)))) is not None

    op, text = find_op("queries", "n6.prefer", tmp_path)
    assert op.check(text) is None
    verdicts = {"better": "worse", "worse": "better", "equivalent": "better"}
    flipped = edit_line(
        text, 0, lambda l: l.rsplit(" ", 1)[0] + " " + verdicts[l.rsplit(" ", 1)[1]]
    )
    assert op.check(flipped) is not None

    op, text = find_op("queries", "n6.weight", tmp_path)
    assert op.check(text) is None
    weight = oracle.parse_rat(text.split()[2])
    assert op.check(f"canonical weight: {cell(weight / 2)}\n") is not None


def test_failed_ops_are_counted(tmp_path):
    runner = run.Runner(cli)
    good = make_op("queries", 0, tmp_path)
    runner.execute(good)
    runner.execute(replace(good, check=lambda text: "planted"))
    runner.execute(replace(good, argv=("likelihood", "-p", "missing.json", "-e", "a")))
    assert (runner.attempted, runner.failed) == (3, 2)


# -------------------------------------------------------------- generator


def op_files(workdir) -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    workload = WORKLOADS[name]
    count = len(workload.schedule)
    runs = []
    for attempt, seed in enumerate((5, 5, 6)):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        argvs = [
            [a.replace(str(workdir), "") for a in workload.op(seed, i, workdir).argv]
            for i in range(count)
        ]
        runs.append((argvs, op_files(workdir)))
    assert runs[0] == runs[1]
    assert runs[0][1] != runs[2][1]


# ----------------------------------------------------------------- tracer


def wregret_bindings() -> dict:
    """Every attribute of every loaded wregret module and of their classes."""
    bindings = {}
    for module_name, module in list(sys.modules.items()):
        if module_name == "wregret" or module_name.startswith("wregret."):
            for attribute, value in vars(module).items():
                bindings[module_name, attribute] = value
                if isinstance(value, type):
                    for member, inner in vars(value).items():
                        bindings[module_name, attribute, member] = inner
    return bindings


def sample_ops(workdir):
    """A few ops of every workload, each workload in its own directory."""
    picks = [("represent", 0), ("represent", 1), ("axioms", 0), ("axioms", 3), ("learn", 0)]
    picks += [("queries", i) for i in range(10)]
    for name in WORKLOADS:
        (workdir / name).mkdir(exist_ok=True)
    return [make_op(name, index, workdir / name) for name, index in picks]


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        runner, metrics, trace = run.traced_run(sample_ops(tmp_path), cli)
        assert runner.failed == 0 and not trace.absent
        counts.append(
            {name: value for name, (value, unit) in metrics.items() if unit in ("count", "bits")}
        )
    assert counts[0] == counts[1]
    assert counts[0]["lp.calls"] > 0 and counts[0]["core.prob.calls"] > 0
    assert counts[0]["regret.weighted_regret.calls"] > 0


def test_untraced_run_installs_nothing_and_tracer_restores(tmp_path):
    before = wregret_bindings()
    queries = WORKLOADS["queries"]
    quick = Workload("quick", "test", queries.schedule[:2], queries.builders, 50)
    runner, _ = run.measured_run(quick, 1, 1e-9, tmp_path, cli)
    assert runner.attempted == 2 and runner.failed == 0
    assert wregret_bindings() == before
    run.traced_run([make_op("queries", 0, tmp_path)], cli)
    assert wregret_bindings() == before


def test_missing_hook_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.setattr(
        tracer, "HOOKS", tracer.HOOKS + (("lp.gone", "wregret.lp", "no_such_function"),)
    )
    _, metrics, trace = run.traced_run([make_op("represent", 0, tmp_path)], cli)
    assert trace.absent == ["lp.gone"]
    assert metrics["trace.absent_hooks"] == (1, "count") and metrics["lp.calls"][0] > 0


def test_self_time_excludes_children():
    trace = tracer.Tracer()
    trace.spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("lp.exact_feasibility", 1.0, 4.0, 0, 0),
        ("lp.exact_feasibility", 5.0, 6.0, 0, 0),
    ]
    metrics = {name: value for name, (value, _) in trace.metrics().items()}
    assert metrics["cli.self_s"] == 6.0 and metrics["cli.main.s"] == 10.0
    assert metrics["lp.s"] == 4.0 and metrics["lp.calls"] == 2


# ---------------------------------------------------------------- harness


def test_tail_is_a_nearest_rank_percentile():
    assert run.tail([float(i) for i in range(100, 0, -1)], 90) == (90.0, 10)
    assert run.tail([float(i) for i in range(1, 201)], 95) == (190.0, 10)
    assert run.tail([3.0], 75) == (3.0, 0)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
