"""Outside-in tracer for the traced benchmark run.

The tracer changes nothing under ``src/``.  It wraps, from the outside, the
functions one ``wregret`` module calls in another: a module-level function
is replaced under every ``wregret.*`` module attribute that names it, so the
wrapper sees calls made through ``from .x import f`` bindings as well; a
method is replaced on its class.  `uninstall` puts every original back.

Spans (name, start, end, parent, op id) are kept in memory and written out
when the run ends.  A hook point that no longer exists is reported as
absent, and the metrics it feeds read 0, so moving internals around does
not break the benchmark.  The untraced run never constructs a Tracer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import re
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute path within the module)
HOOKS = (
    ("cli.main", "wregret.cli", "main"),
    ("lp.exact_feasibility", "wregret.lp", "exact_feasibility"),
    ("axioms.check_REG3_bounded", "wregret.axioms", "check_REG3_bounded"),
    ("axioms.check_REG3prime", "wregret.axioms", "check_REG3prime"),
    ("axioms.check_LP_axioms", "wregret.axioms", "check_LP_axioms"),
    ("axioms.event_system", "wregret.axioms", "event_system"),
    ("axioms.canonical_weight", "wregret.axioms", "canonical_weight"),
    ("axioms.representability", "wregret.axioms", "representability"),
    ("core.prob", "wregret.core", "ProbMeasure.prob"),
    ("core.credal_set", "wregret.core", "WeightedCredalSet.__init__"),
    ("likelihood.regret_likelihood", "wregret.likelihood", "regret_likelihood"),
    ("likelihood.ambiguity_interval", "wregret.likelihood", "ambiguity_interval"),
    ("regret.weighted_regret", "wregret.regret", "weighted_regret"),
    ("regret.absolute_weighted_regret", "wregret.regret", "absolute_weighted_regret"),
    ("regret.expected_regret", "wregret.regret", "expected_regret"),
    ("learning.update_weights", "wregret.learning", "update_weights"),
    ("learning.sequence", "wregret.learning", "update_weights_sequence"),
    ("learning.trajectory", "wregret.learning", "ambiguity_trajectory"),
    ("documents.parse_credal_set", "wregret.documents", "parse_credal_set"),
    ("documents.parse_acts", "wregret.documents", "parse_acts"),
    ("documents.parse_observation_model", "wregret.documents", "parse_observation_model"),
    ("documents.parse_set_function", "wregret.documents", "parse_set_function"),
    ("documents.parse_measure", "wregret.documents", "parse_measure"),
    ("documents.credal_set_doc", "wregret.documents", "credal_set_doc"),
)

_COVER_SEARCH = (
    "axioms.check_REG3_bounded",
    "axioms.check_REG3prime",
    "axioms.check_LP_axioms",
)
_PARSE = tuple(name for name, _, _ in HOOKS if name.startswith("documents.parse_"))

# metric -> (kind, span names); kinds: calls, s (inclusive), self_s.
SPAN_METRICS = {
    "lp.calls": ("calls", ("lp.exact_feasibility",)),
    "lp.s": ("s", ("lp.exact_feasibility",)),
    "axioms.cover_search.s": ("s", _COVER_SEARCH),
    "axioms.event_system.s": ("s", ("axioms.event_system",)),
    "axioms.canonical_weight.s": ("s", ("axioms.canonical_weight",)),
    "axioms.representability.self_s": ("self_s", ("axioms.representability",)),
    "core.prob.calls": ("calls", ("core.prob",)),
    "core.prob.s": ("s", ("core.prob",)),
    "core.credal_set.calls": ("calls", ("core.credal_set",)),
    "likelihood.regret_likelihood.calls": ("calls", ("likelihood.regret_likelihood",)),
    "likelihood.regret_likelihood.s": ("s", ("likelihood.regret_likelihood",)),
    "likelihood.ambiguity_interval.calls": ("calls", ("likelihood.ambiguity_interval",)),
    "likelihood.ambiguity_interval.s": ("s", ("likelihood.ambiguity_interval",)),
    "regret.weighted_regret.calls": ("calls", ("regret.weighted_regret",)),
    "regret.weighted_regret.s": ("s", ("regret.weighted_regret",)),
    "regret.absolute_weighted_regret.s": ("s", ("regret.absolute_weighted_regret",)),
    "regret.expected_regret.calls": ("calls", ("regret.expected_regret",)),
    "learning.update_weights.calls": ("calls", ("learning.update_weights",)),
    "learning.update_weights.s": ("s", ("learning.update_weights",)),
    "learning.sequence.self_s": ("self_s", ("learning.sequence",)),
    "learning.trajectory.self_s": ("self_s", ("learning.trajectory",)),
    "documents.parse.calls": ("calls", _PARSE),
    "documents.parse.s": ("s", _PARSE),
    "documents.serialize.s": ("s", ("documents.credal_set_doc",)),
    "cli.self_s": ("self_s", ("cli.main",)),
    "cli.main.s": ("s", ("cli.main",)),
}

_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# Counted at the hook boundaries rather than read off spans.
COUNTER_METRICS = {
    "lp.infeasible": "count",
    "lp.rows": "count",
    "lp.cells": "count",
    "documents.max_bits": "bits",
}

# Integers and p/q numerators and denominators; not the digits of the
# six-decimal approximations printed next to them.
_INTEGERS = re.compile(r"(?<![\d.])\d+(?![\d.])")
_MISSING = object()


class Tracer:
    """Spans and counters for one traced run; install, run ops, uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack = [-1]
        self._op = -1
        self._undo: list[tuple] = []
        # op id -> distinct witness measures, for ops answered "representable".
        self._witnesses: dict[int, int] = {}

    # ------------------------------------------------------------ hooks

    def install(self) -> None:
        on_result = {
            "lp.exact_feasibility": self._count_lp,
            "axioms.representability": self._count_witness,
        }
        for name, module_name, path in HOOKS:
            try:
                module = importlib.import_module(module_name)
                owner_path, _, attribute = path.rpartition(".")
                owner = module
                for part in owner_path.split(".") if owner_path else ():
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, on_result.get(name))
            if owner is module:
                self._rebind_everywhere(original, wrapper)
            else:
                self._undo.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
                setattr(owner, attribute, wrapper)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "wregret" or module_name.startswith("wregret.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attribute, value))
                    setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._undo.clear()

    def _wrap(self, name: str, fn, on_result):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _count_lp(self, args, kwargs, result) -> None:
        rows = args[0] if args else kwargs["rows"]
        self.counters["lp.rows"] += len(rows)
        self.counters["lp.cells"] += len(rows) * (len(rows[0]) if rows else 0)
        if not result.feasible:
            self.counters["lp.infeasible"] += 1

    def _count_witness(self, args, kwargs, result) -> None:
        if result.representable:
            self._witnesses[self._op] = len(result.witness)

    # -------------------------------------------------------------- ops

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def record_output(self, output: str) -> None:
        """Largest numerator or denominator bit length the op printed."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            bits = max((int(d).bit_length() for d in _INTEGERS.findall(output)), default=0)
        finally:
            sys.set_int_max_str_digits(limit)
        self.counters["documents.max_bits"] = max(self.counters["documents.max_bits"], bits)

    # ---------------------------------------------------------- metrics

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit)."""
        calls: Counter = Counter()
        self_time: defaultdict = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += end - start - child_time[index]
        metrics = {}
        for metric, (kind, names) in SPAN_METRICS.items():
            if kind == "calls":
                value = sum(calls[n] for n in names)
            elif kind == "self_s":
                value = sum(self_time[n] for n in names)
            else:
                value = self._outermost_time(set(names))
            metrics[metric] = (value, _UNITS[kind])
        for metric, unit in COUNTER_METRICS.items():
            metrics[metric] = (self.counters[metric], unit)
        lp_per_op = Counter(
            op for name, _, _, _, op in self.spans if name == "lp.exact_feasibility"
        )
        attempts = sum(lp_per_op[op] for op in self._witnesses)
        witness_yield = sum(self._witnesses.values()) / attempts if attempts else 0.0
        metrics["axioms.witness_yield"] = (witness_yield, "ratio")
        metrics["trace.absent_hooks"] = (len(self.absent), "count")
        return metrics

    def _outermost_time(self, names: set[str]) -> float:
        """Time inside spans of the group, not counting nested group spans."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] not in names:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                total += end - start
        return total

    def write(self, path) -> None:
        """Gzipped JSON lines: the absent hooks, then one array per span
        (name, start, end, parent index, op id)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"absent": self.absent}, handle)
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")
