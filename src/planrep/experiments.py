"""Reproducible verification experiments over the built-in instance
families, reported as fixed-header CSV.

Each experiment compares a computed per-case observation against an
independently derived expectation:

* ``lemma11``: optimal-plan counts of the choice-counter family against
  the doubling law 2^(2^k - 1), one row per bit count k = 1..n.
* ``lemma17``: for every clause subset at width n, the streamed verifier
  plan must validate and its first action must match the brute-force
  satisfiability verdict.
* ``lemma27``: the all-instances sweep plan, taken once into a list up
  to the last subset's verdict position, read by index at the verdict
  position stride*i + offset for every subset i ("missing" past the
  plan's end) against the brute-force verdict.  At n <= 3,
  ``block_constants`` first calibrates the constants with a second,
  kernel-free simulation up to position offset + stride.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import oracles, representations, sat3
from .constructions import (
    block_constants,
    indexed_plans_instance,
    sat_verifier_instance,
)
from .errors import CapExceededError
from .model import validate_plan

@dataclass(frozen=True)
class ReportRow:
    case: int
    expected: str
    observed: str
    ok: bool


@dataclass
class ExperimentReport:
    name: str
    n: int
    rows: list[ReportRow] = field(default_factory=list)
    notes: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return sum(1 for row in self.rows if row.ok)

    @property
    def failed(self) -> int:
        return len(self.rows) - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_csv(self) -> str:
        lines = ["case,expected,observed,pass"]
        for row in self.rows:
            lines.append(f"{row.case},{row.expected},{row.observed},{int(row.ok)}")
        lines.extend(f"# note: {key}={value}" for key, value in self.notes.items())
        lines.append(f"# summary: {self.passed}/{len(self.rows)} pass")
        return "\n".join(lines) + "\n"


def run_experiment(name: str, n: int) -> ExperimentReport:
    if name not in _RUNNERS:
        raise ValueError(f"unknown experiment: {name} (expected one of {EXPERIMENTS})")
    return _RUNNERS[name](n)


def _subset_range(n: int) -> range:
    """Every clause-subset index at width n; refuses m(n) > DEFAULT_SAT_CAP (n >= 4)."""
    m = sat3.clause_count(n)
    if m > sat3.DEFAULT_SAT_CAP:
        raise CapExceededError(sat3.DEFAULT_SAT_CAP, "clause-subset index width")
    return range(1 << m)


def _plan_count_experiment(n: int) -> ExperimentReport:
    if n < 1:
        raise ValueError("need at least one counter bit")
    report = ExperimentReport("lemma11", n)
    for k in range(1, n + 1):
        expected = 1 << ((1 << k) - 1)
        observed = oracles.count_optimal_plans(indexed_plans_instance(k))
        cells = map(oracles.format_count, (expected, observed))
        report.rows.append(ReportRow(k, *cells, observed == expected))
    return report


def _first_action_experiment(n: int) -> ExperimentReport:
    report = ExperimentReport("lemma17", n)
    for i in _subset_range(n):
        instance = sat_verifier_instance(n, i)
        advice = representations.compute_advice(n, i)
        plan = list(representations.c16_csar(n, i, advice))
        trace = validate_plan(instance, plan)
        expected = "acs" if advice.sat else "acu"
        if not trace.valid:
            observed = f"invalid@{trace.failure_step}"
        else:
            observed = plan[0]
        report.rows.append(ReportRow(i, expected, observed, trace.valid and observed == expected))
    return report


def _verdict_position_experiment(n: int) -> ExperimentReport:
    subsets = _subset_range(n)
    report = ExperimentReport("lemma27", n)
    constants = block_constants(n)  # cross-checks formula vs simulation for small n
    plan = representations.c26_csar(n).take(constants.stride * (len(subsets) - 1) + constants.offset)
    for i in subsets:
        sat, _ = sat3.is_satisfiable(sat3.instance_from_index(n, i))
        expected = "ais" if sat else "aiu"
        position = constants.stride * i + constants.offset
        got = plan[position - 1] if position <= len(plan) else "missing"
        report.rows.append(ReportRow(i, expected, got, got == expected))
    report.notes["offset"] = constants.offset
    report.notes["stride"] = constants.stride
    return report


# Each experiment's runner, keyed by the name the CLI and run_experiment take
_RUNNERS = {
    "lemma11": _plan_count_experiment,
    "lemma17": _first_action_experiment,
    "lemma27": _verdict_position_experiment,
}
EXPERIMENTS = tuple(_RUNNERS)
