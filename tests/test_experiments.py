"""Experiment reports: row content, CSV shape, and summary accounting."""

from __future__ import annotations

import pytest

from planrep import experiments
from planrep.constructions import BlockConstants
from planrep.errors import CapExceededError
from planrep.experiments import ExperimentReport, ReportRow, run_experiment
from planrep.sat3 import clause_count


def test_plan_count_experiment_rows():
    report = run_experiment("lemma11", 3)
    assert [(row.case, row.expected, row.observed) for row in report.rows] == [
        (1, "2", "2"),
        (2, "8", "8"),
        (3, "128", "128"),
    ]
    assert report.all_passed


@pytest.mark.parametrize("n", [0, -3])
def test_plan_count_experiment_refuses_no_counter_bits(n):
    with pytest.raises(ValueError, match="need at least one counter bit"):
        run_experiment("lemma11", n)


def test_first_action_experiment_degenerate_width():
    report = run_experiment("lemma17", 2)
    assert len(report.rows) == 1  # m(2) = 0: single trivially satisfiable subset
    assert report.rows[0].expected == "acs" and report.all_passed


def test_first_action_experiment_full_width():
    report = run_experiment("lemma17", 3)
    assert len(report.rows) == 2 ** clause_count(3) == 256
    assert report.passed == 256 and report.failed == 0


def test_verdict_position_experiment_smallest_width():
    report = run_experiment("lemma27", 1)
    assert len(report.rows) == 1
    assert report.rows[0] == ReportRow(0, "ais", "ais", True)
    assert report.notes == {"offset": 8, "stride": 9}


def test_verdict_position_row_count_full_width():
    report = run_experiment("lemma27", 3)
    assert len(report.rows) == 2 ** clause_count(3)
    assert report.all_passed


def test_verdict_positions_past_the_plan_read_missing(monkeypatch):
    # every verdict position shifted by the plan's 2^m(3) = 256 blocks
    real = experiments.block_constants

    def past_the_end(n):
        constants = real(n)
        return BlockConstants(constants.offset + 256 * constants.stride, constants.stride)

    monkeypatch.setattr(experiments, "block_constants", past_the_end)
    report = run_experiment("lemma27", 3)
    assert len(report.rows) == 256
    assert {(row.observed, row.ok) for row in report.rows} == {("missing", False)}


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_experiment("lemma99", 3)


def test_csv_shape_and_summary():
    report = run_experiment("lemma11", 2)
    lines = report.to_csv().splitlines()
    assert lines[0] == "case,expected,observed,pass"
    assert lines[1] == "1,2,2,1"
    assert lines[-1] == "# summary: 2/2 pass"


def test_csv_prints_notes_before_summary():
    lines = run_experiment("lemma27", 2).to_csv().splitlines()
    assert lines[-3:] == ["# note: offset=14", "# note: stride=15", "# summary: 1/1 pass"]


def test_first_action_row_records_a_plan_that_does_not_validate(monkeypatch):
    monkeypatch.setattr(experiments.representations, "c16_csar", lambda n, i, advice: iter(["nope"]))
    report = run_experiment("lemma17", 1)
    assert report.rows and {(row.observed, row.ok) for row in report.rows} == {("invalid@1", False)}


def test_summary_counts_match_rows():
    report = ExperimentReport("lemma11", 1)
    report.rows.append(ReportRow(1, "2", "3", False))
    report.rows.append(ReportRow(2, "8", "8", True))
    assert report.passed == 1 and report.failed == 1 and not report.all_passed
    assert report.to_csv().splitlines()[-1] == "# summary: 1/2 pass"


@pytest.mark.parametrize("name", ["lemma17", "lemma27"])
@pytest.mark.parametrize("n", [4, 5])
def test_exhaustive_experiments_refuse_widths_past_the_cap(name, n, monkeypatch):
    # m(4) = 32 > DEFAULT_SAT_CAP: 2^32 subsets are refused before any work
    def no_work(*args):
        raise AssertionError("work started before the cap check")

    for attr in ("block_constants", "sat_verifier_instance"):
        monkeypatch.setattr(experiments, attr, no_work)
    with pytest.raises(CapExceededError, match="clause-subset index width cap of 24"):
        run_experiment(name, n)
