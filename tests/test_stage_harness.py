"""The paired stage table of ``tests/stage_harness.py``: its child row and its rule."""

import json
import types

import stage_harness

CELLS = [
    "load", "load conics", "fan", "build", "marked", "snf", "values", "unmarked", "k_image",
    "quotient", "fresh", "match", "translate", "perturbed", "transport", "remark",
    "remark conics", "chain",
]


def test_a_child_prints_one_row_of_the_cells(capsys):
    stage_harness.child_row(12)
    line, = capsys.readouterr().out.splitlines()
    row = json.loads(line)
    assert list(row) == CELLS
    assert all(isinstance(ms, float) and ms > 0 for ms in row.values())


def test_the_match_cell_reads_null_where_the_commit_has_no_matched(capsys, monkeypatch):
    # The harness reads ``_matched`` off its ``torelli``; the ops it times
    # are imported by name, so they run as they do on such a commit.
    monkeypatch.setattr(stage_harness, "torelli", types.SimpleNamespace())
    stage_harness.child_row(12)
    row = json.loads(capsys.readouterr().out)
    assert row["match"] is None
    assert stage_harness._paired_cell([1.0, None], [1.0, 2.0]) is None


def verdict(before, after):
    return stage_harness.compared(before, after)["verdict"]


def test_the_rule_needs_nine_pairs_of_ten_and_a_gap_past_the_spread():
    before = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    assert verdict(before, [x - 1 for x in before]) == "faster"
    assert verdict(before, [x + 1 for x in before]) == "slower"
    nine = [x - 1 for x in before[:9]] + [before[9] + 1]
    assert verdict(before, nine) == "faster"
    eight = [x - 1 for x in before[:8]] + [x + 1 for x in before[8:]]
    assert verdict(before, eight) == "neither"
    # Every pair won, by less than the commit's interquartile range.
    assert verdict(before, [x - 0.01 for x in before]) == "neither"


def test_a_cell_holds_both_medians_their_ratio_and_the_pairs_won():
    cell = stage_harness.compared([2.0, 4.0, 3.0], [1.0, 5.0, 1.5])
    assert cell["commit_median_ms"] == 3.0 and cell["src_median_ms"] == 1.5
    assert cell["ratio"] == 0.5
    assert (cell["won"], cell["pairs"]) == (2, 3)
