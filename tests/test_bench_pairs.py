"""The summary rule and the tree check of `tools/bench_pairs.py`, on
fabricated samples and tiny trees.

A gain holds only when the change wins at least nine pairs in ten, ties
counting for neither side, and the medians differ in its favour by more
than the parent's interquartile range; the runner refuses two trees
whose benchmarks differ, and a run that stops the round is kept with
the pairs completed before it.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 1.04, 1.01, 1.03, 1.05, 1.00, 1.02, 1.04, 1.03]


def test_a_clear_gain_holds():
    change = [p - 0.10 for p in PARENT]
    s = bench_pairs.summarize(PARENT, change, "lower", 0.25)
    assert (s["change_wins"], s["change_losses"]) == (10, 0)
    assert s["parent"]["median"] == pytest.approx(1.025)
    assert s["parent_iqr"] == pytest.approx(1.0375 - 1.0125)
    assert s["median_rel_change"] == pytest.approx(-0.10 / 1.025)
    assert s["within_bound"] and s["gain_holds"]


def test_ties_count_for_neither_side_and_eight_wins_are_not_enough():
    change = [p - 0.10 for p in PARENT[:8]] + PARENT[8:]
    s = bench_pairs.summarize(PARENT, change, "lower", 0.25)
    assert (s["change_wins"], s["change_losses"]) == (8, 0)
    assert not s["gain_holds"]


def test_a_gap_inside_the_parent_spread_is_no_gain():
    change = [p - 0.01 for p in PARENT]
    s = bench_pairs.summarize(PARENT, change, "lower", 0.25)
    assert s["change_wins"] == 10 and not s["gain_holds"]


def test_higher_is_better_flips_the_sides():
    change = [p + 0.10 for p in PARENT]
    assert bench_pairs.summarize(PARENT, change, "higher", 0.25)["gain_holds"]
    s = bench_pairs.summarize(PARENT, change, "lower", 0.05)
    assert s["change_losses"] == 10 and not s["within_bound"] and not s["gain_holds"]


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


BENCH = {"BENCHMARK.json": "{}", "perfbench/run.py": "pass\n"}


def test_trees_with_one_benchmark_pass_the_check(tmp_path):
    parent = _tree(tmp_path / "parent", BENCH)
    change = _tree(tmp_path / "change", {**BENCH, "perfbench/__pycache__/run.pyc": "x"})
    bench_pairs.check_trees(parent, change)


@pytest.mark.parametrize(
    "edit",
    [{"BENCHMARK.json": "{ }"}, {"perfbench/run.py": "pass  \n"}, {"perfbench/new.py": ""}],
    ids=["benchmark-json", "harness-file", "extra-file"],
)
def test_trees_with_different_benchmarks_are_refused(tmp_path, edit):
    parent = _tree(tmp_path / "parent", BENCH)
    change = _tree(tmp_path / "change", {**BENCH, **edit})
    with pytest.raises(SystemExit, match=next(iter(edit))):
        bench_pairs.check_trees(parent, change)


#: a harness whose run at seed 2 fails one operation, as perfbench reports it
STOPPING_RUN = """\
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
correct = seed != 2
if not correct:
    print("  FAILED free_packet [plain]: too few speed probe calls")
metrics = {"cpu_s": {"value": 1.0 + seed, "unit": "s"}}
report = {"correct": correct, "attempted": 3, "failed": int(not correct), "metrics": metrics}
print(json.dumps(report))
"""


def test_a_stopped_run_keeps_its_failures_and_the_completed_pairs(tmp_path, capsys):
    spec = {
        "command": [sys.executable, "perfbench/run.py"],
        "run_seconds": 1,
        "end_to_end": [{"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25}],
    }
    files = {"BENCHMARK.json": json.dumps(spec), "perfbench/run.py": STOPPING_RUN}
    parent = _tree(tmp_path / "parent", files)
    change = _tree(tmp_path / "change", files)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "twin",
            "--seed", "1", "--pairs", "3"]
    with pytest.raises(SystemExit) as stopped:
        bench_pairs.main(argv)
    assert stopped.value.code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    # pair 1 runs the parent first, and its seed 2 stops the round
    assert "the parent run of pair 1 (seed 2) stopped" in "\n".join(lines)
    assert "  FAILED free_packet [plain]: too few speed probe calls" in lines
    last = json.loads(lines[-1])
    assert last["pairs_completed"] == 1 and last["seeds"] == [1]
    assert last["runs"] == {"parent": [{"cpu_s": 2.0}], "change": [{"cpu_s": 2.0}]}
    aborted = last["aborted"]
    assert (aborted["side"], aborted["pair"], aborted["seed"]) == ("parent", 1, 2)
    assert aborted["failed_lines"] == ["FAILED free_packet [plain]: too few speed probe calls"]
    assert aborted["report"]["correct"] is False and aborted["exit_code"] == 0
