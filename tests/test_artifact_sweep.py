"""The comparison half of `tools/artifact_sweep.py`, on tiny trees, and
its command list against the CLI's.

`compare(root, other)` is True only when both trees hold the same files
with the same bytes; otherwise it names each file present on one side
only, and each differing file with the columns that differ.
"""

import importlib.util
from pathlib import Path

import pytest

from semikin import cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "artifact_sweep.py"
_SPEC = importlib.util.spec_from_file_location("artifact_sweep", _PATH)
artifact_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_sweep)

FILES = {
    "run/metrics.csv": "t,l1\n0.0,0.25\n16.0,0.5\n",
    # headerless, like rates.csv
    "run/rates.csv": "-1.0,1.0\n2.0,-2.0\n",
    "run.exit": "0\n",
    "run/final_density.json": '{\n  "dx": 16.0,\n  "time": 63.9999999999985\n}\n',
}


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_the_sweep_runs_every_scenario_command():
    # a command missing here would escape the byte-identity sweep
    assert artifact_sweep.COMMANDS == tuple(cli._SCENARIO_COMMANDS)


def test_identical_trees_compare_equal(tmp_path, capsys):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", FILES)
    assert artifact_sweep.compare(a, b) is True
    assert capsys.readouterr().out == "4 shared files, identical\n"


@pytest.mark.parametrize(
    "name, text, note",
    [
        ("run/metrics.csv", "t,l1\n0.0,0.25\n16.0,0.4\n", "    l1: max relative difference 2.000e-01"),
        # the first line of a headerless file is a row, not a header
        ("run/rates.csv", "-1.0,1.5\n2.0,-2.0\n", "    column 1: max relative difference 3.333e-01"),
        # a JSON file names the key path of each differing value
        (
            "run/final_density.json",
            '{\n  "dx": 16.0,\n  "time": 64.0\n}\n',
            "    time: 63.9999999999985 vs 64.0",
        ),
    ],
    ids=["header", "headerless", "json"],
)
def test_a_differing_byte_names_the_file_and_column(name, text, note, tmp_path, capsys):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", {**FILES, name: text})
    assert artifact_sweep.compare(a, b) is False
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"differs: {name}", note, "4 shared files, NOT identical"]


def test_a_file_on_one_side_only_differs(tmp_path, capsys):
    a = _tree(tmp_path / "a", FILES)
    b = _tree(tmp_path / "b", {**FILES, "run/extra.csv": "t\n1.0\n"})
    assert artifact_sweep.compare(a, b) is False
    out = capsys.readouterr().out
    assert f"only in {b}: run/extra.csv" in out
    assert out.endswith("4 shared files, NOT identical\n")
