"""Run every bundled scenario through every CLI command and diff two sweeps.

    python3 tools/artifact_sweep.py --src DIR --out ROOT [--against ROOT2]

With ``--src`` it runs ``python3 -m semikin`` from the source tree
``DIR`` (its ``src/`` goes on ``PYTHONPATH``) on each bundled scenario
of ``DIR/src/semikin/scenarios`` with each of the commands in
``COMMANDS``, plus ``manybody-check``, all with ``--dump-binary``.  Run
``<command>`` on ``<stem>.ini`` writes its artifacts to
``ROOT/<stem>/<command>/`` and its exit code, stdout and stderr to
``ROOT/<stem>/<command>.exit``, ``.stdout`` and ``.stderr``
(``manybody-check`` sits directly under ``ROOT``).  Each run starts in
the scenario directory with a relative ``--scenario`` path, so no
message carries the location of the source tree.

With ``--against ROOT2`` it then compares ``ROOT`` with ``ROOT2`` file by
file.  It lists every file present on one side only and every file whose
bytes differ; for a differing CSV it prints the largest relative
difference of each differing column, for a differing ``.bin`` that of
its float64 values, and for a differing JSON file the key path of each
differing value with both values.  The exit status is 0 only when the
two roots hold the same files with the same bytes.  Either flag may be
given alone: ``--out ROOT --against ROOT2`` compares two existing
sweeps.

Standard library and numpy only.  A sweep runs 55 processes one after
the other and takes about 50 s on two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

#: the scenario commands, in the order the CLI lists them
COMMANDS = ("schrodinger", "envelope", "liouville", "kinetics", "compare", "barrier")


def _record(base: Path, result: subprocess.CompletedProcess) -> None:
    base.parent.mkdir(parents=True, exist_ok=True)
    base.with_name(base.name + ".exit").write_text(f"{result.returncode}\n")
    base.with_name(base.name + ".stdout").write_bytes(result.stdout)
    base.with_name(base.name + ".stderr").write_bytes(result.stderr)


def sweep(src: Path, out: Path) -> None:
    """Run the sweep of `src` into the empty or absent directory `out`."""
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"artifact_sweep: {out} is not empty")
    scenarios = src / "src" / "semikin" / "scenarios"
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    env.pop("SEMIKIN_OUTPUT_ROOT", None)
    cli = [sys.executable, "-m", "semikin"]
    for ini in sorted(scenarios.glob("*.ini")):
        for command in COMMANDS:
            args = [command, "--scenario", ini.name, "--dump-binary", "--out", str(out / ini.stem)]
            result = subprocess.run(cli + args, cwd=scenarios, env=env, capture_output=True)
            _record(out / ini.stem / command, result)
    result = subprocess.run(
        cli + ["manybody-check", "--out", str(out)], cwd=scenarios, env=env, capture_output=True
    )
    _record(out / "manybody-check", result)


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _relative(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max(|a|, |b|), 0 where a == b (NaN where the shapes differ)."""
    if a.shape != b.shape:
        return float("nan")
    scale = np.maximum(np.abs(a), np.abs(b))
    gap = np.abs(a - b)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(a == b, 0.0, gap / scale)
    return float(np.max(rel)) if rel.size else 0.0


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _csv_columns(path: Path) -> tuple[list[str], list[tuple[str, ...]]]:
    """The column names and columns of a CSV file.  A first line of
    numbers only is data (``rates.csv`` has no header); its columns are
    then named by their index."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    if rows and all(map(_is_number, rows[0])):
        header = [f"column {j}" for j in range(len(rows[0]))]
    else:
        header, *rows = rows or [[]]
    return header, list(zip(*rows))


def _explain_csv(a: Path, b: Path) -> list[str]:
    header_a, cols_a = _csv_columns(a)
    header_b, cols_b = _csv_columns(b)
    if header_a != header_b or len(cols_a) != len(cols_b):
        return ["    header or shape differs"]
    notes = []
    for name, col_a, col_b in zip(header_a, cols_a, cols_b):
        if col_a == col_b:
            continue
        try:
            rel = _relative(np.array(col_a, dtype=float), np.array(col_b, dtype=float))
            notes.append(f"    {name}: max relative difference {rel:.3e}")
        except ValueError:
            notes.append(f"    {name}: text differs")
    return notes


def _json_notes(a, b, path: str):
    """One note per differing leaf of two parsed JSON values, named by its
    key path; a differing list of numbers gets its max relative difference."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from _json_notes(a.get(key), b.get(key), f"{path}.{key}" if path else key)
        return
    if a == b:
        return
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        try:
            rel = _relative(np.array(a, dtype=float), np.array(b, dtype=float))
            yield f"    {path}: max relative difference {rel:.3e}"
            return
        except (TypeError, ValueError):
            pass
    yield f"    {path}: {a!r} vs {b!r}"


def _explain(a: Path, b: Path) -> list[str]:
    if a.suffix == ".csv":
        return _explain_csv(a, b)
    if a.suffix == ".json":
        return list(_json_notes(json.loads(a.read_text()), json.loads(b.read_text()), ""))
    if a.suffix == ".bin":
        rel = _relative(np.fromfile(a, dtype="<f8"), np.fromfile(b, dtype="<f8"))
        return [f"    max relative difference {rel:.3e}"]
    if a.suffix == ".exit":
        return [f"    exit {a.read_text().strip()} vs {b.read_text().strip()}"]
    return []


def compare(root: Path, other: Path) -> bool:
    """Print how `root` differs from `other`; True when they are identical."""
    mine, theirs = _files(root), _files(other)
    same = True
    for rel in sorted(mine ^ theirs):
        print(f"only in {root if rel in mine else other}: {rel}")
        same = False
    shared = sorted(mine & theirs)
    for rel in shared:
        a, b = root / rel, other / rel
        if a.read_bytes() != b.read_bytes():
            print(f"differs: {rel}")
            for line in _explain(a, b):
                print(line)
            same = False
    print(f"{len(shared)} shared files, {'identical' if same else 'NOT identical'}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, help="source tree to run (holds src/semikin)")
    parser.add_argument("--out", type=Path, required=True, help="sweep root")
    parser.add_argument("--against", type=Path, help="a second sweep root to compare with")
    args = parser.parse_args(argv)
    if args.src is None and args.against is None:
        parser.error("give --src, --against or both")
    out = args.out.resolve()
    if args.src is not None:
        sweep(args.src.resolve(), out)
        codes = [int(p.read_text()) for p in out.rglob("*.exit")]
        print(f"{len(codes)} runs: {codes.count(0)} exit 0, {len(codes) - codes.count(0)} nonzero")
    if args.against is not None:
        return 0 if compare(out, args.against.resolve()) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
