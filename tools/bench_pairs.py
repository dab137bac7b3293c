"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME --seed S [--pairs 10]

Each side runs the command of its tree's ``BENCHMARK.json`` from the root
of that tree, with ``--workload NAME --seed S+k --seconds <run_seconds>
--trace 0`` in pair k.  Odd pairs run the parent first, even pairs the
change.  It refuses to start unless both trees hold byte-identical
``BENCHMARK.json`` and ``perfbench/`` (``__pycache__`` and hidden
directories aside), and it stops at the first run that exits non-zero or
reports ``"correct": false``.

For each end-to-end metric it prints each side's median and quartiles,
the change's wins (ties count for neither side), its median change
against the metric's bound, and whether a gain may be claimed: the
change wins at least nine tenths of the pairs, and the medians differ in
its favour by more than the parent's interquartile range.  The last line
of stdout is one JSON object with every sample, for a ``BENCH_<n>.json``.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path


def _benchmark_files(tree: Path) -> dict[str, bytes]:
    """``BENCHMARK.json`` and every file under ``perfbench/``, by relative path."""
    files = {"BENCHMARK.json": (tree / "BENCHMARK.json").read_bytes()}
    for path in sorted((tree / "perfbench").rglob("*")):
        rel = path.relative_to(tree)
        if path.is_file() and not any(
            part == "__pycache__" or part.startswith(".") for part in rel.parts
        ):
            files[rel.as_posix()] = path.read_bytes()
    return files


def check_trees(parent: Path, change: Path) -> None:
    """Raise SystemExit unless both trees carry the same benchmark."""
    a, b = _benchmark_files(parent), _benchmark_files(change)
    differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    if differ:
        raise SystemExit(f"bench_pairs: the trees' benchmarks differ in {', '.join(differ)}")


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The pairwise comparison of one metric; run k of each side is pair k."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    sides = {}
    for name, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        sides[name] = {"median": median, "q1": q1, "q3": q3, "runs": runs}
    gain = sign * (sides["parent"]["median"] - sides["change"]["median"])
    parent_iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    return {
        **sides,
        "change_wins": wins,
        "change_losses": losses,
        "parent_iqr": parent_iqr,
        "median_rel_change": -sign * gain / sides["parent"]["median"],
        "within_bound": gain >= -bound * sides["parent"]["median"],
        "gain_holds": 10 * wins >= 9 * len(parent) and gain > parent_iqr,
    }


def _run(tree: Path, command: list[str]) -> dict:
    result = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise SystemExit(
            f"bench_pairs: {' '.join(command)} in {tree} exited {result.returncode}\n"
            f"{result.stderr[-2000:]}"
        )
    report = json.loads(lines[-1])
    if not report.get("correct"):
        raise SystemExit(f"bench_pairs: {' '.join(command)} in {tree} reported {lines[-1]}")
    return report


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    check_trees(args.parent, args.change)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    reports = {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.seed + k
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        for side in ("parent", "change") if k % 2 else ("change", "parent"):
            reports[side].append(_run(trees[side], command))
            value = {m: v["value"] for m, v in reports[side][-1]["metrics"].items()}
            print(f"pair {k} seed {seed} {side}: {json.dumps(value)}", flush=True)
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        runs = {
            side: [r["metrics"][name]["value"] for r in reports[side]] for side in reports
        }
        summary = summarize(runs["parent"], runs["change"], metric["better"], metric["bound"])
        metrics[name] = {"unit": metric["unit"], "bound": metric["bound"], **summary}
        p, c = summary["parent"], summary["change"]
        print(
            f"{name:12s} parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
            f"  change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}] {metric['unit']}"
            f"  wins {summary['change_wins']}/{args.pairs}"
            f"  median {summary['median_rel_change']:+.2%}"
            f"  within bound {summary['within_bound']}  gain holds {summary['gain_holds']}"
        )
    print(json.dumps({
        "workload": args.workload,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "attempted": {s: [r["attempted"] for r in reports[s]] for s in reports},
        "failed": {s: [r["failed"] for r in reports[s]] for s in reports},
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
