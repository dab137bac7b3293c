"""semikin benchmark: closed-loop CLI runs, end-to-end and per layer.

    python3 perfbench/run.py --workload twin --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (it needs ``src/semikin``).  One
client runs one ``semikin <command> --scenario <generated.ini>`` at a
time, each in a fresh Python process, and starts the next only after the
previous one exited and its outputs passed the checks in ``checks.py``.
Inputs come from ``inputs.py`` and depend only on ``--seed``.

``--trace 0`` reports the end-to-end metrics: CPU times of the child,
each divided by the speed factor that ``calibrate.py`` measures.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py``.  The last line of stdout is one
JSON object; everything else, with the environment and the raw samples,
goes to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import calibrate
import checks
import inputs
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: workload -> the (command, bundled scenario) runs of one pass.  Why:
#: twin     the paper's headline quantum/classical comparison; its free
#:          flow is exact in one Verlet step, its harmonic flow is not.
#: barrier  quantum only, non-smooth potential, no Liouville transport:
#:          a classical-branch change must not move it.
#: kinetic  thousands of small Liouville calls inside the collisional
#:          stepper; per-call and import overhead dominate.
WORKLOADS = {
    "twin": (("compare", "free_packet"), ("compare", "harmonic_trap")),
    "barrier": (("barrier", "barrier_split"),),
    "kinetic": (("kinetics", "relaxation"), ("kinetics", "drifting_relaxation")),
}

#: reported metrics: CPU seconds of the child, which leave out the time
#: the VM's vCPU was taken by the host (steal) or the child waited for a
#: CPU, each divided by the speed factor of its span (see calibrate.py)
END_TO_END = {"cpu_s": "s", "setup_s": "s", "solve_cpu_s": "s", "peak_rss_mb": "MB"}
#: printed and kept in the result file: the same spans on the wall clock,
#: and the CPU times before scaling
SHOWN = {
    "wall_s": "s", "setup_wall_s": "s", "solve_s": "s",
    "cpu_raw_s": "s", "setup_raw_s": "s", "solve_cpu_raw_s": "s",
}
#: times that are a median over every process rather than a sum per pass
SETUP = ("setup_s", "setup_wall_s", "setup_raw_s")
#: a run must exit within 180 s; no child may run past this
HARD_LIMIT_S = 170.0
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class Runner:
    """Starts one child at a time and stops it at the hard limit."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ)
        # users run installed, byte-compiled code; the warm-up run writes
        # the bytecode that the timed runs then read
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # one BLAS thread: on a few shared vCPUs a parallel BLAS call waits
        # for its slowest thread, and its CPU time is not the program's work
        self.env.update({name: "1" for name in BLAS_ENV})
        src = str(ROOT / "src")
        rest = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + os.pathsep + rest if rest else src

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def run(self, command: str, scenario: Path, mode: str | None = None) -> dict:
        outroot = self.workdir / "out"
        shutil.rmtree(outroot, ignore_errors=True)
        marks_path = self.workdir / "marks.json"
        marks_path.unlink(missing_ok=True)
        argv = [sys.executable] + (["-X", "importtime"] if mode == "--trace" else [])
        argv += [str(HERE / "child.py"), str(marks_path)] + ([mode] if mode else [])
        argv += [command, "--scenario", str(scenario), "--out", str(outroot)]
        record = {"command": command, "scenario": scenario.stem, "mode": mode or "plain"}
        stdout_path, stderr_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with (
            open(stdout_path, "wb") as out,
            open(stderr_path, "wb") as err,
            calibrate.Probe() as probe,
        ):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                record["code"] = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
        try:
            marks = json.loads(marks_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            tail = stderr.strip().splitlines()[-1:] or [""]
            record["problems"] = [f"exit code {record['code']}, no marks: {tail[0]}"]
            return record
        record["wall_s"] = end - start
        record["setup_wall_s"] = marks["loaded"] - start
        record["solve_s"] = marks["written"] - marks["loaded"]
        record["cpu_raw_s"] = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        record["setup_raw_s"] = marks["loaded_cpu"]
        record["solve_cpu_raw_s"] = marks["written_cpu"] - marks["loaded_cpu"]
        record["peak_rss_mb"] = marks["peak_rss_kb"] / 1024.0
        whole = probe.factor(start, end)
        spans = {
            "cpu_s": ("cpu_raw_s", start, end),
            "setup_s": ("setup_raw_s", start, marks["loaded"]),
            "solve_cpu_s": ("solve_cpu_raw_s", marks["loaded"], marks["written"]),
        }
        if whole is not None:
            record["speed_factor"] = whole
            record["probe_calls"] = len(probe.times)
            for name, (raw, lo, hi) in spans.items():
                record[name] = record[raw] / (probe.factor(lo, hi) or whole)
        if record["code"] != 0:
            record["problems"] = [f"exit code {record['code']}: {stderr.strip()[-300:]}"]
        elif whole is None:
            record["problems"] = ["too few speed probe calls"]
        elif mode == "--probe":
            record["problems"] = []
        else:
            record["problems"] = checks.check(command, outroot / command, scenario)
        if mode == "--trace":
            record["layers"] = layers.op_layers(marks, record["solve_s"])
            record["imports"] = layers.import_times(stderr)
            record["missing"] = marks["missing"]
        return record


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 11:
        rank = n - 10
        tail = {"p": 100.0 * rank / n, "value": ordered[rank - 1]}
    return {"median": statistics.median(ordered) if n else None, "tail": tail, "n": n}


def describe(s: dict) -> str:
    tail = f" p{s['tail']['p']:.0f} {s['tail']['value']:.4f}" if s["tail"] else ""
    return f"median {s['median']:.4f}{tail} n={s['n']}"


def end_to_end(ops: list[dict], plan) -> tuple[dict, dict]:
    """Workload metrics and their per-scenario summaries.

    Times are per pass: the sum over the workload's scenarios of each
    one's median.  The set-up times are the median over every process.
    peak_rss_mb is the largest per-scenario median.
    """
    good = [op for op in ops if "speed_factor" in op]
    names = [*END_TO_END, *SHOWN]
    detail = {}
    metrics = {k: 0.0 for k in names if k not in SETUP}
    for _, path in plan:
        stem = path.stem
        mine = [op for op in good if op["scenario"] == stem]
        if not mine:
            raise RuntimeError(f"no completed run of {stem}")
        detail[stem] = {k: summary([op[k] for op in mine]) for k in names + ["speed_factor"]}
        for k in metrics:
            if k == "peak_rss_mb":
                metrics[k] = max(metrics[k], detail[stem][k]["median"])
            else:
                metrics[k] += detail[stem][k]["median"]
    detail["all runs"] = {k: summary([op[k] for op in good]) for k in SETUP}
    for k in SETUP:
        metrics[k] = detail["all runs"][k]["median"]
    return metrics, detail


def measure(runner: Runner, plan, seconds: float, traced: bool):
    """Closed loop for `seconds`; returns (ops, passes).

    Once every scenario has a sample (traced: once there is a plain and a
    traced pass), no run or pass starts that is expected to end past the
    deadline.  Traced mode alternates whole plain and traced passes.
    """
    first_command, first_path = plan[0]
    runner.run(first_command, first_path, "--probe")  # warm-up: bytecode and file caches
    calibrate.warm_up()
    deadline = time.monotonic() + seconds
    ops, passes, last = [], [], {}

    def run(command, path, mode):
        op = runner.run(command, path, mode)
        ops.append(op)
        last[(path, mode)] = op.get("wall_s", 0.0)
        return op

    if traced:
        for mode in itertools.cycle((None, "--trace")):
            expected = sum(last.get((path, mode), 0.0) for _, path in plan)
            if len(passes) >= 2 and time.monotonic() + expected > deadline:
                break
            passes.append((mode, [run(command, path, mode) for command, path in plan]))
            if runner.remaining() <= 0.0:
                break
        return ops, passes

    for command, path in itertools.cycle(plan):
        if len(last) == len(plan) and time.monotonic() + last[(path, None)] > deadline:
            break
        run(command, path, None)
        if runner.remaining() <= 0.0:
            break
    return ops, passes


def traced_metrics(passes) -> tuple[dict, dict]:
    """Per-layer values (median over traced passes) and null reasons."""

    def complete(kind):
        return [ops for mode, ops in passes if mode == kind and all("wall_s" in op for op in ops)]

    traced, plain = complete("--trace"), complete(None)
    if not traced or not plain:
        raise RuntimeError("no complete plain and traced pass")
    per_pass = [
        layers.pass_layers([op["layers"] for op in ops], [op["imports"] for op in ops])
        for ops in traced
    ]
    values = {}
    for name in layers.METRICS:
        found = [p[name] for p in per_pass if name in p]
        values[name] = statistics.median(found) if found else None
    wall = lambda group: statistics.median(sum(op["wall_s"] for op in ops) for ops in group)
    values["trace.overhead_s"] = wall(traced) - wall(plain)
    missing = {}
    for ops in traced:
        for op in ops:
            missing.update(op["missing"])
    reasons = layers.null_reasons(missing, [op["imports"] for ops in traced for op in ops])
    for name in reasons:
        values[name] = None
    return values, {"reasons": reasons, "missing_targets": missing}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
            cpu = next(models, None)
    except OSError:
        pass

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "python_env": {k: v for k, v in os.environ.items() if k.startswith("PYTHON")},
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / inputs.SCENARIO_DIR).is_dir():
        print(f"perfbench: no semikin source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = WORK / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = tuple(
        (command, inputs.generate(stem, args.seed, ROOT, workdir / "inputs"))
        for command, stem in WORKLOADS[args.workload]
    )
    # the children and the speed probe share one CPU (see calibrate.py)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = Runner(workdir, started)
    ops, passes = measure(runner, plan, args.seconds, bool(args.trace))

    failed = [op for op in ops if op["problems"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "shifts_windows": {p.stem: inputs.shift_windows(p.stem, args.seed) for _, p in plan},
        "environment": environment(),
        "attempted": len(ops),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(ops),
        "failures": [{k: op.get(k) for k in ("scenario", "mode", "problems")} for op in failed],
    }
    try:
        e2e, detail = end_to_end([op for op in ops if op["mode"] == "plain"], plan)
        if args.trace:
            values, notes = traced_metrics(passes)
    except RuntimeError as exc:
        print(f"perfbench: {exc}; failures: {result['failures']}", file=sys.stderr)
        return 1
    result["end_to_end"] = e2e
    result["scenarios"] = detail
    if args.trace:
        result["per_layer"] = values
        result.update(notes)
        units = {name: spec[0] for name, spec in layers.METRICS.items()}
    else:
        values = e2e
        units = END_TO_END
    result["samples"] = [{k: v for k, v in op.items() if k != "layers"} for op in ops]

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f" shifts={result['shifts_windows']}")
    for name, unit in {**END_TO_END, **SHOWN}.items():
        parts = ", ".join(f"{stem} {describe(d[name])}" for stem, d in detail.items() if name in d)
        print(f"  {name:<15} {e2e[name]:10.4f} {unit:<5} ({parts})")
    ratio = result["failed_ratio"]
    print(f"  {'failed_ratio':<15} {ratio:10.4f} ratio ({len(failed)}/{len(ops)} failed)")
    for failure in result["failures"]:
        problems = "; ".join(failure["problems"])
        print(f"  FAILED {failure['scenario']} [{failure['mode']}]: {problems}")
    if args.trace:
        for name, value in values.items():
            shown = "null (" + result["reasons"][name] + ")" if value is None else f"{value:.6g}"
            print(f"  {name:<38} {shown} {units[name]}")
    print(f"  result file: {out_path.relative_to(ROOT)}")
    metrics = {
        name: {"value": 0.0 if values[name] is None else values[name], "unit": units[name]}
        for name in units
    }
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
