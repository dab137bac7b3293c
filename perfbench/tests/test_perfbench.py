"""Tests of the benchmark's own parts: input generator and output checks.

    python3 -m pytest perfbench/tests -q

Run from the root of a source checkout; the output-check tests run three
real CLI invocations in-process (about 10 s).
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from semikin import cli  # noqa: E402
from semikin.envelope import scale_check  # noqa: E402
from semikin.io import load_scenario  # noqa: E402

STEMS = sorted(inputs.MAX_SHIFT_WINDOWS)


def bundled(stem: str) -> Path:
    return ROOT / inputs.SCENARIO_DIR / f"{stem}.ini"


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in layers.METRICS.items()
    }


def test_every_workload_scenario_has_a_shift_limit():
    used = {stem for plan in run.WORKLOADS.values() for _, stem in plan}
    assert used == set(STEMS)


def test_the_speed_probe_times_a_fixed_kernel():
    assert calibrate.kernel() == calibrate.kernel()
    with calibrate.Probe() as probe:
        time.sleep(0.4)
    assert len(probe.times) >= calibrate.MIN_CALLS
    first, last = probe.starts[0], probe.starts[-1]
    assert probe.factor(first, last) == pytest.approx(
        statistics.fmean(probe.times) / calibrate.REFERENCE_S
    )
    assert probe.factor(last + 1.0, last + 2.0) is None


@pytest.mark.parametrize("stem", STEMS)
def test_seed_zero_reproduces_the_bundled_file(stem, tmp_path):
    assert inputs.generate(stem, 0, ROOT, tmp_path).read_bytes() == bundled(stem).read_bytes()


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize("stem", STEMS)
def test_other_seeds_move_packets_by_whole_windows(stem, seed, tmp_path):
    original = load_scenario(bundled(stem))
    path = inputs.generate(stem, seed, ROOT, tmp_path)
    moved = load_scenario(path)
    shift = inputs.shift_windows(stem, seed)
    assert 0 < abs(shift) <= inputs.MAX_SHIFT_WINDOWS[stem]
    width = original.dx * original.window_cells
    for before, after in zip(original.packets, moved.packets, strict=True):
        assert after.x_center - before.x_center == shift * width
    assert (moved.x_min, moved.dx, moved.n_x, moved.n_p, moved.dt, moved.sample_times) == (
        original.x_min, original.dx, original.n_x, original.n_p, original.dt, original.sample_times
    )
    changed = [
        new for old, new in zip(bundled(stem).read_text().splitlines(), path.read_text().splitlines())
        if old != new
    ]
    assert changed and all(line.lstrip().startswith("x_center") for line in changed)
    assert scale_check(moved.initial_wavefunction(), moved.phase_grid()).satisfied


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("stem", STEMS)
def test_largest_shift_stays_inside_the_edge_tail_limit(stem, sign, tmp_path):
    text = bundled(stem).read_text()
    shift = sign * inputs.MAX_SHIFT_WINDOWS[stem] * inputs.window_width(text)
    path = tmp_path / f"{stem}.ini"
    path.write_text(inputs.generate_text(text, shift))
    scenario = load_scenario(path)
    scenario.initial_wavefunction()  # raises ScenarioError past the edge-tail limit
    assert scale_check(scenario.initial_wavefunction(), scenario.phase_grid()).satisfied


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------

TRACE_WITH_A_TARGET_GONE = """
import json, sys
import semikin.cli, semikin.correspondence, semikin.envelope, semikin.schrodinger
from layers import Recorder

del semikin.envelope.scale_check
real_evolve = semikin.schrodinger.evolve
renamed = lambda psi, potential, step, n: real_evolve(psi, potential, step, n)
semikin.schrodinger.evolve = semikin.correspondence.evolve = renamed
recorder = Recorder()
recorder.install()
code = semikin.cli.main(["barrier", "--scenario", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps(dict(recorder.dump(), code=code)))
"""


def test_a_lost_target_or_signature_gives_null_metrics_not_a_crash(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", TRACE_WITH_A_TARGET_GONE, str(bundled("barrier_split")),
         str(tmp_path)],
        cwd=BENCH, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)])),
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(done.stdout.splitlines()[-1])
    assert trace["code"] == 0
    assert set(trace["missing"]) == {
        "semikin.envelope.scale_check", "semikin.schrodinger.evolve arguments"
    }
    values = layers.pass_layers([layers.op_layers(trace, 1.0)], [])
    assert values["schrodinger.evolve.calls"] == 4
    reasons = layers.null_reasons(trace["missing"], [])
    assert set(reasons) == {
        "envelope.scale_check.calls", "envelope.scale_check.busy_s",
        "schrodinger.steps", "schrodinger.us_per_step", "schrodinger.state_bytes",
    }


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    runs = {}
    for command, stem in (
        ("compare", "harmonic_trap"),
        ("barrier", "barrier_split"),
        ("kinetics", "relaxation"),
    ):
        out = root / stem
        assert cli.main([command, "--scenario", str(bundled(stem)), "--out", str(out)]) == 0
        runs[command] = (out / command, bundled(stem))
    return runs


def test_real_outputs_pass(outputs):
    for command, (outdir, scenario) in outputs.items():
        assert checks.check(command, outdir, scenario) == [], command


def corrupt_report(change):
    def mutate(outdir):
        report = json.loads((outdir / "report.json").read_text())
        change(report)
        (outdir / "report.json").write_text(json.dumps(report))

    return mutate


def corrupt_csv(name, row, column, change):
    def mutate(outdir):
        lines = (outdir / name).read_text().splitlines()
        cells = lines[row].split(",")
        cells[column] = repr(change(float(cells[column])))
        lines[row] = ",".join(cells)
        (outdir / name).write_text("\n".join(lines) + "\n")

    return mutate


def shift_lobe(report):
    lobe = report["barrier"]["lobes"][0]
    lobe["x_measured"][-1] += 10.0  # 0.2 sigma = 9.6


CORRUPTIONS = {
    "compare": {
        "non-finite l2": corrupt_report(lambda r: r["l2"].__setitem__(0, float("nan"))),
        "classical mass rises": corrupt_report(
            lambda r: r["mass_classical"].__setitem__(1, r["mass_classical"][0] * 1.001)
        ),
        "x center off": corrupt_report(
            lambda r: r["x_classical"].__setitem__(0, r["x_classical"][0] + 0.1)
        ),
        "p center off": corrupt_report(
            lambda r: r["p_classical"].__setitem__(1, r["p_classical"][1] + 1e-3)
        ),
        "no recurrence at T": corrupt_report(lambda r: r["l1"].__setitem__(1, 0.03)),
        "non-finite csv": corrupt_csv("metrics.csv", 1, 1, lambda v: float("inf")),
    },
    "barrier": {
        "T + R != 1": corrupt_report(
            lambda r: r["barrier"].__setitem__("reflection", r["barrier"]["reflection"] + 1e-9)
        ),
        "T out of range": corrupt_report(
            lambda r: r["barrier"].update(transmission=0.9, reflection=0.1)
        ),
        "inseparable": corrupt_report(lambda r: r["barrier"].__setitem__("separable", False)),
        "lobe missing": corrupt_report(lambda r: r["barrier"]["lobes"].pop()),
        "lobe off track": corrupt_report(shift_lobe),
    },
    "kinetics": {
        "mass drift": corrupt_csv("histories.csv", 3, 1, lambda v: v * (1.0 + 1e-5)),
        "entropy falls": corrupt_csv("histories.csv", 4, 2, lambda v: v - 0.1),
        "non-finite current": corrupt_csv("current.csv", 5, 2, lambda v: float("nan")),
    },
}


@pytest.mark.parametrize(
    "command, name", [(c, n) for c, cases in CORRUPTIONS.items() for n in cases]
)
def test_each_check_rejects_a_corrupted_report(outputs, tmp_path, command, name):
    source, scenario = outputs[command]
    outdir = tmp_path / command
    shutil.copytree(source, outdir)
    CORRUPTIONS[command][name](outdir)
    assert checks.check(command, outdir, scenario), name


@pytest.mark.parametrize("command", sorted(CORRUPTIONS))
def test_missing_artifacts_are_rejected(outputs, tmp_path, command):
    _, scenario = outputs[command]
    assert checks.check(command, tmp_path, scenario)


def test_without_a_source_tree_the_benchmark_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "barrier", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
