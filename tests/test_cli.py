"""Command-line front end: exit codes, artifact trees, entry points.

The CLI is a thin shell over the library, so these tests pin the
contract rather than the physics: argument handling, the exit-code
triage (0 ok, 1 configuration, 2 numerical), output locations, and
byte-level idempotence of repeated runs.
"""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semikin
from semikin.cli import OUTPUT_ROOT_ENV, main
from semikin.kinetics import RateMatrix

from conftest import run_probe

SCENARIO_DIR = Path(semikin.__file__).parent / "scenarios"

TINY = """\
[scenario]
name = tiny

[grid]
x_min = 0.0
dx = 1.0
n_x = 1024
window_cells = 16
p_center = 1.0

[potential]
kind = free

[packet]
x_center = 512.0
p_center = 1.0
sigma = 48.0

[time]
dt = 0.1
samples = 0, 64
"""

TINY_RELAX = """\
[scenario]
name = tiny-relax
periodic_x = true

[grid]
x_min = 0.0
dx = 1.0
n_x = 1024
window_cells = 16
n_p = 15
p_center = 0.0

[potential]
kind = free

[packet]
x_center = 512.0
p_center = 1.1780972450961724
sigma = 48.0

[rates]
kind = uniform
coupling = 0.05
eta = 0.2

[time]
dt = 0.1
samples = 0, 8
"""


@pytest.fixture(scope="module")
def tiny_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenarios") / "tiny.ini"
    path.write_text(TINY)
    return path


@pytest.fixture(scope="module")
def relax_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenarios") / "tiny_relax.ini"
    path.write_text(TINY_RELAX)
    return path


class TestExitCodes:
    def test_missing_scenario_is_a_configuration_error(self, tmp_path, capsys):
        rc = main(["compare", "--scenario", str(tmp_path / "no.ini"), "--out", str(tmp_path)])
        assert rc == 1
        assert "scenario file not found" in capsys.readouterr().err

    def test_stability_violation_is_a_numerical_failure(self, tiny_ini, tmp_path, capsys):
        rc = main([
            "compare", "--scenario", str(tiny_ini),
            "--override", "time.dt=5.0", "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "liouville", "kinetics"])
    def test_scale_gate_failure_and_force(self, command, tiny_ini, tmp_path, capsys):
        argv = [
            command, "--scenario", str(tiny_ini),
            "--override", "packet.sigma=40", "--out", str(tmp_path),
        ]
        assert main(argv) == 1
        assert "scale separation" in capsys.readouterr().err
        assert main(argv + ["--force"]) == 0

    @pytest.mark.parametrize("override", ["grid.dxx=2", "potential.kk=2", "time.dt=1e-9"])
    def test_unknown_key_or_endless_run_is_a_configuration_error(
        self, override, tiny_ini, tmp_path, capsys
    ):
        rc = main([
            "compare", "--scenario", str(tiny_ini),
            "--override", override, "--out", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("semikin: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "cut, put",
        [
            ("dx = 1.0\n", ""),
            ("[time]\ndt = 0.1\nsamples = 0, 64\n", ""),
            ("sigma = 48.0\n", ""),
            ("kind = free\n", "kind = gaussian_barrier\nx_b = 700.0\nwidth = 6.0\n"),
        ],
        ids=["grid.dx", "time", "packet.sigma", "potential.v0"],
    )
    def test_missing_required_input_is_a_configuration_error(
        self, cut, put, tmp_path, capsys
    ):
        ini = tmp_path / "incomplete.ini"
        ini.write_text(TINY.replace(cut, put))
        rc = main(["compare", "--scenario", str(ini), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("semikin: bad scenario file") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [[], ["compare"], ["compare", "--bogus"], ["kinetics", "--seed", "3"]],
        ids=["no-command", "no-scenario", "unknown-flag", "seed-on-a-scenario-command"],
    )
    def test_usage_error_is_a_configuration_error(self, argv, tiny_ini, tmp_path, capsys):
        if argv[1:]:
            argv = argv + ["--scenario", str(tiny_ini), "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("semikin: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag", [["--force"], ["--dump-binary"], ["--override", "grid.dx=2"]]
    )
    def test_manybody_check_takes_only_out_and_seed(self, flag, tmp_path, capsys):
        assert main(["manybody-check", *flag, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("semikin: unrecognized arguments") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, ini",
        [("barrier", SCENARIO_DIR / "free_packet.ini"), ("compare", Path("no.ini"))],
        ids=["fails-after-loading", "fails-to-load"],
    )
    def test_a_failed_run_leaves_no_output_directory(self, command, ini, tmp_path, capsys):
        assert main([command, "--scenario", str(ini), "--out", str(tmp_path)]) == 1
        assert not (tmp_path / command).exists()

    @pytest.mark.parametrize(
        "command, name, override, message",
        [
            ("kinetics", "relaxation", "time.dt=inf", "dt must be positive and finite"),
            ("liouville", "harmonic_trap", "time.dt=inf", "dt must be positive and finite"),
            ("kinetics", "relaxation", "time.dt=nan", "dt must be positive and finite"),
            ("compare", "harmonic_trap", "packet.x_center=nan", "must be finite"),
            ("compare", "harmonic_trap", "packet.weight=0", "norm 0.0"),
            ("compare", "harmonic_trap", "packet.weight=inf", "weight inf must be finite"),
            ("compare", "harmonic_trap", "grid.x_min=inf", "x_min must be finite"),
            ("compare", "harmonic_trap", "grid.p_center=nan", "p_center must be finite"),
            ("kinetics", "relaxation", "rates.eta=inf", "broadening must be positive and finite"),
            ("liouville", "free_packet", "packet.sigma=1e300", "packet tail 1.000e+00"),
            ("barrier", "barrier_split", "potential.width=0", "width = 0.0 must be positive"),
            ("compare", "harmonic_trap", "potential.k=nan", "k = nan must be finite"),
            ("kinetics", "relaxation", "rates.coupling=nan", "coupling = nan must be finite"),
            ("barrier", "barrier_split", "potential.width=1e-300", "below dx = 1"),
            ("barrier", "barrier_split", "potential.x_b=1e300", "x_b = 1e+300 lies outside"),
            ("compare", "harmonic_trap", "packet.x_center=1e300", "x_c = 1e+300 lies outside"),
            ("compare", "free_packet", "grid.dx=1e-300", "x_c = 600 lies outside the grid"),
            ("compare", "free_packet", "grid.x_min=1e300", "x_c = 600 lies outside the grid"),
            ("compare", "free_packet", "packet.p_center=3.5", "p_c = 3.5 aliases"),
            ("compare", "free_packet", "grid.p_center=1e300", "p_center = 1e+300 aliases"),
            ("compare", "free_packet", "grid.n_x=2097152", "beyond desk scale"),
            (
                "kinetics", "relaxation", "grid.n_x=2048 grid.window_cells=2048 grid.n_p=1025",
                "1025 momentum cells are beyond desk scale",
            ),
        ],
    )
    def test_a_non_finite_or_empty_input_is_a_configuration_error(
        self, command, name, override, message, tmp_path, capsys
    ):
        # `override` holds one or more space-separated overrides
        argv = [
            command, "--scenario", str(SCENARIO_DIR / f"{name}.ini"), "--out", str(tmp_path),
            *(arg for pair in override.split() for arg in ("--override", pair)),
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("semikin: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / command).exists()

    def test_stiff_collision_rates_fail_fast(self, tmp_path):
        # Λ·step = 6.3e8 Poisson terms per hop; the probe's timeout turns
        # a stepper that grinds through them into a failure
        probe = (
            "import contextlib, io\n"
            "from semikin.cli import main\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    code = main(['kinetics', '--scenario', {str(SCENARIO_DIR / 'relaxation.ini')!r},"
            f" '--override', 'rates.eta=1e-12', '--out', {str(tmp_path)!r}])\n"
            "print(code)\n"
            "print(err.getvalue(), end='')\n"
        )
        code, *err = run_probe(probe)
        assert code == "1"
        assert len(err) == 1 and err[0].startswith("semikin: collision rates too stiff")
        assert not (tmp_path / "kinetics").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", "--help"])
        assert exit_info.value.code == 0
        assert "--scenario" in capsys.readouterr().out

    def test_malformed_override(self, tiny_ini, tmp_path, capsys):
        rc = main(["compare", "--scenario", str(tiny_ini), "--override", "nodot", "--out", str(tmp_path)])
        assert rc == 1
        assert "section.key" in capsys.readouterr().err


class TestArtifacts:
    def test_compare_writes_metrics_and_report(self, tiny_ini, tmp_path):
        assert main(["compare", "--scenario", str(tiny_ini), "--out", str(tmp_path)]) == 0
        outdir = tmp_path / "compare"
        assert sorted(p.name for p in outdir.iterdir()) == ["metrics.csv", "report.json"]
        report = json.loads((outdir / "report.json").read_text())
        assert report["times"] == [0.0, 64.0]
        assert all(v >= 0.0 for v in report["l1"])
        assert report["scale"]["satisfied"] is True

    @pytest.mark.parametrize(
        "command", ["schrodinger", "envelope", "liouville", "kinetics", "compare"]
    )
    def test_repeated_runs_are_byte_identical(self, command, tiny_ini, relax_ini, tmp_path):
        ini = relax_ini if command == "kinetics" else tiny_ini
        argv = [command, "--scenario", str(ini), "--out", str(tmp_path), "--dump-binary"]
        assert main(argv) == 0
        outdir = tmp_path / command
        first = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert first == second

    def test_schrodinger_observables_and_dumps(self, tiny_ini, tmp_path):
        rc = main(["schrodinger", "--scenario", str(tiny_ini), "--out", str(tmp_path), "--dump-binary"])
        assert rc == 0
        outdir = tmp_path / "schrodinger"
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            "observables.csv", "wavefunction.bin", "wavefunction.csv", "wavefunction.json",
        ]
        lines = (outdir / "observables.csv").read_text().splitlines()
        assert lines[0] == "t,norm,x,p,energy"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (2, 5)
        assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-10  # norm conserved
        assert abs(rows[1, 2] - 576.0) < 1e-6  # ballistic drift 512 + 64
        raw = np.frombuffer((outdir / "wavefunction.bin").read_bytes(), dtype="<f8")
        assert raw.size == 2 * 1024

    def test_envelope_tree(self, tiny_ini, tmp_path):
        assert main(["envelope", "--scenario", str(tiny_ini), "--out", str(tmp_path)]) == 0
        outdir = tmp_path / "envelope"
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            "env_000.csv", "env_001.csv", "rho_000.csv", "rho_001.csv",
            "samples.csv", "scale.json",
        ]
        scale = json.loads((outdir / "scale.json").read_text())
        assert scale["satisfied"] is True
        assert scale["carrier_ratio"] < 0.25 and scale["envelope_ratio"] < 0.25

    def test_liouville_masses_stay_put(self, tiny_ini, tmp_path):
        assert main(["liouville", "--scenario", str(tiny_ini), "--out", str(tmp_path)]) == 0
        outdir = tmp_path / "liouville"
        lines = (outdir / "masses.csv").read_text().splitlines()
        assert lines[0] == "t,mass"
        masses = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(masses) == 2
        assert all(abs(m - 1.0 / 16.0) < 1e-9 for m in masses)
        assert (outdir / "rho_000.csv").exists() and (outdir / "rho_001.csv").exists()

    def test_kinetics_tree_and_rate_round_trip(self, relax_ini, tmp_path):
        assert main(["kinetics", "--scenario", str(relax_ini), "--out", str(tmp_path)]) == 0
        outdir = tmp_path / "kinetics"
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            "current.csv", "final_density.csv", "histories.csv", "rates.csv", "rates.json",
        ]
        sidecar = json.loads((outdir / "rates.json").read_text())
        values = np.loadtxt(outdir / "rates.csv", delimiter=",", ndmin=2)
        rates = RateMatrix(values=values, eta=sidecar["eta"])
        assert rates.size == 15 and rates.eta == 0.2 and sidecar["hbar"] == 1.0
        assert len(sidecar["energies"]) == 15

    def test_manybody_check_seed_moves_the_probe_points(self, tmp_path, capsys):
        assert main(["manybody-check", "--out", str(tmp_path / "a")]) == 0
        assert main(["manybody-check", "--seed", "0", "--out", str(tmp_path / "b")]) == 0
        assert main(["manybody-check", "--seed", "3", "--out", str(tmp_path / "c")]) == 0
        tables = [
            (tmp_path / name / "manybody-check" / "residuals.csv").read_bytes()
            for name in "abc"
        ]
        assert tables[0] == tables[1] != tables[2]

    def test_manybody_check_residual_table(self, tmp_path, capsys):
        assert main(["manybody-check", "--out", str(tmp_path)]) == 0
        table = (tmp_path / "manybody-check" / "residuals.csv").read_text()
        assert capsys.readouterr().out == table
        header, *rows = csv.reader(io.StringIO(table))
        assert header == ["check", "detail", "residual"]
        assert all(len(row) == 3 for row in rows), rows
        residuals = [float(row[2]) for row in rows]
        assert len(residuals) == 8
        assert max(residuals) < 1e-8, f"carrier algebra residuals {residuals}"

    def test_output_root_env_var(self, tiny_ini, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "from-env"))
        assert main(["compare", "--scenario", str(tiny_ini)]) == 0
        assert (tmp_path / "from-env" / "compare" / "report.json").is_file()


@pytest.mark.parametrize(
    "prefix",
    [["semikin"], [sys.executable, "-m", "semikin"]],
    ids=["console-script", "python-m"],
)
def test_installed_entry_points(prefix, tiny_ini, tmp_path):
    result = subprocess.run(
        prefix + ["compare", "--scenario", str(tiny_ini), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "compare" / "metrics.csv").is_file()
