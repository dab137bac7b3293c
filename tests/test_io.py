"""Artifact formats and scenario-file ingestion.

Every writer goes through atomic temp-file-plus-rename and embeds no
wall clock, so saving the same object twice must reproduce the bytes
exactly; loaders must round-trip what the writers emit.
"""

from pathlib import Path

import numpy as np
import pytest

import semikin
from semikin import io as artifacts
from semikin.core import PhaseSpaceDensity, SpatialGrid
from semikin.correspondence import kinetic_scenario, run_correspondence
from semikin.envelope import EnvelopeField
from semikin.errors import ScenarioError
from semikin.kinetics import RateMatrix
from semikin.schrodinger import (
    FreePotential,
    GaussianBarrier,
    HarmonicPotential,
    LinearPotential,
    WaveFunction,
    init_gaussian_packet,
)

from conftest import gaussian_blob, square_grid

SCENARIO_DIR = Path(semikin.__file__).parent / "scenarios"
ALL_SCENARIOS = sorted(p.name for p in SCENARIO_DIR.glob("*.ini"))


# --------------------------------------------------------------------------
# atomic primitives
# --------------------------------------------------------------------------


class TestAtomicWrite:
    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        artifacts.atomic_write_text(target, "payload\n")
        assert target.read_text() == "payload\n"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.txt"
        artifacts.atomic_write_text(target, "old")
        artifacts.atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_leaves_no_temp_files_behind(self, tmp_path):
        artifacts.atomic_write_bytes(tmp_path / "blob.bin", b"\x00\x01")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blob.bin"]


# --------------------------------------------------------------------------
# artifact dumps
# --------------------------------------------------------------------------


class TestDensityDump:
    def test_csv_layout(self, tmp_path, constants):
        g = square_grid(4, 1.0, constants)
        rho = gaussian_blob(g, 0.0, 0.0, 0.5, 0.5)
        artifacts.save_density(rho, tmp_path / "rho")
        lines = (tmp_path / "rho.csv").read_text().splitlines()
        assert lines[0] == "x0,p0,rho"
        assert len(lines) == 1 + 16
        x0, p0, val = (float(v) for v in lines[1].split(","))
        assert (x0, p0) == (g.x_centers[0], g.p_centers[0])
        assert val == rho.values[0, 0]

    def test_binary_sidecar(self, tmp_path, constants):
        g = square_grid(4, 1.0, constants)
        rho = gaussian_blob(g, 0.0, 0.0, 0.5, 0.5)
        artifacts.save_density(rho, tmp_path / "rho", binary=True)
        raw = np.frombuffer((tmp_path / "rho.bin").read_bytes(), dtype="<f8")
        assert np.array_equal(raw.reshape(4, 4), rho.values)
        import json

        sidecar = json.loads((tmp_path / "rho.json").read_text())
        assert sidecar["planes"] == ["rho"]
        assert sidecar["x0"] == [float(v) for v in g.x_centers]

    def test_double_save_is_byte_identical(self, tmp_path, constants):
        g = square_grid(4, 1.0, constants)
        rho = gaussian_blob(g, 0.1, -0.2, 0.5, 0.5)
        artifacts.save_density(rho, tmp_path / "rho", binary=True)
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        artifacts.save_density(rho, tmp_path / "rho", binary=True)
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert first == second


class TestEnvelopeDump:
    def test_csv_and_planes(self, tmp_path, constants):
        g = square_grid(4, 1.0, constants)
        values = np.arange(16.0).reshape(4, 4) * (1.0 + 2.0j)
        field = EnvelopeField(grid=g, values=values, time=3.0)
        artifacts.save_envelope(field, tmp_path / "env", binary=True)
        lines = (tmp_path / "env.csv").read_text().splitlines()
        assert lines[0] == "x0,p0,re,im"
        raw = np.frombuffer((tmp_path / "env.bin").read_bytes(), dtype="<f8")
        planes = raw.reshape(2, 4, 4)
        assert np.array_equal(planes[0], values.real)
        assert np.array_equal(planes[1], values.imag)


class TestWavefunctionDump:
    def test_csv_and_sidecar(self, tmp_path):
        grid = SpatialGrid(x_min=-64.0, dx=1.0, n=128)
        psi = init_gaussian_packet(grid, 0.0, 0.5, 4.0)
        artifacts.save_wavefunction(psi, tmp_path / "psi", binary=True)
        lines = (tmp_path / "psi.csv").read_text().splitlines()
        assert lines[0] == "x,re,im"
        assert len(lines) == 1 + 128
        import json

        sidecar = json.loads((tmp_path / "psi.json").read_text())
        assert sidecar["n"] == 128 and sidecar["dx"] == 1.0
        assert sidecar["x_min"] == -64.0 and sidecar["planes"] == ["re", "im"]


class TestRateMatrixRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        q = rng.random((5, 5))
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        rates = RateMatrix(values=q, eta=0.37)
        energies = rng.random(5)
        artifacts.save_rate_matrix(rates, energies, 1.0, tmp_path / "rates")
        loaded, loaded_e, hbar = artifacts.load_rate_matrix(tmp_path / "rates")
        # repr() emits shortest round-tripping decimals, so nothing is lost
        assert np.array_equal(loaded.values, q)
        assert np.array_equal(loaded_e, energies)
        assert loaded.eta == 0.37 and hbar == 1.0

    def test_missing_files_raise_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot load rate matrix"):
            artifacts.load_rate_matrix(tmp_path / "absent")


@pytest.fixture(scope="module")
def tiny_report():
    from test_correspondence import tiny_scenario

    return run_correspondence(tiny_scenario())


class TestReportWriters:

    def test_correspondence_report_files(self, tmp_path, tiny_report):
        artifacts.save_correspondence_report(tiny_report, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["metrics.csv", "report.json"]  # no lobes without a barrier
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "t", "x_quantum", "p_quantum", "x_classical", "p_classical",
            "l1", "l2", "mass_envelope", "mass_classical",
        ]
        import json

        report = json.loads((tmp_path / "report.json").read_text())
        assert report["times"] == [0.0, 16.0]
        assert report["scale"]["satisfied"] is True
        assert "barrier" not in report

    def test_report_json_is_idempotent(self, tmp_path, tiny_report):
        artifacts.save_correspondence_report(tiny_report, tmp_path)
        first = (tmp_path / "report.json").read_bytes()
        artifacts.save_correspondence_report(tiny_report, tmp_path)
        assert (tmp_path / "report.json").read_bytes() == first

    def test_kinetic_report_files(self, tmp_path):
        scenario = artifacts.load_scenario(SCENARIO_DIR / "relaxation.ini")
        report = kinetic_scenario(scenario)
        artifacts.save_kinetic_report(report, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["current.csv", "final_density.csv", "histories.csv"]
        lines = (tmp_path / "histories.csv").read_text().splitlines()
        assert lines[0] == "t,mass,entropy"
        assert len(lines) == 1 + 5
        current_header = (tmp_path / "current.csv").read_text().splitlines()[0]
        assert current_header == "t,x,j"


# --------------------------------------------------------------------------
# scenario ingestion
# --------------------------------------------------------------------------


class TestLoadScenario:
    def test_free_packet_fields(self):
        s = artifacts.load_scenario(SCENARIO_DIR / "free_packet.ini")
        assert s.name == "free-packet"
        assert (s.dx, s.n_x, s.window_cells) == (1.0, 4096, 16)
        assert s.grid_p_center == 1.0
        assert isinstance(s.potential, FreePotential)
        assert s.rates is None and s.periodic_x is False
        assert s.sample_times == (512.0, 1024.0, 1536.0, 2048.0, 2496.0)
        (packet,) = s.packets
        assert (packet.x_center, packet.p_center, packet.sigma) == (600.0, 1.0, 50.0)

    def test_potential_kinds(self):
        linear = artifacts.load_scenario(SCENARIO_DIR / "linear_ramp.ini")
        assert isinstance(linear.potential, LinearPotential)
        assert linear.potential.force == 1e-4
        trap = artifacts.load_scenario(SCENARIO_DIR / "harmonic_trap.ini")
        assert isinstance(trap.potential, HarmonicPotential)
        barrier = artifacts.load_scenario(SCENARIO_DIR / "barrier_split.ini")
        assert isinstance(barrier.potential, GaussianBarrier)
        assert (barrier.potential.v0, barrier.potential.x_b) == (0.70, 2048.0)

    def test_multiple_packet_sections(self):
        s = artifacts.load_scenario(SCENARIO_DIR / "two_packet.ini")
        assert len(s.packets) == 2
        assert sorted(p.p_center for p in s.packets) == pytest.approx(
            [-1.1780972450961724, 1.1780972450961724]
        )

    def test_rates_section_builds_golden_rule_matrix(self):
        s = artifacts.load_scenario(SCENARIO_DIR / "relaxation.ini")
        assert s.rates is not None
        assert s.rates.size == 15 and s.rates.eta == 0.2
        assert s.periodic_x is True

    def test_overrides_rewrite_raw_values(self):
        s = artifacts.load_scenario(
            SCENARIO_DIR / "free_packet.ini",
            overrides={"packet.sigma": "40", "time.dt": "0.25"},
        )
        assert s.packets[0].sigma == 40.0
        assert s.dt == 0.25

    def test_override_reaches_a_labelled_packet_section(self):
        s = artifacts.load_scenario(
            SCENARIO_DIR / "two_packet.ini", overrides={"packet.left.sigma": "60"}
        )
        assert [packet.sigma for packet in s.packets] == [50.0, 60.0]

    def test_default_section_override_is_an_unknown_section(self):
        with pytest.raises(ScenarioError, match=r"unknown section \[DEFAULT\]"):
            artifacts.load_scenario(
                SCENARIO_DIR / "two_packet.ini", overrides={"DEFAULT.x": "1"}
            )

    def test_seed_parameter_wins(self):
        s = artifacts.load_scenario(SCENARIO_DIR / "free_packet.ini", seed=99)
        assert s.seed == 99

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="scenario file not found"):
            artifacts.load_scenario(tmp_path / "no_such.ini")

    def test_bad_override_key(self):
        with pytest.raises(ScenarioError, match="section.key"):
            artifacts.load_scenario(
                SCENARIO_DIR / "free_packet.ini", overrides={"sigma": "40"}
            )

    def test_misspelled_section_is_rejected(self, tmp_path):
        bad = tmp_path / "typo.ini"
        text = (SCENARIO_DIR / "harmonic_trap.ini").read_text()
        bad.write_text(text.replace("[potential]", "[potentail]"))
        with pytest.raises(ScenarioError, match=r"unknown section \[potentail\]"):
            artifacts.load_scenario(bad)

    @pytest.mark.parametrize("dotted", ["grid.dxx", "potential.kk", "potential.v0"])
    def test_unknown_key_is_rejected(self, dotted):
        # potential.v0 is a key, but not one of the harmonic kind
        with pytest.raises(ScenarioError, match="unknown key"):
            artifacts.load_scenario(
                SCENARIO_DIR / "harmonic_trap.ini", overrides={dotted: "2"}
            )

    def test_unknown_potential_kind(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            "[grid]\ndx = 1.0\nn_x = 64\nwindow_cells = 16\n"
            "[potential]\nkind = quartic\n"
            "[packet]\nx_center = 32\np_center = 1\nsigma = 4\n"
            "[time]\ndt = 0.1\nsamples = 1.0\n"
        )
        with pytest.raises(ScenarioError, match="unknown potential kind"):
            artifacts.load_scenario(bad)

    def test_unparsable_value(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            "[grid]\ndx = one\nn_x = 64\nwindow_cells = 16\n"
            "[packet]\nx_center = 32\np_center = 1\nsigma = 4\n"
            "[time]\ndt = 0.1\nsamples = 1.0\n"
        )
        with pytest.raises(ScenarioError, match="bad scenario file"):
            artifacts.load_scenario(bad)

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_every_bundled_scenario_parses(self, name):
        s = artifacts.load_scenario(SCENARIO_DIR / name)
        assert s.packets and s.dt > 0.0
