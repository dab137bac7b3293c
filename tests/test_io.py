"""Artifact formats and scenario-file ingestion.

Every writer goes through atomic temp-file-plus-rename and embeds no
wall clock, so saving the same object twice must reproduce the bytes
exactly; loaders must round-trip what the writers emit.
"""

import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import semikin
from semikin import io as artifacts
from semikin.core import PhaseSpaceDensity, PhaseSpaceGrid, SpatialGrid
from semikin.correspondence import (
    BarrierSummary,
    CorrespondenceReport,
    LobeTrack,
    barrier_split_experiment,
    kinetic_scenario,
    run_correspondence,
)
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


class TestCsvText:
    """The one text rule of every CSV: each number is repr(float(v)), the
    shortest decimal that round-trips, and strings pass through."""

    def test_integer_valued_numbers_print_as_floats(self, tmp_path):
        # samples.csv numbers its samples 0.0, 1.0, ...
        artifacts.write_csv(
            tmp_path / "t.csv", {"index": range(3), "n": [np.int64(7), 8, True]}
        )
        assert (tmp_path / "t.csv").read_text() == "index,n\n0.0,7.0\n1.0,8.0\n2.0,1.0\n"

    def test_numbers_are_the_repr_of_their_float(self, tmp_path):
        values = [0.1, np.float64(1.0) / 3.0, -0.0, np.float64(5e-324), 1e300, np.float32(0.1)]
        artifacts.write_csv(tmp_path / "t.csv", {"v": values, "a": np.array(values, dtype=float)})
        lines = (tmp_path / "t.csv").read_text().splitlines()
        expected = [repr(float(v)) for v in values]
        assert expected[2:4] == ["-0.0", "5e-324"]
        assert lines == ["v,a", *(f"{v},{v}" for v in expected)]

    def test_labels_pass_through(self, tmp_path):
        artifacts.write_csv(
            tmp_path / "t.csv", {"label": ["reflected", "1.50"], "t": np.array([0.5, 2.0])}
        )
        assert (tmp_path / "t.csv").read_text() == "label,t\nreflected,0.5\n1.50,2.0\n"

    def test_long_form_axes_are_the_ij_mesh(self, tmp_path, constants):
        g = square_grid(4, 1.0, constants)
        g = dataclasses.replace(g, p_centers=g.p_centers[:3])
        values = np.arange(12.0).reshape(4, 3) / 7.0
        artifacts.save_density(PhaseSpaceDensity(grid=g, values=values), tmp_path / "rho")
        lines = (tmp_path / "rho.csv").read_text().splitlines()
        assert lines[0] == "x0,p0,rho"
        assert lines[1:] == [
            f"{float(x)!r},{float(p)!r},{float(values[i, j])!r}"
            for i, x in enumerate(g.x_centers)
            for j, p in enumerate(g.p_centers)
        ]

    def test_a_barrier_report_with_no_lobe_keeps_the_lobes_header(
        self, tmp_path, barrier_report
    ):
        summary = dataclasses.replace(barrier_report.barrier, lobes=())
        report = dataclasses.replace(barrier_report, barrier=summary)
        artifacts.save_correspondence_report(report, tmp_path)
        text = (tmp_path / "lobes.csv").read_text()
        assert text == "label,t,x_measured,p_measured,x_predicted,p_predicted\n"


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
        loaded = np.loadtxt(tmp_path / "rates.csv", delimiter=",", ndmin=2)
        sidecar = json.loads((tmp_path / "rates.json").read_text())
        # repr() emits shortest round-tripping decimals, so nothing is lost
        assert np.array_equal(loaded, q)
        assert np.array_equal(sidecar["energies"], energies)
        assert sidecar["eta"] == 0.37 and sidecar["hbar"] == 1.0


@pytest.fixture(scope="module")
def tiny_report():
    from test_correspondence import tiny_scenario

    return run_correspondence(tiny_scenario())


@pytest.fixture(scope="module")
def barrier_report():
    scenario = artifacts.load_scenario(
        SCENARIO_DIR / "barrier_split.ini", overrides={"time.samples": "0, 16"}
    )
    return barrier_split_experiment(scenario)


def _names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


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
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["times"] == [0.0, 16.0]
        assert report["scale"]["satisfied"] is True
        assert set(report) == _names(CorrespondenceReport) - {"barrier"}

    def test_barrier_report_files(self, tmp_path, barrier_report):
        artifacts.save_correspondence_report(barrier_report, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["lobes.csv", "metrics.csv", "report.json"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == _names(CorrespondenceReport)
        barrier = report["barrier"]
        assert set(barrier) == _names(BarrierSummary)
        assert isinstance(barrier["separable"], bool)
        lobes = barrier_report.barrier.lobes
        assert lobes and [set(lobe) for lobe in barrier["lobes"]] == [_names(LobeTrack)] * len(lobes)
        lines = (tmp_path / "lobes.csv").read_text().splitlines()
        assert lines[0] == "label,t,x_measured,p_measured,x_predicted,p_predicted"
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == [lobe.label for lobe in lobes for _ in lobe.times]

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


def _table_keys() -> set:
    """(section, kind, key) for every key of the loader's table; kind is
    None for sections without kinds."""
    keys = {(s, None, k) for s, table in artifacts._SCHEMA.items() for k in table}
    for s, kinds in artifacts._KINDS.items():
        keys |= {(s, kind, k) for kind, (_, table) in kinds.items() for k in ("kind", *table)}
    return keys


#: for each (section, key) of the loader's table: a bundled scenario, the
#: overrides that set the key to a value it does not hold there (plus any
#: key the new value needs), and the error expected when the only valid
#: value is the one the scenario already has
_KEY_CASES = {
    ("scenario", "name"): ("free_packet.ini", {"scenario.name": "renamed"}, None),
    ("scenario", "periodic_x"): ("free_packet.ini", {"scenario.periodic_x": "true"}, None),
    ("constants", "hbar"): ("free_packet.ini", {"constants.hbar": "2.0"}, None),
    ("constants", "mass"): ("free_packet.ini", {"constants.mass": "2.0"}, None),
    ("constants", "charge"): ("free_packet.ini", {"constants.charge": "2.0"}, None),
    ("grid", "x_min"): ("free_packet.ini", {"grid.x_min": "-16.0"}, None),
    ("grid", "dx"): ("free_packet.ini", {"grid.dx": "0.5"}, None),
    ("grid", "n_x"): ("free_packet.ini", {"grid.n_x": "2048"}, None),
    ("grid", "window_cells"): ("free_packet.ini", {"grid.window_cells": "32"}, None),
    ("grid", "n_p"): ("free_packet.ini", {"grid.n_p": "8"}, None),
    ("grid", "p_center"): ("free_packet.ini", {"grid.p_center": "0.5"}, None),
    ("packet", "x_center"): ("free_packet.ini", {"packet.x_center": "700.0"}, None),
    ("packet", "p_center"): ("free_packet.ini", {"packet.p_center": "1.5"}, None),
    ("packet", "sigma"): ("free_packet.ini", {"packet.sigma": "40.0"}, None),
    ("packet", "weight"): ("free_packet.ini", {"packet.weight": "2.0"}, None),
    ("potential", "kind"): (
        "free_packet.ini", {"potential.kind": "harmonic", "potential.k": "1e-3"}, None
    ),
    ("potential", "force"): ("linear_ramp.ini", {"potential.force": "2e-4"}, None),
    ("potential", "k"): ("harmonic_trap.ini", {"potential.k": "2e-3"}, None),
    ("potential", "v0"): ("barrier_split.ini", {"potential.v0": "0.5"}, None),
    ("potential", "x_b"): ("barrier_split.ini", {"potential.x_b": "2000.0"}, None),
    ("potential", "width"): ("barrier_split.ini", {"potential.width": "8.0"}, None),
    ("potential", "smooth"): ("barrier_split.ini", {"potential.smooth": "true"}, None),
    ("rates", "kind"): ("relaxation.ini", {"rates.kind": "quadratic"}, "unknown rates kind"),
    ("rates", "coupling"): ("relaxation.ini", {"rates.coupling": "0.07"}, None),
    ("rates", "eta"): ("relaxation.ini", {"rates.eta": "0.3"}, None),
    ("time", "dt"): ("free_packet.ini", {"time.dt": "0.2"}, None),
    ("time", "samples"): ("free_packet.ini", {"time.samples": "512, 1024"}, None),
}


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

    @pytest.mark.parametrize("ini", ["relaxation.ini", "free_packet.ini"])
    def test_a_scenario_builds_its_phase_grid_once(self, ini, monkeypatch):
        # a [rates] scenario builds its matrix on the grid of its one construction
        calls = []
        build = PhaseSpaceGrid.from_spatial

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(PhaseSpaceGrid, "from_spatial", counted)
        artifacts.load_scenario(SCENARIO_DIR / ini)
        assert len(calls) == 1

    @pytest.mark.parametrize("ini, ring", [("relaxation.ini", True), ("free_packet.ini", False)])
    def test_the_phase_grid_carries_the_x_topology(self, ini, ring):
        assert artifacts.load_scenario(SCENARIO_DIR / ini).phase_grid().periodic_x is ring

    @pytest.mark.parametrize(
        "ini, overrides, message",
        [
            ("free_packet.ini", {"grid.n_x": "2097152"}, "grid of 2097152 points"),
            (
                "relaxation.ini",
                {"grid.n_x": "2048", "grid.window_cells": "2048", "grid.n_p": "1025"},
                "rates over 1025 momentum cells",
            ),
        ],
        ids=["grid.n_x", "rates"],
    )
    def test_beyond_desk_scale_is_refused_before_allocating(self, ini, overrides, message):
        # the first sizes above the bounds; tracemalloc sees numpy's buffers,
        # and the refused grid or K×K coupling would take a MiB or more
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match=f"{message} .*beyond desk scale"):
                artifacts.load_scenario(SCENARIO_DIR / ini, overrides)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    @pytest.mark.parametrize(
        "dotted", ["grid.dxx", "potential.kk", "potential.v0", "scenario.seed"]
    )
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

    @pytest.mark.parametrize(
        "ini, overrides",
        [
            (None, None),
            # a misspelt flag must not read as false
            ("relaxation.ini", {"scenario.periodic_x": "ture"}),
            ("barrier_split.ini", {"potential.smooth": "on"}),
        ],
        ids=["grid.dx", "scenario.periodic_x", "potential.smooth"],
    )
    def test_unparsable_value(self, ini, overrides, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            "[grid]\ndx = one\nn_x = 64\nwindow_cells = 16\n"
            "[packet]\nx_center = 32\np_center = 1\nsigma = 4\n"
            "[time]\ndt = 0.1\nsamples = 1.0\n"
        )
        path = bad if ini is None else SCENARIO_DIR / ini
        with pytest.raises(ScenarioError, match="bad scenario file"):
            artifacts.load_scenario(path, overrides)

    @pytest.mark.parametrize(
        "missing, ini, cut",
        [
            ("'dx'", "free_packet.ini", r"^dx = .*\n"),
            ("'dt'", "free_packet.ini", r"^\[time\][^\[]*"),
            ("'sigma'", "free_packet.ini", r"^sigma = .*\n"),
            ("'v0'", "barrier_split.ini", r"^v0 = .*\n"),
        ],
        ids=["grid.dx", "time", "packet.sigma", "potential.v0"],
    )
    def test_missing_required_input_is_rejected(self, missing, ini, cut, tmp_path):
        text = (SCENARIO_DIR / ini).read_text()
        bad = tmp_path / ini
        bad.write_text(re.sub(cut, "", text, count=1, flags=re.M))
        assert bad.read_text() != text
        with pytest.raises(ScenarioError, match=f"bad scenario file .*{missing}"):
            artifacts.load_scenario(bad)

    @pytest.mark.parametrize("section, key", sorted({(s, k) for s, _, k in _table_keys()}))
    def test_override_of_every_key_changes_the_scenario(self, section, key):
        ini, overrides, rejected = _KEY_CASES[section, key]
        assert f"{section}.{key}" in overrides
        if rejected:
            # the one valid value of this key is its default, so the key
            # shows it is read by rejecting another value
            with pytest.raises(ScenarioError, match=rejected):
                artifacts.load_scenario(SCENARIO_DIR / ini, overrides=overrides)
            return
        base = artifacts.load_scenario(SCENARIO_DIR / ini)
        changed = artifacts.load_scenario(SCENARIO_DIR / ini, overrides=overrides)
        # the repr covers every field, the rate matrix values included
        assert repr(changed) != repr(base)

    def test_readme_key_table_matches_the_loader(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = text.split("The allowed keys per section are:\n\n", 1)[1].split("\n\n", 1)[0]
        documented = set()
        for row in table.splitlines()[2:]:
            where, listed = row.strip("|").split("|")
            section = re.search(r"`\[(\w+)\]`", where).group(1)
            kind = re.search(r"`kind = (\w+)`", where)
            for key in re.findall(r"`(\w+)`", listed):
                documented.add((section, kind and kind.group(1), key))
        assert documented == _table_keys()

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_every_bundled_scenario_parses(self, name):
        s = artifacts.load_scenario(SCENARIO_DIR / name)
        assert s.packets and s.dt > 0.0
