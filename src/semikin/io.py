"""File formats: CSV/JSON/binary artifact dumps and scenario ingestion.

Everything is written atomically (temp file + rename) and contains no
wall-clock information, so re-running a configuration reproduces every
output byte for byte.  CSV is the universal tabular format; raw
row-major float64 binary dumps (with a JSON sidecar describing the
axes) are opt-in.

Scenario files are INI-style key-value text::

    [scenario]
    name = free-packet
    seed = 0

    [grid]
    dx = 1.0
    n_x = 4096
    window_cells = 16

    [potential]
    kind = harmonic
    k = 0.001

    [packet]
    x_center = 2048.0
    p_center = 1.0
    sigma = 50.0

    [time]
    dt = 0.05
    samples = 100.0, 200.0

Several packets use distinct section names ([packet.a], [packet.b]).
An optional [rates] section (coupling, eta, kind=uniform) builds a
golden-rule rate matrix on the scenario's momentum cells with energies
p²/2m and uniform couplings.  A section or key outside `_SCHEMA`
raises `ScenarioError`, whether it comes from the file or an override.
"""

from __future__ import annotations

import configparser
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Mapping, Optional

import numpy as np

from .core import PhaseSpaceDensity, PhaseSpaceGrid, PhysicalConstants, SpatialGrid
from .correspondence import CorrespondenceReport, KineticReport, PacketSpec, Scenario
from .envelope import EnvelopeField
from .errors import ScenarioError
from .kinetics import InteractionMatrix, RateMatrix, StateSpace, fermi_rates
from .schrodinger import (
    FreePotential,
    GaussianBarrier,
    HarmonicPotential,
    LinearPotential,
    PotentialSpec,
    WaveFunction,
)

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "save_density",
    "save_envelope",
    "save_wavefunction",
    "save_rate_matrix",
    "load_rate_matrix",
    "save_correspondence_report",
    "save_kinetic_report",
    "load_scenario",
]


# --------------------------------------------------------------------------
# atomic primitives
# --------------------------------------------------------------------------


def atomic_write_bytes(path: Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _fmt(value: float) -> str:
    return repr(float(value))


def _csv(header: str, rows: Iterable[Iterable[float]]) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _grid_sidecar(grid: PhaseSpaceGrid, time: float, planes: list[str]) -> dict:
    return {
        "x0": [float(v) for v in grid.x_centers],
        "p0": [float(v) for v in grid.p_centers],
        "dx": float(grid.window_width),
        "dp": float(grid.p_halfwidth),
        "time": float(time),
        "planes": planes,
    }


def _save_binary(base: Path, planes: np.ndarray, sidecar: dict) -> None:
    """Raw row-major float64 <base>.bin plus its <base>.json sidecar."""
    atomic_write_bytes(
        base.with_suffix(".bin"), np.ascontiguousarray(planes, dtype="<f8").tobytes()
    )
    atomic_write_text(base.with_suffix(".json"), _json(sidecar))


# --------------------------------------------------------------------------
# artifact dumps
# --------------------------------------------------------------------------


def save_density(density: PhaseSpaceDensity, base: Path, binary: bool = False) -> None:
    """Write <base>.csv (columns x0,p0,rho); with `binary` also a raw
    row-major float64 <base>.bin plus <base>.json axis sidecar."""
    base = Path(base)
    g = density.grid
    rows = (
        (g.x_centers[i], g.p_centers[j], density.values[i, j])
        for i in range(g.x_centers.size)
        for j in range(g.p_centers.size)
    )
    atomic_write_text(base.with_suffix(".csv"), _csv("x0,p0,rho", rows))
    if binary:
        _save_binary(base, density.values, _grid_sidecar(g, density.time, ["rho"]))


def save_envelope(field: EnvelopeField, base: Path, binary: bool = False) -> None:
    """Write <base>.csv (columns x0,p0,re,im); binary dumps stack the
    real plane then the imaginary plane, both row-major float64."""
    base = Path(base)
    g = field.grid
    rows = (
        (g.x_centers[i], g.p_centers[j], field.values[i, j].real, field.values[i, j].imag)
        for i in range(g.x_centers.size)
        for j in range(g.p_centers.size)
    )
    atomic_write_text(base.with_suffix(".csv"), _csv("x0,p0,re,im", rows))
    if binary:
        _save_binary(
            base,
            np.stack([field.values.real, field.values.imag]),
            _grid_sidecar(g, field.time, ["re", "im"]),
        )


def save_wavefunction(psi: WaveFunction, base: Path, binary: bool = False) -> None:
    """Write <base>.csv (columns x,re,im); binary dumps stack the real
    plane then the imaginary plane as float64."""
    base = Path(base)
    x = psi.grid.x
    rows = ((x[i], psi.values[i].real, psi.values[i].imag) for i in range(x.size))
    atomic_write_text(base.with_suffix(".csv"), _csv("x,re,im", rows))
    if binary:
        _save_binary(
            base,
            np.stack([psi.values.real, psi.values.imag]),
            {
                "x_min": float(psi.grid.x_min),
                "dx": float(psi.grid.dx),
                "n": int(psi.grid.n),
                "time": float(psi.time),
                "planes": ["re", "im"],
            },
        )


def save_rate_matrix(
    rates: RateMatrix, energies: np.ndarray, hbar: float, base: Path
) -> None:
    """K×K CSV of rates plus a JSON sidecar {energies, eta, hbar}."""
    base = Path(base)
    text = "\n".join(",".join(_fmt(v) for v in row) for row in rates.values) + "\n"
    atomic_write_text(base.with_suffix(".csv"), text)
    atomic_write_text(
        base.with_suffix(".json"),
        _json(
            {
                "energies": [float(e) for e in energies],
                "eta": float(rates.eta),
                "hbar": float(hbar),
            }
        ),
    )


def load_rate_matrix(base: Path) -> tuple[RateMatrix, np.ndarray, float]:
    base = Path(base)
    try:
        values = np.loadtxt(base.with_suffix(".csv"), delimiter=",", ndmin=2)
        sidecar = json.loads(base.with_suffix(".json").read_text())
        rates = RateMatrix(values=values, eta=float(sidecar["eta"]))
        energies = np.asarray(sidecar["energies"], dtype=float)
        return rates, energies, float(sidecar["hbar"])
    except (OSError, KeyError, ValueError) as exc:
        raise ScenarioError(f"cannot load rate matrix from {base}: {exc}") from exc


def _report_dict(report: CorrespondenceReport) -> dict:
    def listed(arr):
        return None if arr is None else [float(v) for v in arr]

    out = {
        "times": listed(report.times),
        "l1": listed(report.l1),
        "l2": listed(report.l2),
        "x_quantum": listed(report.x_quantum),
        "p_quantum": listed(report.p_quantum),
        "x_classical": listed(report.x_classical),
        "p_classical": listed(report.p_classical),
        "mass_envelope": listed(report.mass_envelope),
        "mass_classical": listed(report.mass_classical),
        "scale": {
            "wavelength": report.scale.wavelength,
            "envelope_scale": report.scale.envelope_scale,
            "carrier_ratio": report.scale.carrier_ratio,
            "envelope_ratio": report.scale.envelope_ratio,
            "satisfied": report.scale.satisfied,
        },
    }
    if report.barrier is not None:
        b = report.barrier
        out["barrier"] = {
            "transmission": b.transmission,
            "reflection": b.reflection,
            "deadband_fraction": b.deadband_fraction,
            "separable": b.separable,
            "lobes": [
                {
                    "label": lobe.label,
                    "times": listed(lobe.times),
                    "x_measured": listed(lobe.x_measured),
                    "p_measured": listed(lobe.p_measured),
                    "x_predicted": listed(lobe.x_predicted),
                    "p_predicted": listed(lobe.p_predicted),
                    "mass_fraction": lobe.mass_fraction,
                }
                for lobe in b.lobes
            ],
        }
    return out


def save_correspondence_report(report: CorrespondenceReport, outdir: Path) -> None:
    """report.json plus metrics.csv (and lobes.csv for barrier runs)."""
    outdir = Path(outdir)
    atomic_write_text(outdir / "report.json", _json(_report_dict(report)))

    columns = [("t", report.times), ("x_quantum", report.x_quantum), ("p_quantum", report.p_quantum)]
    for name in ("x_classical", "p_classical", "l1", "l2", "mass_envelope", "mass_classical"):
        arr = getattr(report, name)
        if arr is not None:
            columns.append((name, arr))
    header = ",".join(name for name, _ in columns)
    rows = zip(*(arr for _, arr in columns))
    atomic_write_text(outdir / "metrics.csv", _csv(header, rows))

    if report.barrier is not None:
        lines = ["label,t,x_measured,p_measured,x_predicted,p_predicted"]
        for lobe in report.barrier.lobes:
            for i in range(lobe.times.size):
                lines.append(
                    lobe.label
                    + ","
                    + ",".join(
                        _fmt(v)
                        for v in (
                            lobe.times[i],
                            lobe.x_measured[i],
                            lobe.p_measured[i],
                            lobe.x_predicted[i],
                            lobe.p_predicted[i],
                        )
                    )
                )
        atomic_write_text(outdir / "lobes.csv", "\n".join(lines) + "\n")


def save_kinetic_report(
    report: KineticReport, outdir: Path, binary: bool = False
) -> None:
    """histories.csv, current.csv (long form) and the final density."""
    outdir = Path(outdir)
    rows = zip(report.times, report.mass, report.entropy)
    atomic_write_text(outdir / "histories.csv", _csv("t,mass,entropy", rows))
    final = report.densities[-1]
    x_centers = final.grid.x_centers
    long_rows = (
        (report.times[i], x_centers[j], report.current[i, j])
        for i in range(report.times.size)
        for j in range(x_centers.size)
    )
    atomic_write_text(outdir / "current.csv", _csv("t,x,j", long_rows))
    save_density(final, outdir / "final_density", binary=binary)


# --------------------------------------------------------------------------
# scenario files
# --------------------------------------------------------------------------


#: the keys each section may hold.  [packet.<label>] sections take the
#: [packet] keys; [potential] takes "kind" plus the keys of that kind.
_SCHEMA = {
    "scenario": ("name", "seed", "periodic_x"),
    "constants": ("hbar", "mass", "charge"),
    "grid": ("x_min", "dx", "n_x", "window_cells", "n_p", "p_center"),
    "packet": ("x_center", "p_center", "sigma", "weight"),
    "potential": {
        "free": (),
        "linear": ("force",),
        "harmonic": ("k",),
        "gaussian_barrier": ("v0", "x_b", "width", "smooth"),
    },
    "rates": ("kind", "coupling", "eta"),
    "time": ("dt", "samples"),
}


def _check_schema(parser: configparser.ConfigParser, path: Path) -> None:
    for section in parser.sections():
        allowed = _SCHEMA.get("packet" if section.startswith("packet.") else section)
        if allowed is None:
            raise ScenarioError(f"unknown section [{section}] in {path}")
        if section == "potential":
            kind = parser[section].get("kind", "free").strip().lower()
            if kind not in allowed:
                raise ScenarioError(f"unknown potential kind {kind!r}")
            allowed = ("kind", *allowed[kind])
        for key in parser[section]:
            if key not in allowed:
                raise ScenarioError(
                    f"unknown key {key!r} in [{section}] of {path}"
                    f" (allowed: {', '.join(allowed)})"
                )


def _parse_potential(section: Optional[Mapping[str, str]]) -> PotentialSpec:
    """Build the potential of a schema-checked [potential] section."""
    kind = "free" if section is None else section.get("kind", "free").strip().lower()
    try:
        if kind == "linear":
            return LinearPotential(force=float(section["force"]))
        if kind == "harmonic":
            return HarmonicPotential(k=float(section["k"]))
        if kind == "gaussian_barrier":
            smooth = str(section.get("smooth", "false")).strip().lower() in ("1", "true", "yes")
            return GaussianBarrier(
                v0=float(section["v0"]),
                x_b=float(section["x_b"]),
                width=float(section["width"]),
                is_smooth=smooth,
            )
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"bad [potential] section: {exc}") from exc
    return FreePotential()


def _floats_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def load_scenario(
    path: Path,
    overrides: Optional[Mapping[str, str]] = None,
    seed: Optional[int] = None,
) -> Scenario:
    """Parse an INI scenario file into a validated `Scenario`.

    `overrides` maps dotted keys ("section.key") to replacement raw
    values, applied before interpretation; `seed` replaces the
    scenario's seed outright.  Any missing file, unknown section or key,
    unparsable value or inconsistent combination raises `ScenarioError`.
    """
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario file {path}: {exc}") from exc

    if overrides:
        for dotted, value in overrides.items():
            if "." not in dotted:
                raise ScenarioError(f"override key {dotted!r} must look like section.key")
            # keys hold no dots, but labelled sections do: [packet.left]
            section, key = dotted.rsplit(".", 1)
            if section == parser.default_section:
                # configparser keeps DEFAULT out of sections(), so the
                # schema check below would never see it
                raise ScenarioError(f"unknown section [{section}] in {path}")
            if not parser.has_section(section):
                parser.add_section(section)
            parser[section][key] = value
    _check_schema(parser, path)

    try:
        meta = parser["scenario"] if parser.has_section("scenario") else {}
        name = meta.get("name", path.stem)
        scenario_seed = int(meta.get("seed", 0)) if seed is None else int(seed)
        periodic_x = str(meta.get("periodic_x", "false")).strip().lower() in ("1", "true", "yes")

        if parser.has_section("constants"):
            c = parser["constants"]
            constants = PhysicalConstants(
                hbar=float(c.get("hbar", 1.0)),
                mass=float(c.get("mass", 1.0)),
                charge=float(c.get("charge", 1.0)),
            )
        else:
            constants = PhysicalConstants()

        g = parser["grid"]
        x_min = float(g.get("x_min", 0.0))
        dx = float(g["dx"])
        n_x = int(g["n_x"])
        window_cells = int(g["window_cells"])
        n_p = int(g["n_p"]) if "n_p" in g else None
        grid_p_center = float(g.get("p_center", 0.0))

        packets = []
        for section_name in parser.sections():
            if section_name == "packet" or section_name.startswith("packet."):
                s = parser[section_name]
                packets.append(
                    PacketSpec(
                        x_center=float(s["x_center"]),
                        p_center=float(s["p_center"]),
                        sigma=float(s["sigma"]),
                        weight=float(s.get("weight", 1.0)),
                    )
                )

        t = parser["time"]
        dt = float(t["dt"])
        sample_times = _floats_list(t["samples"])

        potential = _parse_potential(
            parser["potential"] if parser.has_section("potential") else None
        )
    except (KeyError, ValueError, configparser.Error) as exc:
        raise ScenarioError(f"bad scenario file {path}: {exc}") from exc

    rates = None
    if parser.has_section("rates"):
        try:
            r = parser["rates"]
            kind = r.get("kind", "uniform").strip().lower()
            if kind != "uniform":
                raise ScenarioError(f"unknown rates kind {kind!r}")
            coupling = float(r["coupling"])
            eta = float(r["eta"])
        except (KeyError, ValueError) as exc:
            raise ScenarioError(f"bad [rates] section: {exc}") from exc
        grid = SpatialGrid(x_min=x_min, dx=dx, n=n_x)
        pg = PhaseSpaceGrid.from_spatial(
            grid, constants, window_cells=window_cells, p_center=grid_p_center, n_p=n_p
        )
        k = pg.p_centers.size
        v = coupling * (np.ones((k, k), dtype=complex) - np.eye(k))
        rates = fermi_rates(
            InteractionMatrix(values=v), StateSpace(energies=pg.cell_energies), eta,
            hbar=constants.hbar,
        )

    return Scenario(
        name=name,
        constants=constants,
        potential=potential,
        packets=tuple(packets),
        x_min=x_min,
        dx=dx,
        n_x=n_x,
        window_cells=window_cells,
        n_p=n_p,
        grid_p_center=grid_p_center,
        sample_times=sample_times,
        dt=dt,
        rates=rates,
        seed=scenario_seed,
        periodic_x=periodic_x,
    )
