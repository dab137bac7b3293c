"""File formats: CSV/JSON/binary artifact dumps and scenario ingestion.

Everything is written atomically (temp file + rename) and contains no
wall-clock information, so re-running a configuration reproduces every
output byte for byte.  CSV is the universal tabular format; raw
row-major float64 binary dumps (with a JSON sidecar describing the
axes) are opt-in.

Scenario files are INI-style key-value text::

    [scenario]
    name = free-packet

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
p²/2m and uniform couplings.  `_SCHEMA` and `_KINDS` are the one
table of what a file means: a section or key outside them raises
`ScenarioError`, whether it comes from the file or an override, and a
key left out takes the default of the constructor argument it feeds.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .core import PhaseSpaceDensity, PhaseSpaceGrid, PhysicalConstants
from .correspondence import CorrespondenceReport, KineticReport, PacketSpec, Scenario
from .envelope import EnvelopeField
from .errors import ScenarioError
from .kinetics import InteractionMatrix, RateMatrix, StateSpace, fermi_rates
from .schrodinger import (
    FreePotential,
    GaussianBarrier,
    HarmonicPotential,
    LinearPotential,
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
        "scale": dataclasses.asdict(report.scale),
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


def _flag(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes")


def _floats_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _uniform_rates(grid: PhaseSpaceGrid, *, coupling: float, eta: float) -> RateMatrix:
    """Golden-rule rates between the momentum cells of `grid`, with cell
    energies p²/2m and the same coupling between every pair of cells."""
    k = grid.p_centers.size
    v = coupling * (np.ones((k, k), dtype=complex) - np.eye(k))
    return fermi_rates(
        InteractionMatrix(values=v),
        StateSpace(energies=grid.cell_energies),
        eta,
        hbar=grid.constants.hbar,
    )


#: every key a section may hold, mapped to the constructor argument it
#: feeds and the converter of its raw text.  [scenario], [grid] and
#: [time] feed `Scenario`, [constants] `PhysicalConstants`, and each
#: [packet] or [packet.<label>] section one `PacketSpec`; an absent key
#: takes the constructor's default.
_SCHEMA = {
    "scenario": {"name": ("name", str), "periodic_x": ("periodic_x", _flag)},
    "constants": {
        "hbar": ("hbar", float),
        "mass": ("mass", float),
        "charge": ("charge", float),
    },
    "grid": {
        "x_min": ("x_min", float),
        "dx": ("dx", float),
        "n_x": ("n_x", int),
        "window_cells": ("window_cells", int),
        "n_p": ("n_p", int),
        "p_center": ("grid_p_center", float),
    },
    "packet": {
        "x_center": ("x_center", float),
        "p_center": ("p_center", float),
        "sigma": ("sigma", float),
        "weight": ("weight", float),
    },
    "time": {"dt": ("dt", float), "samples": ("sample_times", _floats_list)},
}

#: [potential] and [rates] hold "kind" plus the keys of that kind; each
#: kind names its builder and the table of its keys.  The first kind of
#: a section is the one a section without "kind" gets.
_KINDS = {
    "potential": {
        "free": (FreePotential, {}),
        "linear": (LinearPotential, {"force": ("force", float)}),
        "harmonic": (HarmonicPotential, {"k": ("k", float)}),
        "gaussian_barrier": (
            GaussianBarrier,
            {
                "v0": ("v0", float),
                "x_b": ("x_b", float),
                "width": ("width", float),
                "smooth": ("is_smooth", _flag),
            },
        ),
    },
    "rates": {
        "uniform": (_uniform_rates, {"coupling": ("coupling", float), "eta": ("eta", float)}),
    },
}


def _table(
    name: str, section: Mapping[str, str], path: Path
) -> tuple[Optional[Callable], dict]:
    """The builder and key table of one section.  [potential] and [rates]
    get those of the kind they name; the other sections have no builder
    of their own.  An unknown section or kind raises `ScenarioError`."""
    if name in _KINDS:
        kinds = _KINDS[name]
        kind = section.get("kind", next(iter(kinds))).strip().lower()
        if kind not in kinds:
            raise ScenarioError(f"unknown {name} kind {kind!r}")
        return kinds[kind]
    keys = _SCHEMA.get("packet" if name.startswith("packet.") else name)
    if keys is None:
        raise ScenarioError(f"unknown section [{name}] in {path}")
    return None, keys


def _arguments(section: Mapping[str, str], keys: Mapping[str, tuple]) -> dict:
    """The constructor arguments of the keys present in `section`."""
    return {
        arg: convert(section[key]) for key, (arg, convert) in keys.items() if key in section
    }


def load_scenario(path: Path, overrides: Optional[Mapping[str, str]] = None) -> Scenario:
    """Parse an INI scenario file into a validated `Scenario`.

    `overrides` maps dotted keys ("section.key") to replacement raw
    values, applied before interpretation.  Any missing file, unknown
    section or key, missing or unparsable value or inconsistent
    combination raises `ScenarioError`.
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

    arguments = {"name": path.stem}
    packets = []
    rates = None
    try:
        for name in parser.sections():
            section = parser[name]
            build, keys = _table(name, section, path)
            allowed = ("kind", *keys) if build else tuple(keys)
            for key in section:
                if key not in allowed:
                    raise ScenarioError(
                        f"unknown key {key!r} in [{name}] of {path}"
                        f" (allowed: {', '.join(allowed)})"
                    )
            values = _arguments(section, keys)
            if name == "potential":
                arguments["potential"] = build(**values)
            elif name == "rates":
                # built below, on the momentum cells of the loaded scenario
                rates = functools.partial(build, **values)
            elif name == "constants":
                arguments["constants"] = PhysicalConstants(**values)
            elif name == "packet" or name.startswith("packet."):
                packets.append(PacketSpec(**values))
            else:
                arguments.update(values)
        scenario = Scenario(packets=tuple(packets), **arguments)
        if rates is not None:
            scenario = dataclasses.replace(scenario, rates=rates(scenario.phase_grid()))
    except (TypeError, ValueError) as exc:
        # a missing required key surfaces as the constructor's TypeError
        raise ScenarioError(f"bad scenario file {path}: {exc}") from exc
    return scenario
