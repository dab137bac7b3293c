"""File formats: CSV/JSON/binary artifact dumps and scenario ingestion.

Everything is written atomically (temp file + rename) and contains no
wall-clock information, so re-running a configuration reproduces every
output byte for byte.  CSV is the universal tabular format; raw
row-major float64 binary dumps (with a JSON sidecar describing the
axes) are opt-in.

One formatter, `_text`, serves every CSV: a number is written as
repr(float(v)), its shortest round trip, and a string passes through.
`write_csv` writes a mapping of column name to column under a header of
the names; `rates.csv` is a headerless K×K table.

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
from typing import Callable, Mapping, Optional

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
    "write_csv",
    "write_json",
    "save_density",
    "save_envelope",
    "save_wavefunction",
    "save_rate_matrix",
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


def _text(column) -> list[str]:
    """The CSV fields of one column.  A list of strings (labels, or
    numbers already formatted) passes through; any other column holds
    numbers, each written as repr(float(v)), its shortest round trip.
    A column is all strings or all numbers, so its first entry decides."""
    if isinstance(column, list) and column and isinstance(column[0], str):
        return column
    return list(map(repr, np.asarray(column, dtype=float).ravel().tolist()))


def write_csv(path: Path, columns: Mapping[str, object]) -> None:
    """Write `columns`, a mapping of column name to column, as CSV: a
    header line of the names, then one line per row."""
    rows = map(",".join, zip(*map(_text, columns.values())))
    atomic_write_text(path, "\n".join([",".join(columns), *rows]) + "\n")


def write_json(path: Path, obj) -> None:
    """Sorted, indented JSON; numpy arrays anywhere in `obj` become lists."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist)
    atomic_write_text(path, text + "\n")


def _grid_sidecar(grid: PhaseSpaceGrid, time: float) -> dict:
    return {
        "x0": grid.x_centers,
        "p0": grid.p_centers,
        "dx": float(grid.window_width),
        "dp": float(grid.p_halfwidth),
        "time": float(time),
    }


def _save_table(
    base: Path, axes: dict, planes: dict, sidecar: Optional[dict] = None
) -> None:
    """Write <base>.csv in long form: a header of the axis and plane
    names, then one row per point of the mesh of `axes` (the first axis
    slowest) holding the axis values and each plane's value there.  Each
    axis value is formatted once; the mesh repeats its text.

    With a `sidecar`, also write the planes stacked as raw row-major
    float64 <base>.bin, and the sidecar plus the plane names as
    <base>.json.
    """
    base = Path(base)
    texts = (np.array(_text(axis), dtype=object) for axis in axes.values())
    mesh = np.meshgrid(*texts, indexing="ij")
    columns = {name: m.ravel().tolist() for name, m in zip(axes, mesh)}
    write_csv(base.with_suffix(".csv"), {**columns, **planes})
    if sidecar is not None:
        stacked = np.stack(list(planes.values()))
        atomic_write_bytes(
            base.with_suffix(".bin"), np.ascontiguousarray(stacked, dtype="<f8").tobytes()
        )
        write_json(base.with_suffix(".json"), {**sidecar, "planes": list(planes)})


# --------------------------------------------------------------------------
# artifact dumps
# --------------------------------------------------------------------------


def save_density(density: PhaseSpaceDensity, base: Path, binary: bool = False) -> None:
    """Write <base>.csv (columns x0,p0,rho); with `binary` also a raw
    row-major float64 <base>.bin plus <base>.json axis sidecar."""
    g = density.grid
    _save_table(
        base,
        {"x0": g.x_centers, "p0": g.p_centers},
        {"rho": density.values},
        _grid_sidecar(g, density.time) if binary else None,
    )


def save_envelope(field: EnvelopeField, base: Path, binary: bool = False) -> None:
    """Write <base>.csv (columns x0,p0,re,im); binary dumps stack the
    real plane then the imaginary plane, both row-major float64."""
    g = field.grid
    _save_table(
        base,
        {"x0": g.x_centers, "p0": g.p_centers},
        {"re": field.values.real, "im": field.values.imag},
        _grid_sidecar(g, field.time) if binary else None,
    )


def save_wavefunction(psi: WaveFunction, base: Path, binary: bool = False) -> None:
    """Write <base>.csv (columns x,re,im); binary dumps stack the real
    plane then the imaginary plane as float64."""
    g = psi.grid
    sidecar = {
        "x_min": float(g.x_min),
        "dx": float(g.dx),
        "n": int(g.n),
        "time": float(psi.time),
    }
    _save_table(
        base,
        {"x": g.x},
        {"re": psi.values.real, "im": psi.values.imag},
        sidecar if binary else None,
    )


def save_rate_matrix(rates: RateMatrix, grid: PhaseSpaceGrid, base: Path) -> None:
    """Headerless K×K CSV of rates plus a JSON sidecar {energies, eta, hbar},
    with the cell energies and ħ of the phase-space grid the rates live on."""
    base = Path(base)
    rows = map(",".join, map(_text, rates.values))
    atomic_write_text(base.with_suffix(".csv"), "\n".join(rows) + "\n")
    write_json(
        base.with_suffix(".json"),
        {
            "energies": grid.cell_energies,
            "eta": float(rates.eta),
            "hbar": float(grid.constants.hbar),
        },
    )


def save_correspondence_report(report: CorrespondenceReport, outdir: Path) -> None:
    """report.json plus metrics.csv (and lobes.csv for barrier runs)."""
    outdir = Path(outdir)
    fields = dataclasses.asdict(report)
    if report.barrier is None:
        del fields["barrier"]
    write_json(outdir / "report.json", fields)

    columns = {"t": report.times, "x_quantum": report.x_quantum, "p_quantum": report.p_quantum}
    for name in ("x_classical", "p_classical", "l1", "l2", "mass_envelope", "mass_classical"):
        columns[name] = getattr(report, name)
    write_csv(outdir / "metrics.csv", {k: v for k, v in columns.items() if v is not None})

    if report.barrier is not None:
        lobes = report.barrier.lobes
        columns = {"label": [lobe.label for lobe in lobes for _ in lobe.times]}
        for name in ("t", "x_measured", "p_measured", "x_predicted", "p_predicted"):
            field = "times" if name == "t" else name
            columns[name] = [v for lobe in lobes for v in getattr(lobe, field)]
        write_csv(outdir / "lobes.csv", columns)


def save_kinetic_report(
    report: KineticReport, outdir: Path, binary: bool = False
) -> None:
    """histories.csv, current.csv (long form) and the final density."""
    outdir = Path(outdir)
    write_csv(
        outdir / "histories.csv",
        {"t": report.times, "mass": report.mass, "entropy": report.entropy},
    )
    final = report.densities[-1]
    _save_table(
        outdir / "current", {"t": report.times, "x": final.grid.x_centers}, {"j": report.current}
    )
    save_density(final, outdir / "final_density", binary=binary)


# --------------------------------------------------------------------------
# scenario files
# --------------------------------------------------------------------------


def _flag(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"{text!r} is not a flag: use 1/true/yes or 0/false/no")
    return word in ("1", "true", "yes")


def _floats_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _uniform_rates(grid: PhaseSpaceGrid, *, coupling: float, eta: float) -> RateMatrix:
    """Golden-rule rates between the momentum cells of `grid`, with cell
    energies p²/2m and the same coupling between every pair of cells."""
    if not np.isfinite(coupling):
        raise ValueError(f"rates coupling = {coupling} must be finite")
    k = grid.p_centers.size
    # `fermi_rates` holds several K×K arrays, and each Poisson term of a hop is a K³ product
    if k > 1024:
        raise ValueError(f"rates over {k} momentum cells are beyond desk scale (at most 1024)")
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
                # the scenario builds it on the momentum cells of its phase-space grid
                arguments["rates"] = functools.partial(build, **values)
            elif name == "constants":
                arguments["constants"] = PhysicalConstants(**values)
            elif name == "packet" or name.startswith("packet."):
                packets.append(PacketSpec(**values))
            else:
                arguments.update(values)
        scenario = Scenario(packets=tuple(packets), **arguments)
    except (TypeError, ValueError) as exc:
        # a missing required key surfaces as the constructor's TypeError
        raise ScenarioError(f"bad scenario file {path}: {exc}") from exc
    return scenario
