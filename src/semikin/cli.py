"""Command-line front end.

Each subcommand ingests a scenario file (except `manybody-check`, which
is self-contained), runs one pipeline or the paired comparison, and
drops plain CSV/JSON artifacts into the output directory.  Outputs are
written atomically and carry no timestamps, so identical invocations
produce byte-identical files.

Exit codes: 0 success; 1 scenario/configuration problems, usage
errors included; 2 numerical failure diagnostics (stability bound, norm
drift, transport leakage).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import io as artifacts
from .core import l2_norm, phase_space_mass
from .correspondence import (
    Scenario,
    barrier_split_experiment,
    kinetic_scenario,
    prepare,
    quantum_samples,
    run_correspondence,
)
from .envelope import envelope_density, extract_envelope
from .errors import NumericalFailure, ScenarioError
from .liouville import liouville_samples
from .manybody import (
    CarrierState,
    EnvelopeFunctionND,
    kinetic_cross_term_check,
    position_minor_identity_check,
    windowed_orthogonality_check,
)
from .schrodinger import energy, expectation_p, expectation_x

OUTPUT_ROOT_ENV = "SEMIKIN_OUTPUT_ROOT"


class _Parser(argparse.ArgumentParser):
    """Report usage errors as `ScenarioError`, so they exit 1 with one
    line like every other configuration problem; argparse itself would
    exit 2, the code of numerical failures.  Subparsers inherit it."""

    def error(self, message):
        raise ScenarioError(f"{message} (see {self.prog} --help)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semikin",
        description="quantum-to-classical phase-space kinetics workbench",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--out",
        help=f"output root (default: ${OUTPUT_ROOT_ENV} or ./semikin-out)",
    )
    scenario_opts = argparse.ArgumentParser(add_help=False)
    scenario_opts.add_argument("--scenario", required=True, help="scenario INI file")
    scenario_opts.add_argument(
        "--force",
        action="store_true",
        help="run even when the scale separation check fails",
    )
    scenario_opts.add_argument(
        "--dump-binary",
        action="store_true",
        dest="dump_binary",
        help="also write raw float64 dumps with JSON sidecars",
    )
    scenario_opts.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario value, e.g. time.dt=0.01 (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _SCENARIO_COMMANDS.items():
        sub.add_parser(name, parents=[output, scenario_opts], help=help_text)
    check = sub.add_parser(
        "manybody-check",
        parents=[output],
        help="print the carrier-algebra residual table",
    )
    check.add_argument(
        "--seed", type=int, default=0, help="seed of the random probe points (default 0)"
    )
    return parser


def _parse_overrides(pairs) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ScenarioError(f"override {pair!r} must look like section.key=value")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _output_dir(args) -> Path:
    """`<root>/<command>`; the first artifact written creates it, so a
    run that fails before writing leaves no empty directory behind."""
    root = Path(args.out) if args.out else Path(os.environ.get(OUTPUT_ROOT_ENV, "semikin-out"))
    return root / args.command


def _load(args) -> Scenario:
    return artifacts.load_scenario(args.scenario, overrides=_parse_overrides(args.override))


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_schrodinger(scenario: Scenario, outdir: Path, args) -> None:
    columns = {"t": scenario.sample_times, "norm": [], "x": [], "p": [], "energy": []}
    psi = None
    for psi in quantum_samples(scenario, scenario.initial_wavefunction()):
        columns["norm"].append(l2_norm(psi))
        columns["x"].append(expectation_x(psi))
        columns["p"].append(expectation_p(psi))
        columns["energy"].append(energy(psi, scenario.potential))
    artifacts.write_csv(outdir / "observables.csv", columns)
    artifacts.save_wavefunction(psi, outdir / "wavefunction", binary=args.dump_binary)


def _cmd_envelope(scenario: Scenario, outdir: Path, args) -> None:
    # the report is the artifact here, so a failing packet still gets one
    psi0, pg, report, _ = prepare(scenario, force=True)
    artifacts.write_json(outdir / "scale.json", dataclasses.asdict(report))
    for i, psi in enumerate(quantum_samples(scenario, psi0)):
        field = extract_envelope(psi, pg, potential=scenario.potential)
        artifacts.save_envelope(field, outdir / f"env_{i:03d}", binary=args.dump_binary)
        artifacts.save_density(
            envelope_density(field), outdir / f"rho_{i:03d}", binary=args.dump_binary
        )
    times = scenario.sample_times
    artifacts.write_csv(outdir / "samples.csv", {"index": range(len(times)), "t": times})


def _cmd_liouville(scenario: Scenario, outdir: Path, args) -> None:
    *_, rho0 = prepare(scenario, args.force)
    densities = liouville_samples(
        rho0, scenario.hamiltonian(), scenario.sample_times, dt=scenario.dt
    )
    masses = []
    for i, rho in enumerate(densities):
        artifacts.save_density(rho, outdir / f"rho_{i:03d}", binary=args.dump_binary)
        masses.append(phase_space_mass(rho))
    artifacts.write_csv(outdir / "masses.csv", {"t": scenario.sample_times, "mass": masses})


def _manybody_rows(seed: int) -> list[tuple[str, str, float]]:
    rng = np.random.default_rng(seed)

    def gaussian_of_sum(scale: float) -> EnvelopeFunctionND:
        return EnvelopeFunctionND(
            func=lambda xs: np.exp(-scale * np.sum(xs) ** 2),
            grad=lambda xs: np.full(
                xs.size, -2.0 * scale * np.sum(xs) * np.exp(-scale * np.sum(xs) ** 2)
            ),
            symmetric=True,
        )

    amplitude = gaussian_of_sum(0.35)
    numeric = EnvelopeFunctionND(func=amplitude.func, grad=None, symmetric=True)
    rows = []
    for statistics in ("fermion", "boson"):
        state = CarrierState(statistics, tuple(rng.uniform(-2.0, 2.0, size=2)))
        xs = rng.uniform(-1.0, 1.0, size=2)
        residual = kinetic_cross_term_check(state, amplitude, xs)
        rows.append(("kinetic_cross_term", f"n=2 {statistics} analytic gradient", residual))
    state3 = CarrierState("fermion", tuple(rng.uniform(-2.0, 2.0, size=3)))
    xs3 = rng.uniform(-1.0, 1.0, size=3)
    for h in (1e-4, 5e-5):
        residual = kinetic_cross_term_check(state3, numeric, xs3, h=h)
        rows.append(("kinetic_cross_term", f"n=3 fermion central differences h={h:g}", residual))
    state2 = CarrierState("fermion", tuple(rng.uniform(-2.0, 2.0, size=2)))
    residual = position_minor_identity_check(state2, rng.uniform(-1.0, 1.0, size=2), 0)
    rows.append(("position_minor", "n=2 fermion", residual))
    state3b = CarrierState("boson", tuple(rng.uniform(-2.0, 2.0, size=3)))
    residual = position_minor_identity_check(state3b, rng.uniform(-1.0, 1.0, size=3), 1)
    rows.append(("position_minor", "n=3 boson", residual))
    window = 32.0
    diag = windowed_orthogonality_check(1.0, 1.0, window, probe_slope=1.0)
    rows.append(("windowed_orthogonality", "same carrier: slope error", abs(diag - 1.0)))
    q = 2.0 * np.pi * 24.0 / window
    off = windowed_orthogonality_check(1.0, 1.0 + q, window)
    rows.append(("windowed_orthogonality", "distinct carriers: 24 beats", abs(off)))
    return rows


def _cmd_manybody(outdir: Path, args) -> None:
    check, detail, residual = zip(*_manybody_rows(args.seed))
    path = outdir / "residuals.csv"
    artifacts.write_csv(path, {"check": list(check), "detail": list(detail), "residual": residual})
    sys.stdout.write(path.read_text())


def _cmd_kinetics(scenario: Scenario, outdir: Path, args) -> None:
    report = kinetic_scenario(scenario, force=args.force)
    artifacts.save_kinetic_report(report, outdir, binary=args.dump_binary)
    if scenario.rates is not None:
        artifacts.save_rate_matrix(
            scenario.rates,
            scenario.phase_grid().cell_energies,
            scenario.constants.hbar,
            outdir / "rates",
        )


def _cmd_compare(scenario: Scenario, outdir: Path, args) -> None:
    report = run_correspondence(scenario, force=args.force)
    artifacts.save_correspondence_report(report, outdir)


def _cmd_barrier(scenario: Scenario, outdir: Path, args) -> None:
    report = barrier_split_experiment(scenario, force=args.force)
    artifacts.save_correspondence_report(report, outdir)


#: scenario command -> (handler, help), in `--help` order
_SCENARIO_COMMANDS = {
    "schrodinger": (_cmd_schrodinger, "run the wave solver and log packet observables"),
    "envelope": (_cmd_envelope, "project the wave onto coarse phase-space envelopes"),
    "liouville": (_cmd_liouville, "transport the initial envelope density classically"),
    "kinetics": (_cmd_kinetics, "run the collisional transport and log its histories"),
    "compare": (_cmd_compare, "run both pipelines and report their agreement"),
    "barrier": (_cmd_barrier, "split a packet on a barrier and track the lobes"),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        outdir = _output_dir(args)
        if args.command == "manybody-check":
            _cmd_manybody(outdir, args)
            return 0
        handler, _ = _SCENARIO_COMMANDS[args.command]
        handler(_load(args), outdir, args)
        return 0
    except NumericalFailure as exc:
        print(f"semikin: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"semikin: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
