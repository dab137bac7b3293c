"""Two-pipeline experiments: wave mechanics vs phase-space transport.

A scenario describes one physical setup — grid, packets, potential,
sample times, optionally a collision rate matrix.  `run_correspondence`
pushes it through both pipelines:

  quantum:    ψ(0) --e^{-iHt/ħ}-→ ψ(tᵢ) --window projection-→ ρ_env(tᵢ)
  classical:  ρ_env(0) --Liouville backtrace-------------------→ ρ_cl(tᵢ)

(e^{-iHt/ħ}: one exact kinetic factor when U ≡ 0, one Chebyshev series
per call otherwise, after Tal-Ezer & Kosloff) and reports, per sample
time, the L1/L2 distance between the two phase-space densities, the
quantum packet center against the classical characteristic, and the
mass carried by each branch.  Distances are normalized by the initial
envelope mass/norm so they read as relative errors; the claimed-agreement
window is bounded by the dispersion horizon t_disp = 2mσ²/ħ, beyond
which a tight envelope stops being slowly varying and the comparison
degrades by construction.

`barrier_split_experiment` drives a packet into a barrier, splits the
late-time envelope into transmitted/reflected lobes by the sign of p
(with a one-cell dead band), and tracks each lobe's center against a
free classical characteristic launched at the segmentation time.
`kinetic_scenario` runs the assembled collisional transport and logs
mass, entropy and current histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .core import (
    PhaseSpaceDensity,
    PhaseSpaceGrid,
    PhysicalConstants,
    SpatialGrid,
    l2_norm,
    phase_space_mass,
)
from .envelope import ScaleReport, envelope_density, extract_envelope, scale_check
from .errors import ScenarioError
from .kinetics import RateMatrix, boltzmann_samples, current_density, entropy
from .liouville import _MAX_STEPS, flow_map, liouville_samples
from .schrodinger import (
    FreePotential,
    GaussianBarrier,
    PotentialSpec,
    WaveFunction,
    evolve,
    expectation_p,
    expectation_x,
    init_gaussian_packet,
    transmission_reflection,
)

__all__ = [
    "PacketSpec",
    "Scenario",
    "CorrespondenceReport",
    "LobeTrack",
    "BarrierSummary",
    "KineticReport",
    "dispersion_time",
    "prepare",
    "quantum_samples",
    "run_correspondence",
    "barrier_split_experiment",
    "kinetic_scenario",
]


@dataclass(frozen=True)
class PacketSpec:
    """One Gaussian packet: center, carrier momentum, width, weight."""

    x_center: float
    p_center: float
    sigma: float
    weight: float = 1.0


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """A complete, self-consistent experiment description.

    Grid parameters mirror the constructors in `core`.  `dt` is the step
    the quantum stability budget binds, the Verlet substep of a flow with
    no closed form and the bound on a collisional Strang step; exact
    propagators take no steps but still pass the step-count check.  The
    grids are built once, at construction, and kept for `phase_grid()`
    and ψ₀, so an inconsistent scenario fails at once with
    `ScenarioError`; so does one whose last sample lies more than 10⁷
    steps of `dt` away, whose grid holds more than 2²⁰ points, or whose
    barrier is narrower than `dx` or centred off the grid.  `constants`
    go to the spatial grid, whose units ψ₀ and the phase-space grid read,
    so every transport of the scenario reads m from its density's grid;
    `periodic_x` sets the x topology of the phase-space grid.  `rates` is
    a matrix on its momentum cells, or a builder called once on it.
    """

    name: str = "scenario"
    constants: PhysicalConstants = PhysicalConstants()
    potential: PotentialSpec = field(default_factory=FreePotential)
    packets: tuple[PacketSpec, ...]
    x_min: float = 0.0
    dx: float
    n_x: int
    window_cells: int
    n_p: Optional[int] = None
    grid_p_center: float = 0.0
    sample_times: tuple[float, ...]
    dt: float
    rates: RateMatrix | Callable[[PhaseSpaceGrid], RateMatrix] | None = None
    periodic_x: bool = False

    def __post_init__(self) -> None:
        if not self.packets:
            raise ScenarioError("a scenario needs at least one packet")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ScenarioError(f"dt must be positive and finite, got {self.dt}")
        times = np.asarray(self.sample_times, dtype=float)
        if times.size == 0:
            raise ScenarioError("a scenario needs at least one sample time")
        if not np.all(np.isfinite(times)) or np.any(times < 0.0):
            raise ScenarioError("sample times must be finite and non-negative")
        if np.any(np.diff(times) <= 0.0):
            raise ScenarioError("sample times must be strictly increasing")
        if times[-1] / self.dt > _MAX_STEPS:
            raise ScenarioError(
                f"sample time {times[-1]:g} needs {times[-1] / self.dt:.3g} steps"
                f" of dt = {self.dt:g}, more than {_MAX_STEPS}"
            )
        if self.n_x > 2**20:
            raise ScenarioError(f"grid of {self.n_x} points is beyond desk scale (at most {2**20})")
        try:
            grid = SpatialGrid(x_min=self.x_min, dx=self.dx, n=self.n_x, constants=self.constants)
            pg = PhaseSpaceGrid.from_spatial(
                grid, window_cells=self.window_cells,
                p_center=self.grid_p_center, n_p=self.n_p, periodic_x=self.periodic_x,
            )
        except ValueError as exc:
            raise ScenarioError(f"inconsistent grids: {exc}") from exc
        if isinstance(self.potential, GaussianBarrier):
            x_b, width, lo, hi = self.potential.x_b, self.potential.width, grid.x[0], grid.x[-1]
            if width < self.dx:
                raise ScenarioError(f"barrier width = {width:g} is below dx = {self.dx:g}")
            if not lo <= x_b <= hi:
                raise ScenarioError(f"barrier x_b = {x_b:g} lies outside the grid [{lo:g}, {hi:g}]")
        if callable(self.rates):
            object.__setattr__(self, "rates", self.rates(pg))
        if self.rates is not None and self.rates.size != pg.shape[1]:
            raise ScenarioError(f"rates of size {self.rates.size} on {pg.shape[1]} momentum cells")
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_phase_grid", pg)

    def phase_grid(self) -> PhaseSpaceGrid:
        """The phase-space grid built at construction, the same object each call."""
        return self._phase_grid

    def initial_wavefunction(self) -> WaveFunction:
        grid = self._grid
        try:
            for packet in self.packets:
                if not np.isfinite(packet.weight):
                    raise ValueError(f"weight {packet.weight} must be finite")
            # only relative weights matter, and at relative size none overflows
            scale = max(abs(packet.weight) for packet in self.packets)
            total = np.zeros(grid.n, dtype=np.complex128)
            for packet in self.packets:
                part = init_gaussian_packet(grid, packet.x_center, packet.p_center, packet.sigma)
                weight = packet.weight / scale if scale > 0.0 else packet.weight
                total = total + weight * part.values
        except ValueError as exc:
            raise ScenarioError(f"bad packet: {exc}") from exc
        psi = WaveFunction(grid=grid, values=total, time=0.0)
        norm = l2_norm(psi)
        if not (norm > 0.0 and np.isfinite(norm)):
            raise ScenarioError(f"the packets add up to a wavefunction of norm {norm}")
        return WaveFunction(grid=grid, values=total / norm, time=0.0)


@dataclass(frozen=True)
class LobeTrack:
    """Measured vs predicted center of one post-barrier lobe."""

    label: str
    times: np.ndarray
    x_measured: np.ndarray
    p_measured: np.ndarray
    x_predicted: np.ndarray
    p_predicted: np.ndarray
    mass_fraction: float


@dataclass(frozen=True)
class BarrierSummary:
    transmission: float
    reflection: float
    deadband_fraction: float
    separable: bool
    lobes: tuple[LobeTrack, ...]


@dataclass(frozen=True)
class KineticReport:
    """Histories of the assembled collisional run."""

    times: np.ndarray
    mass: np.ndarray
    entropy: np.ndarray
    current: np.ndarray  # (n_times, n_x)
    densities: tuple[PhaseSpaceDensity, ...]


@dataclass(frozen=True)
class CorrespondenceReport:
    """Per-sample agreement metrics between the two pipelines.

    `l1`/`l2` are relative distances (normalized by the initial
    envelope's mass/L2 norm).  Classical-branch fields are absent for
    experiments whose potential the classical engine cannot legally
    carry (the sharp barrier); metric arrays that are present must be
    finite, and distances non-negative.
    """

    times: np.ndarray
    x_quantum: np.ndarray
    p_quantum: np.ndarray
    mass_envelope: np.ndarray
    scale: ScaleReport
    l1: Optional[np.ndarray] = None
    l2: Optional[np.ndarray] = None
    x_classical: Optional[np.ndarray] = None
    p_classical: Optional[np.ndarray] = None
    mass_classical: Optional[np.ndarray] = None
    barrier: Optional[BarrierSummary] = None

    def __post_init__(self) -> None:
        for f in fields(self):
            arr = getattr(self, f.name)
            if isinstance(arr, np.ndarray) and not np.all(np.isfinite(arr)):
                raise ValueError(f"report metric {f.name} contains non-finite entries")
        for name in ("l1", "l2"):
            arr = getattr(self, name)
            if arr is not None and np.any(arr < 0.0):
                raise ValueError(f"distance {name} must be non-negative")


def dispersion_time(sigma: float, constants: PhysicalConstants) -> float:
    """Horizon 2mσ²/ħ beyond which a width-σ packet stops being slow."""
    return 2.0 * constants.mass * sigma**2 / constants.hbar


def prepare(
    scenario: Scenario, force: bool = False
) -> tuple[WaveFunction, PhaseSpaceGrid, ScaleReport, PhaseSpaceDensity]:
    """ψ₀, the phase-space grid, ψ₀'s scale report and ρ₀ = |A(ψ₀)|².

    The shared prelude of every scenario command.  Raises
    `ScenarioError` when ψ₀ fails the scale separation check, unless
    `force` is set.
    """
    psi0 = scenario.initial_wavefunction()
    pg = scenario.phase_grid()
    report = scale_check(psi0, pg)
    if not report.satisfied and not force:
        raise ScenarioError(
            "initial packet fails the scale separation check (carrier ratio"
            f" {report.carrier_ratio:.3g}, envelope ratio"
            f" {report.envelope_ratio:.3g}); pass force=True to run anyway"
        )
    rho0 = envelope_density(extract_envelope(psi0, pg, potential=scenario.potential))
    return psi0, pg, report, rho0


def quantum_samples(scenario: Scenario, psi0: WaveFunction):
    """Yield ψ(tᵢ) from ψ₀ at every sample time: one `evolve` per
    interval, at step `scenario.dt`.  ψ₀ is passed in, as ρ₀ is to
    `liouville_samples`: the prelude's, where there is one.  A sample at
    t = 0 is ψ₀."""
    psi = psi0
    t_prev = 0.0
    for t_i in scenario.sample_times:
        delta = t_i - t_prev
        if delta > 0.0:
            psi = evolve(psi, scenario.potential, delta, scenario.dt)
        t_prev = t_i
        yield psi


def _relative_distances(
    rho_a: PhaseSpaceDensity, rho_b: PhaseSpaceDensity, mass_ref: float, l2_ref: float
) -> tuple[float, float]:
    diff = rho_a.values - rho_b.values
    cell = rho_a.grid.cell_area / (2.0 * np.pi * rho_a.grid.constants.hbar)
    l1 = float(np.sum(np.abs(diff)) * cell / mass_ref)
    l2 = float(np.sqrt(np.sum(diff**2)) / l2_ref)
    return l1, l2


def run_correspondence(scenario: Scenario, force: bool = False) -> CorrespondenceReport:
    """Evolve both pipelines and measure their agreement.

    Fails with `ScenarioError` when the initial packet flunks the scale
    separation check, unless `force` is set; everything downstream is
    deterministic in the scenario.
    """
    psi0, pg, report_scale, rho0 = prepare(scenario, force)
    mass_ref = phase_space_mass(rho0)
    l2_ref = float(np.sqrt(np.sum(rho0.values**2)))

    n = len(scenario.sample_times)
    times = np.asarray(scenario.sample_times, dtype=float)
    l1 = np.empty(n)
    l2 = np.empty(n)
    x_q = np.empty(n)
    p_q = np.empty(n)
    x_c = np.empty(n)
    p_c = np.empty(n)
    m_env = np.empty(n)
    m_cl = np.empty(n)

    # refuses a potential with no classical flow before any quantum work
    classical = liouville_samples(rho0, scenario.potential, times, dt=scenario.dt)
    xc, pc, t_prev = expectation_x(psi0), expectation_p(psi0), 0.0
    for i, (psi, rho_cl) in enumerate(zip(quantum_samples(scenario, psi0), classical)):
        rho_env = envelope_density(extract_envelope(psi, pg, potential=scenario.potential))
        l1[i], l2[i] = _relative_distances(rho_env, rho_cl, mass_ref, l2_ref)
        x_q[i], p_q[i] = expectation_x(psi), expectation_p(psi)
        # the packet-center characteristic continues from the previous sample
        xc, pc = flow_map(
            xc, pc, times[i] - t_prev, scenario.dt, scenario.potential, pg.constants.mass
        )
        t_prev = times[i]
        x_c[i], p_c[i] = float(xc), float(pc)
        m_env[i] = phase_space_mass(rho_env)
        m_cl[i] = phase_space_mass(rho_cl)

    return CorrespondenceReport(
        times=times,
        x_quantum=x_q,
        p_quantum=p_q,
        mass_envelope=m_env,
        scale=report_scale,
        l1=l1,
        l2=l2,
        x_classical=x_c,
        p_classical=p_c,
        mass_classical=m_cl,
    )


def _lobe_center(rho: PhaseSpaceDensity, mask: np.ndarray) -> tuple[float, float, float]:
    """(⟨x⟩, ⟨p⟩, mass fraction) of the momentum cells `mask` selects."""
    g = rho.grid
    weights = rho.values * mask
    total = float(np.sum(weights))
    whole = float(np.sum(rho.values))
    if total <= 0.0:
        return float("nan"), float("nan"), 0.0
    x = float(np.sum(weights.sum(axis=1) * g.x_centers) / total)
    p = float(np.sum(weights.sum(axis=0) * g.p_centers) / total)
    return x, p, total / whole


def barrier_split_experiment(scenario: Scenario, force: bool = False) -> CorrespondenceReport:
    """Split a packet on a barrier and track each lobe classically.

    The first sample time is the segmentation time: the packet must
    have cleared the barrier by then.  Transmitted (p > Δp) and
    reflected (p < -Δp) lobes are identified in ρ_env; their centers at
    later samples are compared against free-flight characteristics
    started from the segmentation-time centers (the regions away from
    the barrier are potential-free, and the sharp barrier itself is not
    admissible for the classical engine).  Lobes sharing more than 10%
    of the mass with the dead band |p| ≤ Δp are flagged as inseparable,
    not fatal.
    """
    if len(scenario.sample_times) < 2:
        raise ScenarioError("barrier experiment needs a segmentation time plus samples")
    barrier_x = getattr(scenario.potential, "x_b", None)
    if barrier_x is None:
        raise ScenarioError("barrier experiment needs a potential with a barrier position x_b")
    psi0, pg, report_scale, _ = prepare(scenario, force)

    dead = pg.p_halfwidth
    transmitted, reflected = pg.p_centers > dead, pg.p_centers < -dead

    n = len(scenario.sample_times)
    times = np.asarray(scenario.sample_times, dtype=float)
    x_q = np.empty(n)
    p_q = np.empty(n)
    m_env = np.empty(n)
    # (⟨x⟩, ⟨p⟩, mass fraction) of the transmitted and reflected lobe per sample
    tracks = np.empty((2, n, 3))
    psi_last = None

    for i, psi in enumerate(quantum_samples(scenario, psi0)):
        rho_env = envelope_density(extract_envelope(psi, pg, potential=scenario.potential))
        x_q[i], p_q[i] = expectation_x(psi), expectation_p(psi)
        m_env[i] = phase_space_mass(rho_env)
        tracks[0, i] = _lobe_center(rho_env, transmitted)
        tracks[1, i] = _lobe_center(rho_env, reflected)
        psi_last = psi

    transmission, reflection = transmission_reflection(psi_last, float(barrier_x))
    deadband = float(1.0 - tracks[0, 0, 2] - tracks[1, 0, 2])

    lobes = []
    for label, (xs, ps, fractions) in zip(("transmitted", "reflected"), tracks.transpose(0, 2, 1)):
        if fractions[0] <= 1e-6:
            continue  # e.g. no reflected lobe for a transparent barrier
        x_pred, p_pred = FreePotential().flow(xs[0], ps[0], times - times[0], pg.constants.mass)
        lobes.append(
            LobeTrack(
                label=label,
                times=times,
                x_measured=xs,
                p_measured=ps,
                x_predicted=x_pred,
                p_predicted=np.full(n, p_pred),
                mass_fraction=float(np.mean(fractions)),
            )
        )

    summary = BarrierSummary(
        transmission=transmission,
        reflection=reflection,
        deadband_fraction=deadband,
        separable=deadband <= 0.1,
        lobes=tuple(lobes),
    )
    return CorrespondenceReport(
        times=times,
        x_quantum=x_q,
        p_quantum=p_q,
        mass_envelope=m_env,
        scale=report_scale,
        barrier=summary,
    )


def kinetic_scenario(scenario: Scenario, force: bool = False) -> KineticReport:
    """Run the assembled collisional transport and log its histories.

    The initial distribution is the windowed projection of the
    scenario's packet, and the densities are those of
    `kinetics.boltzmann_samples`, each sample advanced from the previous
    one.  A rate-free run is therefore `liouville_samples`, the
    classical branch of `run_correspondence`, sample by sample and bit
    for bit.  The work grows with the last sample time, and on sample
    times that are whole multiples of `dt` every sample carries the
    same bits as an evolution from t = 0.
    """
    *_, f0 = prepare(scenario, force)
    times = np.asarray(scenario.sample_times, dtype=float)
    densities = list(
        boltzmann_samples(f0, scenario.potential, scenario.rates, times, dt=scenario.dt)
    )
    return KineticReport(
        times=times,
        mass=np.array([phase_space_mass(f_i) for f_i in densities]),
        entropy=np.array([entropy(f_i.values) for f_i in densities]),
        current=np.array([current_density(f_i) for f_i in densities]),
        densities=tuple(densities),
    )
