"""Acceptance gate: twelve end-to-end criteria, one test each.

Each test prints its measured numbers next to the pinned tolerance, so
`pytest -v` reads as a checklist.  Tolerances are frozen — they encode
the error budget of each pipeline stage, not what the code happens to
produce — and the measured values here were cross-checked against the
independent oracles in `oracles.py` before being trusted.

Criterion 1 is expected to fail at its two latest sample times: the
free-packet scenario samples past half the dispersion horizon, where
the envelope comparison degrades quadratically no matter how the
projection is tuned (tightening the window to slow dispersion violates
the scale-separation gate instead).  The failure is structural, so it
is left red rather than papered over with a looser tolerance.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import semikin
from semikin.core import (
    PhaseSpaceDensity,
    PhaseSpaceGrid,
    PhysicalConstants,
    phase_space_mass,
)
from semikin.correspondence import (
    barrier_split_experiment,
    dispersion_time,
    kinetic_scenario,
    run_correspondence,
)
from semikin.envelope import chi_kernel
from semikin.io import load_scenario
from semikin.kinetics import (
    FockEnsemble,
    InteractionMatrix,
    Occupation,
    StateSpace,
    current_density,
    entropy,
    evolve_master,
    fermi_rates,
    incoherent_average,
    number_correlator,
)
from semikin.liouville import HamiltonianSpec, evolve_liouville, flow_jacobian
from semikin.manybody import CarrierState, EnvelopeFunctionND, kinetic_cross_term_check
from semikin.schrodinger import HarmonicPotential, LinearPotential

from conftest import gaussian_blob, square_grid
from oracles import dense_master, upwind_transport

SCENARIO_DIR = Path(semikin.__file__).parent / "scenarios"
CONSTANTS = PhysicalConstants()


@pytest.fixture(scope="module")
def free_packet_report():
    """Shared by criteria 1 and 11: the flagship free-packet comparison."""
    scenario = load_scenario(SCENARIO_DIR / "free_packet.ini")
    return scenario, run_correspondence(scenario)


def relative_l1(a, b, grid, mass_ref):
    cell = grid.cell_area / (2.0 * np.pi * grid.constants.hbar)
    return float(np.sum(np.abs(a - b)) * cell / mass_ref)


# --------------------------------------------------------------------------


def test_criterion_01_free_packet_envelope_tracks_classical_transport(
    free_packet_report,
):
    scenario, report = free_packet_report
    sigma = scenario.packets[0].sigma
    horizon = dispersion_time(sigma, scenario.constants)
    for t, l1 in zip(report.times, report.l1):
        print(f"criterion 1: t={t:6.0f} (t/t_disp={t / horizon:.3f})  L1={l1:.5f}")
    worst = float(np.max(report.l1))
    assert worst <= 0.05, (
        f"L1 reaches {worst:.5f}; the samples at t/t_disp > 0.4 sit past the"
        " point where packet dispersion alone exceeds the budget"
    )


def test_criterion_02_uniform_force_packet_centers_ride_characteristics():
    scenario = load_scenario(SCENARIO_DIR / "linear_ramp.ini")
    report = run_correspondence(scenario)
    sigma = scenario.packets[0].sigma
    p_carrier = scenario.packets[0].p_center
    dx = float(np.max(np.abs(report.x_quantum - report.x_classical)))
    dp = float(np.max(np.abs(report.p_quantum - report.p_classical)))
    print(f"criterion 2: max|Δx|={dx:.3e} (≤ {1e-3 * sigma}), max|Δp|={dp:.3e}")
    assert dx <= 1e-3 * sigma
    assert dp <= 1e-3 * p_carrier


def test_criterion_03_harmonic_recurrence_and_unit_flow_jacobian():
    trap = HamiltonianSpec(mass=1.0, potential=HarmonicPotential(k=1.0))
    grid = square_grid(256, 8.0, CONSTANTS)
    rho0 = gaussian_blob(grid, 1.5, 0.0, 1.0, 1.0)
    mass0 = phase_space_mass(rho0)
    period = 2.0 * np.pi
    out = evolve_liouville(rho0, trap, period, dt=period / 4096)
    l1 = relative_l1(out.values, rho0.values, grid, mass0)
    drift = (phase_space_mass(out) - mass0) / mass0
    print(f"criterion 3: recurrence L1={l1:.3e} (≤ 0.02), mass drift={drift:.2e}")
    assert l1 <= 0.02

    rng = np.random.default_rng(21)
    xs = rng.uniform(-3.0, 3.0, 1000)
    ps = rng.uniform(-3.0, 3.0, 1000)
    worst = max(
        abs(flow_jacobian(float(x), float(p), 1.3, trap, dt=1.3 / 64) - 1.0)
        for x, p in zip(xs, ps)
    )
    print(f"criterion 3: worst |J-1| over 1000 points = {worst:.3e} (≤ 1e-6)")
    assert worst <= 1e-6


def test_criterion_04_semi_lagrangian_matches_dense_upwind_oracle():
    x = np.linspace(-8.0, 8.0, 64)
    p = np.linspace(-3.0, 3.0, 64)
    grid = PhaseSpaceGrid(
        x_centers=x, window_width=float(x[1] - x[0]),
        p_centers=p, p_halfwidth=float((p[1] - p[0]) / 2), constants=CONSTANTS,
        periodic_x=True,
    )
    rho0 = gaussian_blob(grid, 0.0, 0.6, 2.2, 0.42)
    ramp = HamiltonianSpec(mass=1.0, potential=LinearPotential(force=1.0))
    sl = evolve_liouville(rho0, ramp, 0.5, dt=0.5 / 64)
    fd = upwind_transport(
        rho0.values, x, p, lambda xv: np.full_like(xv, 1.0), 1.0, 0.5,
        cfl=0.9, periodic_x=True,
    )
    l1 = relative_l1(sl.values, fd, grid, phase_space_mass(rho0))
    print(f"criterion 4: L1(semi-Lagrangian, dense upwind) = {l1:.5f} (≤ 0.05)")
    assert l1 <= 0.05


def test_criterion_05_projection_kernel_delta_sequence():
    dxw, hbar, p0 = 16.0, 1.0, 1.0
    assert chi_kernel(p0, p0, dxw=dxw) == 1.0  # removable singularity, exact

    beats = p0 + np.arange(1, 5) * 2.0 * np.pi * hbar / dxw
    zeros = np.max(np.abs(chi_kernel(beats, p0, dxw=dxw)))
    print(f"criterion 5: worst |χ| at whole beats = {zeros:.3e} (≤ 1e-12)")
    assert zeros <= 1e-12

    # weak-limit mass: the centered kernel is sinc(u/2) in the scaled
    # offset u = (p-p₀)Δx/ħ; (2πħ)⁻¹∫χ dp → (2π)⁻¹∫sinc(u/2) du = 1.
    # Integrate beat by beat over 400 beats and close with the
    # asymptotic tail of the sine integral.
    def centered(u):
        val = chi_kernel(p0 + u * hbar / dxw, p0, dxw=dxw, hbar=hbar)
        return (np.exp(-0.5j * u) * val).real / (2.0 * np.pi)

    total = sum(
        quad(centered, k * np.pi, (k + 1) * np.pi, limit=200)[0]
        for k in range(-400, 400)
    )
    half = 200.0 * np.pi  # upper limit in v = u/2
    tail = 2.0 * (
        math.cos(half) / half
        - 2.0 * math.sin(half) / half**2
        - 2.0 * math.cos(half) / half**3
    )
    total += 2.0 * tail / (2.0 * np.pi)
    print(f"criterion 5: weak-limit mass = {total:.12f} (|·-1| ≤ 1e-6)")
    assert abs(total - 1.0) <= 1e-6


def test_criterion_06_carrier_envelope_cross_term_vanishes():
    def sum_gaussian():
        return EnvelopeFunctionND(
            func=lambda xs: np.exp(-np.sum(xs) ** 2 / 8.0),
            grad=lambda xs: np.full(
                xs.size, -np.sum(xs) / 4.0 * np.exp(-np.sum(xs) ** 2 / 8.0)
            ),
            symmetric=True,
        )

    xs2 = np.array([0.4, 1.1])
    for statistics, momenta in (("fermion", (0.7, -0.3)), ("boson", (0.7, 0.7))):
        state = CarrierState(statistics, momenta)
        residual = kinetic_cross_term_check(state, sum_gaussian(), xs2)
        print(f"criterion 6: n=2 {statistics} analytic residual = {residual:.3e} (≤ 1e-10)")
        assert residual <= 1e-10

    lorentz = EnvelopeFunctionND(
        func=lambda xs: 1.0 / (1.0 + np.sum(xs) ** 2), grad=None, symmetric=True
    )
    xs3 = np.array([0.2, 0.8, 1.7])
    for statistics in ("fermion", "boson"):
        state = CarrierState(statistics, (0.9, 0.1, -0.5))
        residual = kinetic_cross_term_check(state, lorentz, xs3, h=1e-5)
        print(f"criterion 6: n=3 {statistics} numeric residual = {residual:.3e} (≤ 1e-9)")
        assert residual <= 1e-9

    # negative control: an envelope that is NOT a function of Σx, passed
    # off as symmetric — the identity must visibly break, not hide
    crooked = EnvelopeFunctionND(
        func=lambda xs: np.exp(-((xs[0] - 2.0 * xs[1]) ** 2) / 8.0),
        grad=None,
        symmetric=True,
    )
    control = kinetic_cross_term_check(CarrierState("fermion", (0.7, -0.3)), crooked, xs2)
    print(f"criterion 6: negative control residual = {control:.3f} (≥ 1e-2)")
    assert control >= 1e-2


def test_criterion_07_master_equation_against_analytic_relaxation():
    # two-level: Q01 = 2π|v|²δ_η(0), occupations relax as e^{-2γt}
    v, eta = 0.3, 0.2
    rates2 = fermi_rates(
        InteractionMatrix(np.array([[0, v], [v, 0]], dtype=complex)),
        StateSpace(np.array([0.0, 0.0])),
        eta=eta,
    )
    gamma = rates2.values[0, 1]
    worst2 = max(
        abs(
            evolve_master(Occupation(np.array([1.0, 0.0])), rates2, t).values[0]
            - 0.5 * (1.0 + math.exp(-2.0 * gamma * t))
        )
        for t in (0.1, 0.5, 1.0, 3.0)
    )
    print(f"criterion 7: two-level analytic residual = {worst2:.3e} (≤ 1e-10)")
    assert worst2 <= 1e-10

    # K=8: valid generator, and the two propagators agree
    rng = np.random.default_rng(17)
    energies = rng.uniform(0.0, 2.0, 8)
    v8 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    v8 = (v8 + v8.conj().T) / 2.0
    np.fill_diagonal(v8, 0.0)
    rates8 = fermi_rates(InteractionMatrix(v8), StateSpace(energies), eta=0.5)
    scale = float(np.max(np.abs(rates8.values)))
    rows = float(np.max(np.abs(rates8.values.sum(axis=1)))) / scale
    rho0 = rng.random(8)
    rho0 /= rho0.sum()
    a = dense_master(rates8.values, rho0, 3.0)
    b = evolve_master(Occupation(rho0), rates8, 3.0)
    gap = float(np.max(np.abs(a - b.values)))
    print(f"criterion 7: row-sum residual = {rows:.3e}, propagator gap = {gap:.3e} (≤ 1e-8)")
    assert rows <= 1e-13
    assert gap <= 1e-8

    # H-theorem sweep: 100 random symmetric generators, entropy never drops
    sweep = np.random.default_rng(99)
    worst_drop = 0.0
    for _ in range(100):
        k = int(sweep.integers(2, 7))
        energies = sweep.uniform(0.0, 1.0, k)
        vk = sweep.normal(size=(k, k)) + 1j * sweep.normal(size=(k, k))
        vk = (vk + vk.conj().T) / 2.0
        np.fill_diagonal(vk, 0.0)
        rates = fermi_rates(InteractionMatrix(vk), StateSpace(energies), eta=1.0)
        rho = sweep.random(k)
        rho /= rho.sum()
        s_prev = entropy(rho)
        for t in (0.02, 0.1, 0.5, 2.0):
            s_now = entropy(evolve_master(Occupation(rho), rates, t))
            worst_drop = min(worst_drop, s_now - s_prev)
            s_prev = s_now
    print(f"criterion 7: worst entropy increment over 100 sweeps = {worst_drop:.3e}")
    assert worst_drop >= -1e-12


def test_criterion_08_correlator_noise_scaling_and_phase_averaging():
    sizes = (100, 1000, 10000)
    means = []
    for n in sizes:
        vals = [
            abs(
                number_correlator(
                    FockEnsemble.random_phases(
                        3, 2, n, np.random.default_rng(7 * 1000 + n + trial)
                    ),
                    0,
                    1,
                )
            )
            for trial in range(16)
        ]
        means.append(float(np.mean(vals)))
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    print(f"criterion 8: off-diagonal decay slope = {slope:.4f} (within 0.15 of -1/2)")
    assert abs(slope + 0.5) <= 0.15

    rng = np.random.default_rng(3)
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    a /= np.linalg.norm(a)
    o = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    o = (o + o.conj().T) / 2.0
    draws = np.empty(4096)
    for i in range(draws.size):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 8))
        draws[i] = incoherent_average(a * phases, o, coherent=True)
    inc = incoherent_average(a, o, coherent=False)
    se = float(draws.std(ddof=1) / np.sqrt(draws.size))
    z = abs(inc - float(draws.mean())) / se
    print(f"criterion 8: incoherent vs phase-averaged coherent: z = {z:.3f} (≤ 3)")
    assert z <= 3.0


def test_criterion_09_current_density_parity_and_drift():
    # bitwise-symmetric momentum grid: even distributions carry nothing
    pc = (np.arange(61) - 30) * 0.1
    grid = PhaseSpaceGrid(
        x_centers=np.arange(4.0), window_width=1.0,
        p_centers=pc, p_halfwidth=0.05, constants=CONSTANTS,
    )
    f_even = np.tile(np.exp(-(pc**2) / 0.8), (4, 1))
    j_even = current_density(PhaseSpaceDensity(grid=grid, values=f_even))
    print(f"criterion 9: even-distribution current max |j| = {np.max(np.abs(j_even))}")
    assert np.all(j_even == 0.0)

    u, temp, n0 = 0.8, 1.0, 0.7
    p = np.linspace(u - 7.0, u + 7.0, 281)
    grid_m = PhaseSpaceGrid(
        x_centers=np.arange(4.0), window_width=1.0,
        p_centers=p, p_halfwidth=float((p[1] - p[0]) / 2), constants=CONSTANTS,
    )
    f_row = n0 * 2.0 * np.pi * np.exp(-((p - u) ** 2) / (2.0 * temp))
    f_row /= math.sqrt(2.0 * math.pi * temp)
    j = current_density(PhaseSpaceDensity(grid=grid_m, values=np.tile(f_row, (4, 1))))
    rel = float(np.max(np.abs(j - n0 * u)) / (n0 * u))
    print(f"criterion 9: drifting Maxwellian j vs e·n·u: rel err = {rel:.3e} (≤ 1e-2)")
    assert rel <= 1e-2


def test_criterion_10_barrier_split_budget_and_lobe_tracking():
    t_start = time.monotonic()
    scenario = load_scenario(SCENARIO_DIR / "barrier_split.ini")
    report = barrier_split_experiment(scenario)
    elapsed = time.monotonic() - t_start
    b = report.barrier
    sigma = scenario.packets[0].sigma
    print(
        f"criterion 10: T={b.transmission:.6f} R={b.reflection:.6f}"
        f" T+R-1={b.transmission + b.reflection - 1.0:.2e} ({elapsed:.1f}s)"
    )
    assert abs(b.transmission + b.reflection - 1.0) <= 1e-10
    assert 0.2 <= b.transmission <= 0.8
    assert b.separable
    tracked = [lobe for lobe in b.lobes if lobe.mass_fraction >= 0.01]
    assert {lobe.label for lobe in tracked} == {"transmitted", "reflected"}
    for lobe in tracked:
        worst = float(np.max(np.abs(lobe.x_measured - lobe.x_predicted)))
        print(
            f"criterion 10: {lobe.label} lobe (mass {lobe.mass_fraction:.3f})"
            f" worst |Δx| = {worst:.3f} (≤ {0.2 * sigma})"
        )
        assert worst <= 0.2 * sigma
    assert elapsed <= 300.0


def test_criterion_11_collisionless_reduction_and_collisional_entropy(
    free_packet_report,
):
    scenario, report = free_packet_report
    kinetic = kinetic_scenario(scenario)  # rates=None: pure streaming
    matches = [bool(a == b) for a, b in zip(kinetic.mass, report.mass_classical)]
    print(f"criterion 11: rate-free masses bitwise equal classical branch: {matches}")
    assert all(matches)

    relax = kinetic_scenario(load_scenario(SCENARIO_DIR / "relaxation.ini"))
    drift = float(np.max(np.abs(relax.mass - relax.mass[0])) / relax.mass[0])
    increments = np.diff(relax.entropy)
    print(
        f"criterion 11: collisional mass drift = {drift:.3e} (≤ 1e-6),"
        f" entropy {relax.entropy[0]:.3f} → {relax.entropy[-1]:.3f}"
    )
    assert drift <= 1e-6
    assert np.all(increments >= -1e-12)


def test_criterion_12_streaming_reversible_collisions_not():
    # streaming: forward-then-back lands within twice the one-way
    # interpolation error of the start
    trap = HamiltonianSpec(mass=1.0, potential=HarmonicPotential(k=1.0))
    grid = square_grid(128, 8.0, CONSTANTS)
    rho0 = gaussian_blob(grid, 1.5, 0.0, 1.0, 1.0)
    mass0 = phase_space_mass(rho0)
    theta = 0.785
    forward = evolve_liouville(rho0, trap, theta, dt=theta / 512)
    back = evolve_liouville(forward, trap, -theta, dt=theta / 512)
    xx, pp = np.meshgrid(grid.x_centers, grid.p_centers, indexing="ij")
    ct, st = np.cos(theta), np.sin(theta)
    exact = np.exp(-((xx * ct - pp * st - 1.5) ** 2 / 2.0 + (pp * ct + xx * st) ** 2 / 2.0))
    one_way = relative_l1(forward.values, exact, grid, mass0)
    round_trip = relative_l1(back.values, rho0.values, grid, mass0)
    print(
        f"criterion 12: one-way L1={one_way:.5f}, round trip={round_trip:.5f},"
        f" ratio={round_trip / one_way:.3f} (≤ 2)"
    )
    assert round_trip <= 2.0 * one_way

    # collisions: backward time is refused outright, and running forward
    # twice as long does not return anywhere near the initial state
    v, eta = 0.3, 0.2
    rates = fermi_rates(
        InteractionMatrix(np.array([[0, v], [v, 0]], dtype=complex)),
        StateSpace(np.array([0.0, 0.0])),
        eta=eta,
    )
    gamma = rates.values[0, 1]
    rho = Occupation(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="irreversible"):
        evolve_master(rho, rates, -1.0 / gamma)
    halfway = evolve_master(rho, rates, 1.0 / gamma)
    final = evolve_master(halfway, rates, 1.0 / gamma)
    l1 = float(np.sum(np.abs(final.values - rho.values)))
    print(f"criterion 12: forward-forward L1 from start = {l1:.5f} (≥ 0.1)")
    assert l1 >= 0.1
