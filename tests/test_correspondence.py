"""Paired-pipeline experiments: wave packets against classical transport.

The correspondence runner evolves one scenario through the wave solver
and through phase-space transport and reports their L1/L2 distance per
sample.  The distances are relative, so the numbers below read as
fractions of the initial envelope mass; trust degrades quadratically in
t/t_disp with t_disp = 2mσ²/ħ, and scenarios are sampled well inside
that horizon unless the test says otherwise.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import semikin
from semikin.core import PhysicalConstants, l2_norm
from semikin import correspondence, kinetics, liouville
from semikin.correspondence import (
    CorrespondenceReport,
    PacketSpec,
    Scenario,
    barrier_split_experiment,
    dispersion_time,
    kinetic_scenario,
    prepare,
    quantum_samples,
    run_correspondence,
)
from semikin.envelope import ScaleReport
from semikin.errors import NumericalFailure, ScenarioError
from semikin.io import load_scenario
from semikin.kinetics import RateMatrix, evolve_boltzmann
from semikin.liouville import _step_count
from semikin.schrodinger import FreePotential

from conftest import VerletOnly
from oracles import dispersion_l1, ring_boltzmann

SCENARIO_DIR = Path(semikin.__file__).parent / "scenarios"


def tiny_scenario(sigma=48.0, sample_times=(0.0, 16.0)):
    """1024-cell free packet; runs in milliseconds."""
    return Scenario(
        name="tiny",
        packets=(PacketSpec(x_center=512.0, p_center=1.0, sigma=sigma),),
        dx=1.0,
        n_x=1024,
        window_cells=16,
        grid_p_center=1.0,
        sample_times=sample_times,
        dt=0.1,
    )


def test_dispersion_time_is_two_m_sigma_squared_over_hbar():
    c = PhysicalConstants()
    assert dispersion_time(50.0, c) == 5000.0
    assert dispersion_time(10.0, PhysicalConstants(mass=2.0)) == 400.0


class TestScenarioValidation:
    def test_needs_a_packet(self):
        with pytest.raises(ScenarioError, match="at least one packet"):
            Scenario(
                name="x", packets=(), dx=1.0, n_x=64, window_cells=16,
                sample_times=(1.0,), dt=0.1,
            )

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ScenarioError, match="dt must be positive"):
            Scenario(
                name="x", packets=(PacketSpec(32.0, 1.0, 4.0),), dx=1.0,
                n_x=64, window_cells=16, sample_times=(1.0,), dt=0.0,
            )

    def test_rejects_step_counts_that_cannot_finish(self):
        with pytest.raises(ScenarioError, match="more than 10000000"):
            Scenario(
                name="x", packets=(PacketSpec(32.0, 1.0, 4.0),), dx=1.0,
                n_x=64, window_cells=16, sample_times=(1.0,), dt=1e-8,
            )

    def test_rejects_unsorted_sample_times(self):
        with pytest.raises(ScenarioError, match="strictly increasing"):
            Scenario(
                name="x", packets=(PacketSpec(32.0, 1.0, 4.0),), dx=1.0,
                n_x=64, window_cells=16, sample_times=(2.0, 1.0), dt=0.1,
            )

    def test_rejects_empty_sample_times(self):
        with pytest.raises(ScenarioError, match="sample time"):
            Scenario(
                name="x", packets=(PacketSpec(32.0, 1.0, 4.0),), dx=1.0,
                n_x=64, window_cells=16, sample_times=(), dt=0.1,
            )

    def test_inconsistent_grids_fail_at_construction(self):
        with pytest.raises(ScenarioError, match="inconsistent grids"):
            Scenario(
                name="x", packets=(PacketSpec(32.0, 1.0, 4.0),), dx=1.0,
                n_x=64, window_cells=24, sample_times=(1.0,), dt=0.1,
            )

    def test_a_rate_matrix_off_the_momentum_cells_is_refused(self):
        # tiny_scenario has 16 momentum cells; kinetics would fail only when run
        with pytest.raises(ScenarioError, match="rates of size 2 on 16 momentum cells"):
            dataclasses.replace(tiny_scenario(), rates=RateMatrix(values=np.zeros((2, 2)), eta=0.1))

    def test_a_rates_builder_runs_once_on_the_phase_grid(self):
        grids = []

        def build(grid):
            grids.append(grid)
            return RateMatrix(values=np.zeros((16, 16)), eta=0.1)

        scenario = dataclasses.replace(tiny_scenario(), rates=build)
        assert len(grids) == 1 and grids[0] is scenario.phase_grid()
        assert isinstance(scenario.rates, RateMatrix)

    def test_packet_weights_are_relative(self):
        # ψ₀ is normalised, so only the ratios of the weights matter; a
        # weight of 1e300 alone must not overflow on the way there
        unit = tiny_scenario()
        huge = dataclasses.replace(
            unit, packets=(dataclasses.replace(unit.packets[0], weight=1e300),)
        )
        assert np.array_equal(
            huge.initial_wavefunction().values, unit.initial_wavefunction().values
        )


class TestQuantumSamples:
    def test_yields_one_state_per_sample_time(self):
        scenario = tiny_scenario()
        psis = list(quantum_samples(scenario, scenario.initial_wavefunction()))
        assert len(psis) == 2
        assert [psi.time for psi in psis] == [0.0, 16.0]
        for psi in psis:
            assert abs(l2_norm(psi) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "dt, last, admissible",
        # dx = 1 puts the budget |dt|·E_max/ħ < 0.5 at dt < 0.1013; an
        # interval that is not a whole number of dt must not move it
        [(0.1, 0.14, True), (0.11, 0.29, False)],
        ids=["inside", "outside"],
    )
    def test_the_budget_binds_the_scenario_dt(self, dt, last, admissible):
        scenario = dataclasses.replace(tiny_scenario(sample_times=(0.0, last)), dt=dt)
        psi0 = scenario.initial_wavefunction()
        if admissible:
            assert [psi.time for psi in quantum_samples(scenario, psi0)] == [0.0, last]
        else:
            with pytest.raises(NumericalFailure, match="time step too large"):
                list(quantum_samples(scenario, psi0))


class TestReportValidation:
    SCALE = ScaleReport(6.28, 48.0, 0.06, 0.2, True)

    def _report(self, **overrides):
        fields = dict(
            times=np.array([1.0]),
            x_quantum=np.array([0.0]),
            p_quantum=np.array([1.0]),
            mass_envelope=np.array([0.0625]),
            scale=self.SCALE,
        )
        fields.update(overrides)
        return CorrespondenceReport(**fields)

    def test_non_finite_metrics_are_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            self._report(x_quantum=np.array([np.nan]))

    def test_negative_distances_are_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            self._report(l1=np.array([-1e-3]))

    def test_optional_metrics_may_be_absent(self):
        report = self._report()
        assert report.l1 is None and report.barrier is None


class TestRunCorrespondence:
    def test_time_zero_sample_agrees_to_roundoff(self):
        report = run_correspondence(tiny_scenario())
        assert report.l1[0] < 1e-12
        assert report.l2[0] < 1e-12

    def test_free_packet_rides_the_classical_characteristic(self):
        report = run_correspondence(tiny_scenario())
        assert report.l1[1] < 0.01  # one window transit, t/t_disp = 0.0035
        assert np.allclose(report.x_classical, [512.0, 528.0], atol=1e-6)
        assert np.max(np.abs(report.x_quantum - report.x_classical)) < 1e-6
        assert np.max(np.abs(report.p_quantum - report.p_classical)) < 1e-9

    def test_envelope_mass_is_parseval_exact(self):
        report = run_correspondence(tiny_scenario())
        # unit-norm state on 16-cell windows carries mass 1/16
        assert np.allclose(report.mass_envelope, 1.0 / 16.0, atol=1e-12)
        assert np.allclose(report.mass_classical, 1.0 / 16.0, rtol=1e-6)

    def test_scale_gate_blocks_wide_momentum_packets(self):
        # σ = 40 on 16-cell windows leaves only 2.5 envelope widths per
        # window bound — the projection is not trustworthy and must say so
        with pytest.raises(ScenarioError, match="scale separation"):
            run_correspondence(tiny_scenario(sigma=40.0))

    def test_force_overrides_the_gate_but_keeps_the_verdict(self):
        report = run_correspondence(tiny_scenario(sigma=40.0), force=True)
        assert not report.scale.satisfied
        assert np.all(np.isfinite(report.l1))

    def test_harmonic_trap_mirrors_and_recurs(self):
        # phase space rotates rigidly: T/2 is the point-mirrored initial
        # state (small left-Riemann bias in the quantum phase), T recurs
        scenario = load_scenario(SCENARIO_DIR / "harmonic_trap.ini")
        report = run_correspondence(scenario)
        assert report.l1[0] < 0.08, f"half-period mirror L1 {report.l1[0]}"
        assert report.l1[1] < 1e-6, f"full-period recurrence L1 {report.l1[1]}"

    def test_crossing_packets_stay_separated_in_phase_space(self):
        # position space shows fringes while the packets overlap; the
        # windowed density keeps the branches apart in momentum and the
        # classical comparison never degrades beyond a couple percent
        scenario = load_scenario(SCENARIO_DIR / "two_packet.ini")
        report = run_correspondence(scenario)
        assert report.l1[0] < 1e-12
        assert np.max(report.l1) < 0.05, f"crossing L1 {report.l1}"
        assert np.allclose(report.mass_envelope, 1.0 / 16.0, atol=1e-12)

    def test_a_sharp_potential_is_refused_before_any_quantum_work(self, monkeypatch):
        # barrier_split's first sample is t = 900: a refusal on the first
        # classical sample would come after the quantum run up to it
        calls = []
        evolve = correspondence.evolve

        def counted(*args, **kwargs):
            calls.append(args)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(correspondence, "evolve", counted)
        with pytest.raises(ValueError, match="smooth"):
            run_correspondence(load_scenario(SCENARIO_DIR / "barrier_split.ini"))
        assert calls == []


class TestOneBuilderPerRunObject:
    def test_the_prelude_builds_psi0_once_and_the_grids_are_kept(self, monkeypatch):
        # the quantum samples start from the prelude's ψ₀; a second
        # ψ₀ per run, or a fresh grid per `phase_grid()` call, is waste
        calls = []
        init = correspondence.init_gaussian_packet

        def counted(*args, **kwargs):
            calls.append(args)
            return init(*args, **kwargs)

        monkeypatch.setattr(correspondence, "init_gaussian_packet", counted)
        scenario = tiny_scenario()
        run_correspondence(scenario)
        assert len(calls) == len(scenario.packets)
        assert scenario.phase_grid() is scenario.phase_grid()
        grid = scenario.phase_grid()
        stencil = liouville.TransportStencil.backtrace(grid, scenario.potential, 1.0)
        with pytest.raises(ValueError, match="stencil's grid"):
            stencil.move(np.ones((3, 4)))


class TestDispersionShare:
    def test_criterion_1_is_dispersion_plus_a_small_remainder(self):
        # criterion 1's red on free_packet: the closed-form L1 of the
        # dispersed against the undispersed x-marginal is a lower bound,
        # since marginalising cannot raise L1, and the rest stays small
        scenario = load_scenario(SCENARIO_DIR / "free_packet.ini")
        report = run_correspondence(scenario)
        sigma = scenario.packets[0].sigma
        horizon = dispersion_time(sigma, scenario.constants)
        width = scenario.phase_grid().window_width
        for t, l1 in zip(report.times, report.l1):
            remainder = l1 - dispersion_l1(sigma, width, t / horizon)
            assert 0.0 <= remainder <= 0.005, f"t = {t:g}: L1 {l1:.5f}, remainder {remainder:.5f}"


class TestBarrierSplit:
    def test_needs_two_sample_times(self):
        scenario = Scenario(
            name="b", packets=(PacketSpec(512.0, 1.0, 48.0),), dx=1.0,
            n_x=1024, window_cells=16, grid_p_center=1.0,
            sample_times=(10.0,), dt=0.1,
        )
        with pytest.raises(ScenarioError, match="segmentation"):
            barrier_split_experiment(scenario)

    def test_needs_a_barrier(self):
        with pytest.raises(ScenarioError, match="barrier position"):
            barrier_split_experiment(tiny_scenario())

    def test_a_missing_barrier_fails_before_the_prelude(self, monkeypatch):
        # ψ₀, the scale check and the envelope extraction are wasted work
        # when the potential has no x_b; every barrier-free bundled
        # scenario must fail on x_b without reaching `prepare`
        def refuse(*args, **kwargs):
            raise AssertionError("prepare ran before the barrier check")

        monkeypatch.setattr(correspondence, "prepare", refuse)
        free_of_barriers = sorted(
            path for path in SCENARIO_DIR.glob("*.ini") if path.stem != "barrier_split"
        )
        assert len(free_of_barriers) == 8
        for path in free_of_barriers:
            with pytest.raises(ScenarioError, match="barrier position x_b"):
                barrier_split_experiment(load_scenario(path))

    def test_transparent_barrier_transmits_everything(self):
        scenario = load_scenario(
            SCENARIO_DIR / "barrier_split.ini", overrides={"potential.v0": "0.0"}
        )
        report = barrier_split_experiment(scenario)
        b = report.barrier
        assert b.transmission > 0.999
        assert b.reflection < 1e-12
        assert abs(b.transmission + b.reflection - 1.0) < 1e-10
        assert b.separable
        dominant = {l.label: l for l in b.lobes if l.mass_fraction >= 0.01}
        assert set(dominant) == {"transmitted"}
        lobe = dominant["transmitted"]
        assert lobe.mass_fraction > 0.99
        worst = np.max(np.abs(lobe.x_measured - lobe.x_predicted))
        assert worst < 0.2 * 48.0, f"transmitted lobe drifts {worst}"

    def test_opaque_barrier_reflects_everything(self):
        # V0 = 5 ≫ E = 0.69; dt is halved to stay inside the stability
        # bound |dt|·E_max/ħ < 1/2 at the raised potential
        scenario = load_scenario(
            SCENARIO_DIR / "barrier_split.ini",
            overrides={"potential.v0": "5.0", "time.dt": "0.04"},
        )
        report = barrier_split_experiment(scenario)
        b = report.barrier
        assert b.transmission < 1e-12
        assert b.reflection > 0.999
        assert b.separable and b.deadband_fraction < 1e-3
        dominant = {l.label: l for l in b.lobes if l.mass_fraction >= 0.01}
        assert set(dominant) == {"reflected"}
        lobe = dominant["reflected"]
        worst = np.max(np.abs(lobe.x_measured - lobe.x_predicted))
        assert worst < 0.2 * 48.0, f"reflected lobe drifts {worst}"
        # sub-percent residue lobes exist but carry meaningless centroids
        for minor in b.lobes:
            if minor.label not in dominant:
                assert minor.mass_fraction < 1e-3


class TestKineticScenario:
    def test_relaxation_conserves_mass_and_raises_entropy(self):
        scenario = load_scenario(SCENARIO_DIR / "relaxation.ini")
        report = kinetic_scenario(scenario)
        drift = np.max(np.abs(report.mass - report.mass[0])) / report.mass[0]
        assert drift < 1e-10, f"mass drift {drift}"
        assert np.all(np.diff(report.entropy) >= -1e-12)
        assert report.entropy[-1] > report.entropy[0] + 0.1
        assert report.current.shape == (5, 64)
        assert len(report.densities) == 5

    def test_each_density_is_stamped_with_its_sample_time(self):
        # a clock summing 640 Strang half-steps of dt = 0.1 reads 63.9999999999985
        scenario = load_scenario(SCENARIO_DIR / "relaxation.ini")
        densities = kinetic_scenario(scenario).densities
        assert densities[-1].time == 64.0
        assert [f.time for f in densities] == list(scenario.sample_times)

    def test_drifting_distribution_loses_its_current(self):
        scenario = load_scenario(SCENARIO_DIR / "drifting_relaxation.ini")
        report = kinetic_scenario(scenario)
        j_start = np.max(np.abs(report.current[0]))
        j_end = np.max(np.abs(report.current[-1]))
        assert j_start > 1e-4, "scenario should start with a real drift"
        assert j_end < j_start / 20.0, f"current only decayed {j_start / j_end:.1f}x"
        assert np.all(np.diff(report.entropy) >= -1e-12)


def _ring_run(ini, collisional, flip=1.0):
    """The kinetic report of a bundled ring scenario, with or without its
    rates, and the ring oracle's density at each of its sample times."""
    scenario = load_scenario(SCENARIO_DIR / ini)
    if not collisional:
        scenario = dataclasses.replace(scenario, rates=None)
    report = kinetic_scenario(scenario)
    f0 = report.densities[0]
    grid = f0.grid
    n_p = grid.p_centers.size
    q = scenario.rates.values if collisional else np.zeros((n_p, n_p))
    velocity = flip * grid.p_centers / grid.constants.mass
    exact = [ring_boltzmann(f0.values, q, velocity, grid.window_width, t) for t in report.times]
    return report, exact


def _relative_l1(f, exact):
    return float(np.sum(np.abs(f - exact)) / np.sum(np.abs(exact)))


@pytest.mark.parametrize("ini", ["relaxation.ini", "drifting_relaxation.ini"])
class TestRingOracle:
    """Free streaming plus collisions on the periodic ring against one
    matrix exponential per spatial wavenumber, from the same f(0)."""

    @pytest.mark.parametrize("collisional, bound", [(True, 0.13), (False, 0.015)])
    def test_kinetics_follows_the_exact_ring_solution(self, ini, collisional, bound):
        # measured max: 0.118 and 0.122 with collisions, 0.013 without
        report, exact = _ring_run(ini, collisional)
        for f, ref in zip(report.densities, exact):
            assert _relative_l1(f.values, ref) <= bound

    def test_the_oracle_conserves_mass_and_streams_forward(self, ini):
        report, exact = _ring_run(ini, True)
        mass0 = np.sum(report.densities[0].values)
        assert abs(np.sum(exact[-1]) - mass0) <= 1e-12 * mass0
        # streaming the other way misses the package by more than the mass
        report, backward = _ring_run(ini, False, flip=-1.0)
        assert _relative_l1(report.densities[-1].values, backward[-1]) > 1.0


class TestIncrementalSamples:
    """Each sample is advanced from the previous one, not from t = 0."""

    def test_collisional_samples_match_evolutions_from_zero_bitwise(self):
        # the sample times are whole multiples of dt, so stepping from the
        # previous sample repeats the arithmetic of a run from t = 0
        scenario = load_scenario(SCENARIO_DIR / "relaxation.ini")
        *_, f0 = prepare(scenario)
        report = kinetic_scenario(scenario)
        for t, f in zip(report.times, report.densities):
            direct = evolve_boltzmann(f0, scenario.potential, scenario.rates, t, dt=scenario.dt)
            assert f.time == direct.time
            assert np.array_equal(f.values, direct.values)

    def test_verlet_work_grows_with_the_last_sample_time(self, monkeypatch):
        # count the Verlet steps taken: each makes two U' calls, its half kicks
        kicks = {"feet": 0, "center": 0}
        derivative = FreePotential.derivative

        def counted(self, x):
            kicks["feet" if np.ndim(x) == 2 else "center"] += 1
            return derivative(self, x)

        def verlet_steps(potential):
            kicks.update(feet=0, center=0)
            run_correspondence(
                dataclasses.replace(
                    tiny_scenario(sample_times=(0.0, 4.0, 8.0, 16.0)), potential=potential
                )
            )
            return kicks["feet"] // 2, kicks["center"] // 2

        monkeypatch.setattr(FreePotential, "derivative", counted)
        # the closed form takes none; Verlet takes ⌈16/0.1⌉ steps per
        # stream, not ⌈4/0.1⌉ + ⌈8/0.1⌉ + ⌈16/0.1⌉ = 280
        assert verlet_steps(FreePotential()) == (0, 0)
        assert verlet_steps(VerletOnly(FreePotential())) == (160, 160)

    def test_master_steps_grow_with_the_last_sample_time(self, monkeypatch):
        # count the Strang steps where the collisional stepper sizes them
        steps = []

        def counted(t, dt):
            steps.append(_step_count(t, dt))
            return steps[-1]

        monkeypatch.setattr(kinetics, "_step_count", counted)
        scenario = load_scenario(
            SCENARIO_DIR / "relaxation.ini", overrides={"time.samples": "0, 1, 2, 4"}
        )
        kinetic_scenario(scenario)
        # ⌈4/0.1⌉ Strang steps, not ⌈1/0.1⌉ + ⌈2/0.1⌉ + ⌈4/0.1⌉ = 70
        assert sum(steps) == 40
