"""Golden-rule rates, the master equation and the assembled transport.

Rates are Q_kl = (2π/ħ)|V_kl|²δ_η(E_k-E_l) with a Gaussian stand-in for
the energy delta; the diagonal closes every row to zero sum, so the
gain–loss master equation conserves probability, keeps occupations
non-negative, and (for symmetric rates) drives -Σρlnρ up.  The
assembled Boltzmann step interleaves that relaxation with Liouville
streaming; on an x-uniform state the streaming is invisible and the
composition must collapse to the bare master equation.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import semikin.liouville
from semikin.core import PhaseSpaceDensity, PhaseSpaceGrid, PhysicalConstants
from semikin.errors import NumericalFailure
from semikin.io import load_scenario
from semikin.kinetics import (
    FockEnsemble,
    InteractionMatrix,
    Occupation,
    RateMatrix,
    StateSpace,
    _hop,
    boltzmann_samples,
    current_density,
    entropy,
    evolve_boltzmann,
    evolve_master,
    fermi_rates,
    incoherent_average,
    number_correlator,
)
from semikin.liouville import HamiltonianSpec, evolve_liouville, liouville_samples
from semikin.schrodinger import FreePotential, HarmonicPotential, LinearPotential

from conftest import VerletOnly, gaussian_blob, run_probe, square_grid
from oracles import dense_master

FREE = HamiltonianSpec(mass=1.0, potential=FreePotential())
VERLET_TRAP = HamiltonianSpec(mass=1.0, potential=VerletOnly(HarmonicPotential(k=1.0)))
RAMP = HamiltonianSpec(mass=1.0, potential=LinearPotential(force=0.2))


def shell_rates(p_centers):
    """Uniform coupling between momentum cells of nearby energy p²/2."""
    v = np.full((p_centers.size,) * 2, 0.05, dtype=complex)
    np.fill_diagonal(v, 0.0)
    return fermi_rates(InteractionMatrix(v), StateSpace(p_centers**2 / 2.0), eta=0.2)


def strang_reference(f0, hamiltonian, rates, t, steps):
    """The Strang loop with a fresh `evolve_liouville` at every half-step."""
    step = t / steps
    hop = _hop(rates, step)
    f = f0
    for _ in range(steps):
        f = evolve_liouville(f, hamiltonian, 0.5 * step)
        mixed = np.maximum(f.values @ hop, 0.0)
        f = PhaseSpaceDensity(grid=f.grid, values=mixed, time=f.time)
        f = evolve_liouville(f, hamiltonian, 0.5 * step)
    return f


def random_rates(rng, size, eta=1.0, energies=None):
    v = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    v = (v + v.conj().T) / 2.0
    np.fill_diagonal(v, 0.0)
    if energies is None:
        energies = rng.uniform(0.0, 1.0, size)
    return fermi_rates(InteractionMatrix(v), StateSpace(energies), eta=eta)


class TestContainers:
    def test_state_space_needs_two_states(self):
        with pytest.raises(ValueError):
            StateSpace(np.array([1.0]))

    def test_interaction_must_be_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            InteractionMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_interaction_diagonal_must_vanish(self):
        with pytest.raises(ValueError, match="diagonal"):
            InteractionMatrix(np.array([[0.1, 0.3], [0.3, 0.0]]))

    def test_rate_rows_must_sum_to_zero(self):
        with pytest.raises(ValueError):
            RateMatrix(values=np.array([[-1.0, 1.0], [1.0, -0.9]]), eta=0.1)

    def test_occupation_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Occupation(np.array([0.5, -0.1]))


class TestFermiRates:
    def test_two_level_golden_rule_value(self):
        # Q₀₁ = (2π/ħ)|v|²·δ_η(0) with the unit-mass Gaussian δ_η
        v, eta = 0.3, 0.2
        rates = fermi_rates(
            InteractionMatrix(np.array([[0, v], [v, 0]], dtype=complex)),
            StateSpace(np.array([0.0, 0.0])),
            eta=eta,
        )
        gamma = 2 * np.pi * v**2 / (eta * math.sqrt(2 * math.pi))
        assert rates.values[0, 1] == pytest.approx(gamma, rel=1e-13)
        assert rates.eta == eta

    def test_rows_sum_to_zero(self):
        rates = random_rates(np.random.default_rng(17), 8, eta=0.5)
        scale = np.max(np.abs(rates.values))
        assert np.max(np.abs(rates.values.sum(axis=1))) < 1e-13 * scale

    def test_off_diagonal_is_bitwise_symmetric(self):
        # |V_kl|² and (E_k-E_l)² are bitwise symmetric even for complex V,
        # so detailed balance holds exactly, not just approximately
        rates = random_rates(np.random.default_rng(17), 8, eta=0.5)
        assert np.array_equal(rates.values, rates.values.T)

    def test_rates_are_nonnegative_off_diagonal(self):
        q = random_rates(np.random.default_rng(3), 6).values
        off = q[~np.eye(6, dtype=bool)]
        assert np.all(off >= 0.0)
        assert np.all(np.diag(q) <= 0.0)


class TestEvolveMaster:
    def test_two_level_analytic_relaxation(self):
        v, eta = 0.3, 0.2
        rates = fermi_rates(
            InteractionMatrix(np.array([[0, v], [v, 0]], dtype=complex)),
            StateSpace(np.array([0.0, 0.0])),
            eta=eta,
        )
        gamma = rates.values[0, 1]
        worst = 0.0
        for t in (0.1, 0.5, 1.0, 3.0):
            rho = evolve_master(Occupation(np.array([1.0, 0.0])), rates, t)
            exact = 0.5 * (1.0 + math.exp(-2.0 * gamma * t))
            worst = max(worst, abs(rho.values[0] - exact))
        assert worst < 1e-10, f"two-level relaxation off by {worst}"

    def test_exponential_and_stepper_agree(self):
        rng = np.random.default_rng(17)
        rates = random_rates(rng, 8, eta=0.5)
        rho0 = rng.random(8)
        rho0 /= rho0.sum()
        a = dense_master(rates.values, rho0, 3.0)
        b = evolve_master(Occupation(rho0), rates, 3.0)
        assert np.max(np.abs(a - b.values)) < 1e-12

    def test_probability_conserved_and_nonnegative(self):
        rng = np.random.default_rng(2)
        rates = random_rates(rng, 5)
        rho0 = rng.random(5)
        rho0 /= rho0.sum()
        out = evolve_master(Occupation(rho0), rates, 7.0)
        assert out.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.values >= 0.0)

    def test_energy_shells_equilibrate_separately(self):
        # η = 0.1 makes cross-shell rates ~e^{-1250}: each degenerate shell
        # relaxes to uniform while its total mass stays put
        rng = np.random.default_rng(8)
        energies = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
        rates = random_rates(rng, 6, eta=0.1, energies=energies)
        rho0 = rng.random(6)
        rho0 /= rho0.sum()
        out = evolve_master(Occupation(rho0), rates, 50.0).values
        assert abs(out[:3].sum() - rho0[:3].sum()) < 1e-12
        assert abs(out[3:].sum() - rho0[3:].sum()) < 1e-12
        assert np.ptp(out[:3]) < 1e-12 and np.ptp(out[3:]) < 1e-12

    def test_stepper_returns_where_rounding_stalls_the_poisson_sum(self):
        # at these Λt the summed Poisson weights round to a value that
        # stays below 1 - 1e-15 for good; the probe's timeout turns a hang
        # into a failure
        probe = (
            "import numpy as np\n"
            "from scipy.linalg import expm\n"
            "from semikin.kinetics import Occupation, RateMatrix, evolve_master\n"
            "q = np.array([[-1.0, 1.0], [1.0, -1.0]])\n"
            "rates = RateMatrix(q, eta=1.0)\n"
            "worst = 0.0\n"
            "for t in [30.679856066704698, *np.linspace(1e-6, 128.0, 2000)]:\n"
            "    out = evolve_master(Occupation(np.array([1.0, 0.0])), rates, t).values\n"
            "    worst = max(worst, np.max(np.abs(out - expm(q.T * t) @ [1.0, 0.0])))\n"
            "print(worst)\n"
        )
        (worst,) = run_probe(probe)
        assert float(worst) < 1e-14

    def test_negative_time_is_refused(self):
        rates = random_rates(np.random.default_rng(1), 3)
        with pytest.raises(ValueError, match="irreversible"):
            evolve_master(Occupation(np.ones(3) / 3), rates, -0.5)

    def test_size_mismatch(self):
        rates = random_rates(np.random.default_rng(1), 3)
        with pytest.raises(ValueError, match="size"):
            evolve_master(Occupation(np.ones(4) / 4), rates, 0.5)


class TestEntropy:
    def test_uniform_is_log_k(self):
        assert entropy(np.full(8, 1.0 / 8.0)) == pytest.approx(math.log(8), rel=1e-12)

    def test_pure_state_is_zero(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_relaxation_increases_entropy(self):
        rng = np.random.default_rng(23)
        rates = random_rates(rng, 6)
        rho = rng.random(6)
        rho /= rho.sum()
        s_prev = entropy(rho)
        for t in (0.05, 0.2, 1.0, 5.0):
            s_now = entropy(evolve_master(Occupation(rho), rates, t))
            assert s_now >= s_prev - 1e-12, f"entropy dropped at t={t}"
            s_prev = s_now


class TestIncoherentAverage:
    def _setup(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        a /= np.linalg.norm(a)
        o = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        o = (o + o.conj().T) / 2.0
        return a, o

    def test_phase_invariance_is_exact_for_quarter_turns(self):
        # multiplying amplitudes by ±1, ±i is exact in float arithmetic,
        # so the incoherent average must not change in a single bit
        a, o = self._setup()
        base = incoherent_average(a, o, coherent=False)
        rng = np.random.default_rng(9)
        phases = np.array([1.0, -1.0, 1j, -1j])[rng.integers(0, 4, 8)]
        assert incoherent_average(a * phases, o, coherent=False) == base

    def test_coherent_average_sees_the_phases(self):
        a, o = self._setup()
        coherent = incoherent_average(a, o, coherent=True)
        flipped = incoherent_average(a * np.array([1, -1] * 4), o, coherent=True)
        assert abs(coherent - flipped) > 1e-3

    def test_diagonal_observable_makes_them_equal(self):
        a, _ = self._setup()
        diag = np.diag(np.arange(8.0))
        assert incoherent_average(a, diag, coherent=True) == pytest.approx(
            incoherent_average(a, diag, coherent=False), rel=1e-12
        )

    def test_norm_gate(self):
        _, o = self._setup()
        with pytest.raises(ValueError, match="normalized"):
            incoherent_average(np.ones(8), o, coherent=False)

    def test_hermiticity_gate(self):
        a, _ = self._setup()
        with pytest.raises(ValueError, match="Hermitian"):
            incoherent_average(a, 1j * np.eye(8), coherent=False)


class TestFockEnsemble:
    def test_basis_enumerates_occupations(self):
        ens = FockEnsemble.random_phases(3, 2, 4, np.random.default_rng(0))
        assert ens.basis.shape == (27, 3)
        assert ens.members.shape == (4, 27)
        assert np.max(ens.basis) == 2 and np.min(ens.basis) == 0

    def test_single_fock_state_correlators_are_exact(self):
        # a one-hot magnitude vector pins the ensemble to one Fock state:
        # diagonal correlators read its occupations, off-diagonals vanish
        probe = FockEnsemble.random_phases(3, 2, 4, np.random.default_rng(0))
        k = 5
        mags = np.zeros(probe.basis.shape[0])
        mags[k] = 1.0
        ens = FockEnsemble.random_phases(
            3, 2, 7, np.random.default_rng(5), magnitudes=mags
        )
        for p in range(3):
            got = number_correlator(ens, p, p)
            assert got.imag == 0.0
            assert got.real == pytest.approx(float(ens.basis[k][p]), abs=1e-12)
        assert number_correlator(ens, 0, 1) == 0.0 + 0.0j

    def test_off_diagonal_is_suppressed_by_phase_averaging(self):
        ens = FockEnsemble.random_phases(3, 2, 4096, np.random.default_rng(6))
        diag = abs(number_correlator(ens, 0, 0))
        off = abs(number_correlator(ens, 0, 1))
        assert off < 0.05 * max(diag, 1.0), f"off-diagonal {off} vs diagonal {diag}"

    def test_mode_bounds(self):
        ens = FockEnsemble.random_phases(2, 1, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            number_correlator(ens, 0, 5)


class TestCurrentDensity:
    def test_even_distribution_gives_exactly_zero(self, constants):
        # the momentum grid is built by scaling integers, so it is bitwise
        # symmetric and the paired ±p sum cancels exactly
        pc = (np.arange(61) - 30) * 0.1
        g = PhaseSpaceGrid(
            x_centers=np.arange(4.0), window_width=1.0,
            p_centers=pc, p_halfwidth=0.05, constants=constants,
        )
        f = np.tile(np.exp(-pc**2 / 0.8), (4, 1))
        j = current_density(PhaseSpaceDensity(grid=g, values=f))
        assert np.all(j == 0.0)

    def test_drifting_maxwellian_carries_n_times_u(self, constants):
        # f = n₀·(2πħ)·Maxwellian(u, T) under the measure Δp/(2πħ) has
        # density n₀ and current e·n₀·u
        u, temp, n0 = 0.8, 1.0, 0.7
        p = np.linspace(u - 7.0, u + 7.0, 281)
        g = PhaseSpaceGrid(
            x_centers=np.arange(4.0), window_width=1.0,
            p_centers=p, p_halfwidth=float((p[1] - p[0]) / 2), constants=constants,
        )
        f_row = n0 * 2 * np.pi * np.exp(-((p - u) ** 2) / (2 * temp))
        f_row /= math.sqrt(2 * math.pi * temp)
        f = np.tile(f_row, (4, 1))
        j = current_density(PhaseSpaceDensity(grid=g, values=f))
        assert np.max(np.abs(j - n0 * u)) / (n0 * u) < 1e-2

    def test_charge_scales_linearly(self):
        pc = np.linspace(0.1, 1.0, 10)
        f = np.ones((2, 10))
        js = []
        for charge in (1.0, 2.0):
            g = PhaseSpaceGrid(
                x_centers=np.arange(2.0), window_width=1.0,
                p_centers=pc, p_halfwidth=0.05,
                constants=PhysicalConstants(charge=charge),
            )
            js.append(current_density(PhaseSpaceDensity(grid=g, values=f)))
        assert np.allclose(js[1], 2.0 * js[0], rtol=1e-14)


def bundled_rates(name):
    scenario = load_scenario(Path(semikin.__file__).parent / "scenarios" / f"{name}.ini")
    return scenario.rates, scenario.dt


@pytest.mark.parametrize(
    "rates, step",
    [
        (shell_rates(np.linspace(-8.0, 8.0, 32)), 0.125),
        bundled_rates("relaxation"),
        bundled_rates("drifting_relaxation"),
    ],
    ids=["shell", "relaxation", "drifting_relaxation"],
)
def test_hop_is_the_matrix_exponential(rates, step):
    """The collision hop e^{Q·step} comes from uniformization, not expm:
    it agrees with scipy's expm to rounding, has no negative entry, and
    keeps every row stochastic."""
    hop = _hop(rates, step)
    assert np.max(np.abs(hop - expm(rates.values * step))) <= 1e-15
    assert np.all(hop >= 0.0)
    k = rates.size
    assert np.max(np.abs(hop.sum(axis=1) - 1.0)) <= k * np.finfo(float).eps


class TestEvolveBoltzmann:
    def test_negative_time_refused(self, constants):
        g = square_grid(16, 4.0, constants)
        rho = gaussian_blob(g, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="forward"):
            evolve_boltzmann(rho, FREE, None, -1.0)

    def test_no_rates_degenerates_to_liouville(self, constants):
        g = square_grid(32, 6.0, constants, periodic_x=True)
        rho = gaussian_blob(g, 1.0, 0.3, 1.0, 0.8)
        direct = evolve_liouville(rho, FREE, 1.2, dt=0.3)
        off = evolve_boltzmann(rho, FREE, None, 1.2, dt=0.3)
        zero = evolve_boltzmann(
            rho, FREE, RateMatrix(values=np.zeros((32, 32)), eta=0.1), 1.2, dt=0.3
        )
        assert np.array_equal(off.values, direct.values)
        assert np.array_equal(zero.values, direct.values)

    @pytest.mark.parametrize(
        "hamiltonian, periodic_x",
        [(FREE, True), (VERLET_TRAP, False)],
        ids=["free-periodic", "verlet-trap-open"],
    )
    def test_zero_rates_give_the_liouville_samples_bitwise(
        self, hamiltonian, periodic_x, constants
    ):
        g = square_grid(32, 8.0, constants, periodic_x)
        rho = gaussian_blob(g, 0.5, 0.3, 1.0, 0.8)
        zero = RateMatrix(values=np.zeros((32, 32)), eta=0.1)
        times = (0.0, 0.5, 1.25)
        ours = list(boltzmann_samples(rho, hamiltonian, zero, times, 0.125))
        theirs = list(liouville_samples(rho, hamiltonian, times, 0.125))
        assert len(ours) == len(theirs) == 3
        for a, b in zip(ours, theirs):
            assert a.time == b.time
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("collisional", [False, True], ids=["no-rates", "rates"])
    def test_a_decreasing_sample_time_raises(self, collisional, constants):
        g = square_grid(16, 4.0, constants, periodic_x=True)
        rho = gaussian_blob(g, 0.0, 0.0, 1.0, 1.0)
        rates = shell_rates(g.p_centers) if collisional else None
        with pytest.raises(ValueError, match="forward"):
            list(boltzmann_samples(rho, FREE, rates, (0.5, 1.0, 0.75)))

    def test_rate_size_must_match_momentum_cells(self, constants):
        g = square_grid(16, 4.0, constants)
        rho = gaussian_blob(g, 0.0, 0.0, 1.0, 1.0)
        bad = RateMatrix(values=np.array([[-1.0, 1.0], [1.0, -1.0]]), eta=0.1)
        with pytest.raises(ValueError, match="momentum cells"):
            evolve_boltzmann(rho, FREE, bad, 1.0)

    def test_uniform_state_reduces_to_master_equation(self, constants):
        # with no x-dependence the streaming half-steps are exact no-ops,
        # so the splitting must reproduce the bare master equation
        pc = (np.arange(15) - 7) * 0.3927
        g = PhaseSpaceGrid(
            x_centers=np.arange(32) + 0.5, window_width=1.0,
            p_centers=pc, p_halfwidth=0.3927 / 2, constants=constants, periodic_x=True,
        )
        f0 = np.tile(np.exp(-((pc - 0.6) ** 2) / 0.5), (32, 1))
        v = np.full((15, 15), 0.05, dtype=complex)
        np.fill_diagonal(v, 0.0)
        rates = fermi_rates(InteractionMatrix(v), StateSpace(pc**2 / 2.0), eta=0.2)
        out = evolve_boltzmann(PhaseSpaceDensity(grid=g, values=f0), FREE, rates, 4.0, dt=0.5)
        reference = evolve_master(Occupation(f0[0]), rates, 4.0)
        assert np.max(np.abs(out.values - reference.values[None, :])) < 1e-12
        assert np.max(np.ptp(out.values, axis=0)) < 1e-14, "x-uniformity broken"

    def test_collisions_conserve_mass(self, constants):
        from semikin.core import phase_space_mass

        pc = (np.arange(15) - 7) * 0.3927
        g = PhaseSpaceGrid(
            x_centers=np.arange(32) + 0.5, window_width=1.0,
            p_centers=pc, p_halfwidth=0.3927 / 2, constants=constants, periodic_x=True,
        )
        x = np.arange(32) + 0.5
        f0 = np.exp(-((x[:, None] - 16.0) ** 2) / 32.0) * np.exp(
            -((pc[None, :] - 0.6) ** 2) / 0.5
        )
        v = np.full((15, 15), 0.05, dtype=complex)
        np.fill_diagonal(v, 0.0)
        rates = fermi_rates(InteractionMatrix(v), StateSpace(pc**2 / 2.0), eta=0.2)
        rho0 = PhaseSpaceDensity(grid=g, values=f0)
        out = evolve_boltzmann(rho0, FREE, rates, 4.0, dt=0.5)
        m0, m1 = phase_space_mass(rho0), phase_space_mass(out)
        assert abs(m1 - m0) / m0 < 1e-12

    @pytest.mark.parametrize(
        "hamiltonian, periodic_x",
        [(FREE, True), (VERLET_TRAP, False), (RAMP, False)],
        ids=["free-periodic", "verlet-trap-open", "ramp-open"],
    )
    def test_one_stencil_matches_a_fresh_transport_per_half_step(
        self, hamiltonian, periodic_x, constants
    ):
        g = square_grid(32, 8.0, constants, periodic_x)
        rho0 = gaussian_blob(g, 0.5, 0.3, 1.0, 0.8)
        rates = shell_rates(g.p_centers)
        out = evolve_boltzmann(rho0, hamiltonian, rates, 1.0, dt=0.125)
        reference = strang_reference(rho0, hamiltonian, rates, 1.0, 8)
        assert out.time == reference.time
        assert np.array_equal(out.values, reference.values)

    def test_a_half_step_across_an_open_edge_raises(self, constants):
        g = square_grid(32, 6.0, constants)
        at_edge = gaussian_blob(g, -5.5, 1.0, 1.0, 0.8)  # drifts in from x = -6
        with pytest.raises(NumericalFailure, match="boundary"):
            evolve_boltzmann(at_edge, FREE, shell_rates(g.p_centers), 2.0, dt=0.25)

    def test_one_backtrace_per_call(self, constants, monkeypatch):
        calls = []
        flow_map = semikin.liouville.flow_map

        def counted(*args, **kwargs):
            calls.append(args[2])
            return flow_map(*args, **kwargs)

        monkeypatch.setattr(semikin.liouville, "flow_map", counted)
        g = square_grid(32, 8.0, constants)
        rho0 = gaussian_blob(g, 0.5, 0.3, 1.0, 0.8)
        evolve_boltzmann(rho0, VERLET_TRAP, shell_rates(g.p_centers), 1.0, dt=0.125)
        assert calls == [-0.0625]

    def test_one_validated_density_per_sample(self, constants, monkeypatch):
        # the half-steps move plain arrays; only the yielded samples are
        # built, and so validated, as densities
        g = square_grid(32, 8.0, constants)
        rho0 = gaussian_blob(g, 0.5, 0.3, 1.0, 0.8)
        rates = shell_rates(g.p_centers)
        built = []
        post_init = PhaseSpaceDensity.__post_init__

        def counted(self):
            built.append(self.time)
            post_init(self)

        monkeypatch.setattr(PhaseSpaceDensity, "__post_init__", counted)
        times = (0.25, 0.5, 1.0)
        samples = list(boltzmann_samples(rho0, VERLET_TRAP, rates, times, dt=0.125))
        assert [rho.time for rho in samples] == built
        assert len(built) == len(times)
