"""Propagation of the single-particle Schrödinger equation.

The propagator is exact in time on the grid: one kinetic factor for a
free particle, one Chebyshev series of the grid Hamiltonian under a
potential (Tal-Ezer & Kosloff 1984), so it conserves the norm to
rounding, depends on the span t alone, and reproduces free and
uniform-force motion exactly.  The tests pin it against the dense
eigendecomposition of the same grid Hamiltonian, pin the Bessel
coefficients against scipy, and check the unitarity, the classical
moments, time reversal and the stability guard.
"""

import hashlib

import numpy as np
import pytest

from scipy.special import jv

from oracles import grid_propagator
from semikin.core import PhysicalConstants, SpatialGrid, l2_norm
from semikin.errors import NumericalFailure
from semikin.schrodinger import (
    FreePotential,
    GaussianBarrier,
    HarmonicPotential,
    LinearPotential,
    WaveFunction,
    _chebyshev_coefficients,
    energy,
    evolve,
    expectation_p,
    expectation_x,
    init_gaussian_packet,
    transmission_reflection,
)


@pytest.fixture
def small_grid():
    return SpatialGrid(x_min=-256.0, dx=1.0, n=512)


class TestGaussianPacket:
    def test_moments_match_construction(self, small_grid):
        psi = init_gaussian_packet(small_grid, x_c=-20.0, p_c=0.5, sigma=16.0)
        assert l2_norm(psi) == pytest.approx(1.0, abs=1e-13)
        assert expectation_x(psi) == pytest.approx(-20.0, abs=1e-10)
        assert expectation_p(psi) == pytest.approx(0.5, abs=1e-12)

    def test_momentum_rule_scales_with_hbar(self):
        # the FFT momenta are 2πħ·k/L: with ħ = 1/2 the carrier e^{ip_c x/ħ}
        # must still read ⟨p⟩ = p_c, and the minimal-uncertainty spread
        # ħ/2σ adds ħ²/8mσ² to the kinetic energy
        hbar, p_c, sigma = 0.5, 0.5, 16.0
        grid = SpatialGrid(x_min=-256.0, dx=1.0, n=512, constants=PhysicalConstants(hbar=hbar))
        psi = init_gaussian_packet(grid, x_c=-20.0, p_c=p_c, sigma=sigma)
        assert expectation_p(psi) == pytest.approx(p_c, abs=1e-12)
        expected = p_c**2 / 2.0 + hbar**2 / (8.0 * sigma**2)
        assert energy(psi, FreePotential()) == pytest.approx(expected, rel=1e-12)

    def test_a_packet_reads_hbar_from_its_grid(self):
        # the bytes of the same packet built with ħ = 2 passed beside a
        # natural-units grid, as packets were built before grids held units
        grid = SpatialGrid(x_min=-256.0, dx=1.0, n=512, constants=PhysicalConstants(hbar=2.0))
        psi = init_gaussian_packet(grid, x_c=-20.0, p_c=0.5, sigma=16.0)
        digest = hashlib.sha256(psi.values.tobytes()).hexdigest()
        assert digest == "aaa3757ee806dc7d78fd6221bf36edc77c811ff8d58354f722d395bf586e27e5"

    def test_plane_wave_energy_is_kinetic(self):
        # single on-grid Fourier mode: the spectral kinetic term is exact
        grid = SpatialGrid(x_min=0.0, dx=1.0, n=2048)
        p0 = 2 * np.pi * 326 / 2048.0
        psi = WaveFunction(
            grid=grid, values=np.exp(1j * p0 * grid.x) / np.sqrt(2048.0), time=0.0
        )
        assert energy(psi, FreePotential()) == pytest.approx(p0**2 / 2, abs=1e-14)


class TestUnitarityAndConservation:
    @pytest.mark.parametrize(
        "potential",
        [
            FreePotential(),
            LinearPotential(force=1e-3),
            HarmonicPotential(k=1e-4),
            GaussianBarrier(v0=0.5, x_b=40.0, width=6.0),
        ],
        ids=["free", "linear", "harmonic", "barrier"],
    )
    def test_norm_preserved(self, small_grid, potential):
        psi = init_gaussian_packet(small_grid, x_c=0.0, p_c=0.3, sigma=12.0)
        out = evolve(psi, potential, 5.0, 0.05)
        assert abs(l2_norm(out) - 1.0) < 1e-12, f"norm drifted to {l2_norm(out)}"

    def test_energy_conserved_in_trap(self, small_grid):
        psi = init_gaussian_packet(small_grid, x_c=10.0, p_c=0.2, sigma=12.0)
        trap = HarmonicPotential(k=1e-4)
        e0 = energy(psi, trap)
        e1 = energy(evolve(psi, trap, 20.0, 0.05), trap)
        assert e1 == pytest.approx(e0, rel=1e-7)

    def test_time_is_advanced(self, small_grid):
        psi = init_gaussian_packet(small_grid, x_c=0.0, p_c=0.0, sigma=12.0)
        out = evolve(psi, FreePotential(), 0.35, 0.05)
        assert out.time == pytest.approx(0.35, rel=1e-15)


class TestClassicalMoments:
    """Ehrenfest: ⟨x⟩ and ⟨p⟩ ride the classical characteristic."""

    def test_free_packet_moves_ballistically(self, small_grid):
        psi = init_gaussian_packet(small_grid, x_c=-50.0, p_c=0.5, sigma=12.0)
        out = evolve(psi, FreePotential(), 40.0, 0.1)
        assert expectation_x(out) == pytest.approx(-50.0 + 0.5 * 40.0, abs=1e-8)
        assert expectation_p(out) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_force_is_exact(self, small_grid):
        # for a linear potential Ehrenfest's theorem closes on ⟨x⟩ and ⟨p⟩,
        # and the propagator is exact in time, so both moments land on the
        # characteristic to roundoff.
        force, t = 1e-3, 10.0
        psi = init_gaussian_packet(small_grid, x_c=0.0, p_c=0.4, sigma=12.0)
        out = evolve(psi, LinearPotential(force=force), t, 0.04)
        assert expectation_p(out) == pytest.approx(0.4 - force * t, abs=1e-10)
        assert expectation_x(out) == pytest.approx(
            0.4 * t - 0.5 * force * t**2, abs=1e-9
        )

    def test_harmonic_rotation(self, small_grid):
        k, t = 1e-4, 25.6
        omega = np.sqrt(k)
        psi = init_gaussian_packet(small_grid, x_c=0.0, p_c=0.5, sigma=16.0)
        out = evolve(psi, HarmonicPotential(k=k), t, 0.04)
        assert expectation_x(out) == pytest.approx(
            (0.5 / omega) * np.sin(omega * t), abs=1e-5
        )
        assert expectation_p(out) == pytest.approx(0.5 * np.cos(omega * t), abs=1e-8)


def test_free_evolution_is_the_stepped_kinetic_product(small_grid):
    """U ≡ 0 takes one kinetic factor over the span; the stepped product
    of the same factors is the reference.  The stability budget still
    applies to dt, although the exact factor would be fine without it."""
    psi = init_gaussian_packet(small_grid, x_c=-50.0, p_c=0.5, sigma=12.0)
    dt, steps = 0.1, 400
    p = 2.0 * np.pi * np.fft.fftfreq(small_grid.n, d=small_grid.dx)
    kinetic = np.exp(-0.5j * p**2 * dt)
    stepped = psi.values
    for _ in range(steps):
        stepped = np.fft.ifft(kinetic * np.fft.fft(stepped))
    out = evolve(psi, FreePotential(), steps * dt, dt)
    assert out.time == steps * dt
    assert np.max(np.abs(out.values - stepped)) <= 1e-10
    with pytest.raises(NumericalFailure, match="time step too large"):
        evolve(psi, FreePotential(), 40.0, 0.2)


@pytest.mark.parametrize(
    "potential",
    [
        LinearPotential(force=1e-3),
        HarmonicPotential(k=1e-4),
        GaussianBarrier(v0=0.5, x_b=40.0, width=6.0),
    ],
    ids=["linear", "harmonic", "barrier"],
)
def test_series_matches_the_dense_grid_propagator(small_grid, potential):
    """U ≠ 0 sums one Chebyshev series over the span; the eigenvectors of
    the dense grid Hamiltonian give the same e^{-iHt/ħ}ψ independently."""
    psi = init_gaussian_packet(small_grid, x_c=10.0, p_c=0.3, sigma=12.0)
    p = 2.0 * np.pi * np.fft.fftfreq(small_grid.n, d=small_grid.dx)
    v = potential.value(small_grid.x)
    for dt, steps in [(0.05, 1), (0.05, 3000), (-0.05, 800)]:
        out = evolve(psi, potential, steps * dt, dt)
        reference = grid_propagator(psi.values, p, v, steps * dt, 1.0, 1.0)
        assert out.time == steps * dt
        assert np.max(np.abs(out.values - reference)) <= 1e-12


def test_the_result_depends_on_the_span_only(small_grid):
    """The step dt only binds the stability budget: the same span gives
    the same bits at any admissible dt, and evolving back by -t returns ψ₀."""
    psi = init_gaussian_packet(small_grid, x_c=0.0, p_c=0.5, sigma=16.0)
    trap = HarmonicPotential(k=1e-4)
    t = 25.6
    solutions = [evolve(psi, trap, t, dt).values for dt in (0.04, 0.02, 0.01)]
    for other in solutions[1:]:
        assert np.array_equal(other, solutions[0])
    there = evolve(psi, trap, t, 0.04)
    back = evolve(there, trap, -t, 0.04)
    assert np.max(np.abs(back.values - psi.values)) <= 1e-12


@pytest.mark.parametrize(
    "alpha, bound",
    # scipy's jv is itself about 5e-14 off at α = 5000, against the same
    # recurrence carried in 60-digit arithmetic, so the bound there is 1e-13
    [(1e-4, 1e-14), (0.25, 1e-14), (37.5, 1e-14), (5000.0, 1e-13)],
)
def test_chebyshev_coefficients_are_bessel_values(alpha, bound):
    """J_k(α) from Miller's recurrence, which passes 1e250 and must rescale
    at α = 1e-4.  The series stops after the last |J_k| ≥ 1e-16."""
    j = _chebyshev_coefficients(alpha)
    k = np.arange(j.size)
    assert np.max(np.abs(j - jv(k, alpha))) <= bound
    # Σ_{k∈ℤ} J_k² = 1 holds apart from the normalisation J₀ + 2ΣJ_{2k} = 1
    assert abs(j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2) - 1.0) <= 1e-14
    assert abs(j[-1]) >= 1e-16 > abs(jv(j.size, alpha))


def test_a_chebyshev_series_of_k_terms_takes_k_minus_1_fft_pairs(small_grid, monkeypatch):
    """φ₀ costs no transform and each further term one FFT pair."""
    sizes, calls = [], {"fft": 0, "ifft": 0}

    def spy_coefficients(alpha):
        j = _chebyshev_coefficients(alpha)
        sizes.append(j.size)
        return j

    def counting(name):
        transform = getattr(np.fft, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)

        return counted

    psi = init_gaussian_packet(small_grid, x_c=0.0, p_c=0.3, sigma=12.0)
    monkeypatch.setattr("semikin.schrodinger._chebyshev_coefficients", spy_coefficients)
    for name in calls:
        monkeypatch.setattr(np.fft, name, counting(name))
    evolve(psi, HarmonicPotential(k=1e-4), 5.0, 0.05)
    (k,) = sizes
    assert k > 2
    assert calls == {"fft": k - 1, "ifft": k - 1}


class TestGuards:
    def test_oversized_step_is_refused(self, small_grid):
        # dx=1 puts the Nyquist kinetic energy near 4.93, so dt=0.2 exceeds
        # the |dt|·E_max/ħ < 0.5 budget even without a potential
        psi = init_gaussian_packet(small_grid, x_c=0.0, p_c=0.0, sigma=12.0)
        with pytest.raises(NumericalFailure, match="time step too large"):
            evolve(psi, FreePotential(), 0.2, 0.2)

    def test_barrier_height_enters_the_budget(self, small_grid):
        psi = init_gaussian_packet(small_grid, x_c=-100.0, p_c=0.0, sigma=12.0)
        tall = GaussianBarrier(v0=5.0, x_b=0.0, width=6.0)
        with pytest.raises(NumericalFailure):
            evolve(psi, tall, 0.08, 0.08)
        evolve(psi, tall, 0.04, 0.04)  # inside the budget: fine


class TestPotentials:
    def test_barrier_peaks_at_its_center(self):
        barrier = GaussianBarrier(v0=0.7, x_b=3.0, width=6.0)
        assert barrier.value(3.0) == pytest.approx(0.7, rel=1e-15)
        assert barrier.value(3.0) > barrier.value(9.0)

    def test_linear_force_sign(self):
        # U = F·x, so the classical force -U' points down the ramp
        ramp = LinearPotential(force=2.0)
        assert ramp.derivative(1.7) == 2.0
        assert ramp.value(3.0) == 6.0

    def test_harmonic_curvature(self):
        trap = HarmonicPotential(k=4.0)
        assert trap.value(2.0) == 8.0
        assert trap.derivative(2.0) == 8.0

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LinearPotential(force=np.inf), "force = inf must be finite"),
            (lambda: HarmonicPotential(k=np.nan), "k = nan must be finite"),
            (lambda: GaussianBarrier(v0=np.nan, x_b=0.0, width=6.0), "v0 = nan must be finite"),
            (lambda: GaussianBarrier(v0=0.7, x_b=-np.inf, width=6.0), "x_b = -inf must be finite"),
            (lambda: GaussianBarrier(v0=0.7, x_b=0.0, width=np.inf), "width = inf must be finite"),
            (lambda: GaussianBarrier(v0=0.7, x_b=0.0, width=0.0), "width = 0.0 must be positive"),
            (lambda: GaussianBarrier(v0=0.7, x_b=0.0, width=-6.0), "width = -6.0 must be positive"),
        ],
        ids=["force", "k", "v0", "x_b", "width-inf", "width-zero", "width-negative"],
    )
    def test_bad_parameters_are_refused_at_construction(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_only_the_barrier_sets_its_smoothness(self):
        assert FreePotential().is_smooth and HarmonicPotential(k=1.0).is_smooth
        assert LinearPotential(force=1.0).is_smooth
        with pytest.raises(TypeError):
            HarmonicPotential(k=1.0, is_smooth=False)
        assert GaussianBarrier(v0=0.7, x_b=0.0, width=6.0, is_smooth=True).is_smooth


def test_transmission_reflection_partitions_the_norm(small_grid):
    psi = init_gaussian_packet(small_grid, x_c=-80.0, p_c=0.8, sigma=12.0)
    t, r = transmission_reflection(psi, x_split=0.0)
    assert t + r == pytest.approx(1.0, abs=1e-12)
    assert r > 0.999, "packet fully left of the split must count as reflected"
