"""Independent oracles the test suite checks the package against.

Everything in this file is written straight from the governing equations
with methods deliberately different from the package's own numerics:

* a dense donor-cell (first-order upwind, flux form) integrator for the
  phase-space transport equation  ∂ρ/∂t = -(p/m)∂ρ/∂x + U'(x)∂ρ/∂p,
* brute-force permutation expansions of the plane-wave determinant /
  permanent (O(n!), no linear algebra),
* a high-resolution midpoint quadrature of the windowed Fourier
  integral of an analytic Gaussian packet,
* the closed-form L1 distance between two centred normal laws, the
  share of packet dispersion in the envelope-transport distance,
* the dense matrix exponential of the master equation (scipy's
  scaling-and-squaring Padé `expm`, where the package sums a Poisson
  series),
* the same exponential, one per spatial wavenumber, for streaming plus
  collisions on a force-free periodic ring (where the package alternates
  semi-Lagrangian transport and master-equation hops),
* the Schrödinger propagator on a spatial grid from the eigenvectors of
  the dense grid Hamiltonian (where the package sums a Chebyshev series
  of FFT-applied Hamiltonians).

None of these import anything from the package under test.
"""

import cmath
import itertools
import math

import numpy as np
from scipy.linalg import expm


# --------------------------------------------------------------------------
# dense finite-difference transport
# --------------------------------------------------------------------------


def _face_flux(rho, velocity, axis, periodic):
    """Donor-cell flux through every face along one axis.

    Returns an array with one extra entry along `axis` (faces bracket
    cells).  Open boundaries see zero-density ghost cells, so inflow
    carries nothing and outflow drains the edge cell.
    """
    if periodic:
        ghost_lo = np.take(rho, [-1], axis=axis)
        ghost_hi = np.take(rho, [0], axis=axis)
    else:
        shape = list(rho.shape)
        shape[axis] = 1
        ghost_lo = np.zeros(shape)
        ghost_hi = np.zeros(shape)
    ext = np.concatenate([ghost_lo, rho, ghost_hi], axis=axis)
    lower = np.take(ext, range(0, rho.shape[axis] + 1), axis=axis)
    upper = np.take(ext, range(1, rho.shape[axis] + 2), axis=axis)
    return np.where(velocity > 0.0, velocity * lower, velocity * upper)


def _sweep(rho, velocity, h, dt, axis, periodic, cfl):
    """Donor-cell update of ∂ρ/∂t + ∂(vρ)/∂axis = 0, subcycled to `cfl`."""
    v_max = max(float(np.max(np.abs(velocity))), 1e-300)
    n_sub = max(1, int(math.ceil(v_max * abs(dt) / (cfl * h))))
    sub = dt / n_sub
    n = rho.shape[axis]
    for _ in range(n_sub):
        flux = _face_flux(rho, velocity, axis=axis, periodic=periodic)
        div = np.take(flux, range(1, n + 1), axis=axis) - np.take(
            flux, range(0, n), axis=axis
        )
        rho = rho - (sub / h) * div
    return rho


def upwind_transport(
    rho0,
    x_centers,
    p_centers,
    du_dx,
    mass,
    t,
    cfl=0.9,
    periodic_x=False,
):
    """Integrate the transport equation with donor-cell upwind fluxes.

    `rho0` is indexed [x, p]; `du_dx` is the potential slope U'(x) as a
    callable.  The velocity field (p/m, -U'(x)) is divergence-free, so
    the flux form solves the same advection as the characteristics do,
    with mass conserved up to open-boundary outflow.  Each step is a
    Strang composition of one-dimensional sweeps (x half, p full,
    x half); every sweep subcycles itself to its own CFL number `cfl`,
    so the scheme's numerical diffusion, ∝ (1 - CFL), stays small on
    both axes even when their velocity scales differ.
    """
    rho = np.array(rho0, dtype=float)
    x = np.asarray(x_centers, dtype=float)
    p = np.asarray(p_centers, dtype=float)
    dx = x[1] - x[0]
    dp = p[1] - p[0]
    u = (p / mass)[None, :]  # x-velocity, constant along x
    a = (-np.asarray(du_dx(x), dtype=float))[:, None]  # p-velocity
    u_max = max(float(np.max(np.abs(u))), 1e-300)
    a_max = max(float(np.max(np.abs(a))), 1e-300)
    step = cfl * min(dx / u_max, dp / a_max)
    n = max(1, int(math.ceil(abs(t) / step)))
    dt = t / n
    if dt < 0.0:
        raise ValueError("the upwind oracle runs forward only")
    for _ in range(n):
        rho = _sweep(rho, u, dx, 0.5 * dt, axis=0, periodic=periodic_x, cfl=cfl)
        rho = _sweep(rho, a, dp, dt, axis=1, periodic=False, cfl=cfl)
        rho = _sweep(rho, u, dx, 0.5 * dt, axis=0, periodic=periodic_x, cfl=cfl)
    return rho


# --------------------------------------------------------------------------
# brute-force carrier algebra
# --------------------------------------------------------------------------


def _parity(perm):
    """Sign of a permutation by counting inversions."""
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1.0 if inversions % 2 else 1.0


def brute_carrier(statistics, momenta, xs, hbar=1.0):
    """(1/n!)·Σ_π (±1)^π Π_k e^{i p_k x_{π(k)} / ħ} by explicit expansion."""
    n = len(momenta)
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        sign = _parity(perm) if statistics == "fermion" else 1.0
        term = 1.0 + 0.0j
        for row, col in enumerate(perm):
            term *= cmath.exp(1j * momenta[row] * xs[col] / hbar)
        total += sign * term
    return total / math.factorial(n)


def brute_minor(statistics, momenta, xs, i, j, hbar=1.0):
    """Determinant/permanent of the carrier matrix without row i, col j."""
    rows = [k for k in range(len(momenta)) if k != i]
    cols = [l for l in range(len(xs)) if l != j]
    n = len(rows)
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        sign = _parity(perm) if statistics == "fermion" else 1.0
        term = 1.0 + 0.0j
        for a, b in enumerate(perm):
            term *= cmath.exp(1j * momenta[rows[a]] * xs[cols[b]] / hbar)
        total += sign * term
    return total


# --------------------------------------------------------------------------
# windowed Fourier quadrature of an analytic packet
# --------------------------------------------------------------------------


def gaussian_packet_amplitude(x, x_c, p_c, sigma, hbar=1.0):
    """Continuum unit-norm Gaussian packet evaluated at x (array ok)."""
    norm = (2.0 * math.pi * sigma**2) ** -0.25
    x = np.asarray(x, dtype=float)
    return norm * np.exp(-((x - x_c) ** 2) / (4.0 * sigma**2) + 1j * p_c * x / hbar)


def windowed_envelope_quadrature(
    x0, width, p0, x_c, p_c, sigma, hbar=1.0, oversample=256
):
    """A(x₀,p₀) = (1/Δx)∫_{x₀}^{x₀+Δx} e^{-ip₀x/ħ} ψ(x) dx by midpoint rule.

    `oversample` points per unit length keeps the quadrature error ~1e-9
    for the oscillation rates used in the tests (p·h/ħ ≪ 1).
    """
    n = max(64, int(round(width * oversample)))
    h = width / n
    x = x0 + (np.arange(n) + 0.5) * h
    integrand = np.exp(-1j * p0 * x / hbar) * gaussian_packet_amplitude(
        x, x_c, p_c, sigma, hbar
    )
    return complex(np.sum(integrand) * h / width)


def dispersion_l1(sigma, window_width, tau):
    """L1 distance between N(0, σ² + Δx²/12) and N(0, σ²(1 + τ²) + Δx²/12).

    These are the x-marginals of a width-σ packet's windowed envelope
    before and after free dispersion over τ = t/t_disp, with the
    window's own variance Δx²/12 added to both.  Two centred normal
    densities cross at ±x*, x*² = 2 s₁² s₂² ln(s₂/s₁) / (s₂² − s₁²), the
    narrower one being the larger inside, so the distance is
    2·[erf(x*/s₁√2) − erf(x*/s₂√2)].
    """
    box = window_width**2 / 12.0
    v1, v2 = sigma**2 + box, sigma**2 * (1.0 + tau**2) + box
    if v2 == v1:
        return 0.0
    cross = math.sqrt(v1 * v2 * math.log(v2 / v1) / (v2 - v1))
    return 2.0 * (math.erf(cross / math.sqrt(2.0 * v1)) - math.erf(cross / math.sqrt(2.0 * v2)))


# --------------------------------------------------------------------------
# dense master-equation propagator
# --------------------------------------------------------------------------


def dense_master(q, rho, t):
    """ρ(t) = e^{Qᵀt}ρ for the gain–loss master equation with rates `q`."""
    return expm(q.T * t) @ rho


def ring_boltzmann(values, q, velocity, window_width, t):
    """f(t) for ∂f/∂t + v ∂f/∂x = (collisions with rates `q`) on a periodic ring.

    `values` holds f(x, p) with x along axis 0 at spacing `window_width`
    and one momentum cell per column, streaming at `velocity`.  With no
    force each spatial Fourier mode f̂_k(p) evolves on its own, as the row
    vector f̂_k(t) = f̂_k(0)·e^{t(Q - ik·diag(v))}.
    """
    f_hat = np.fft.fft(np.asarray(values, dtype=float), axis=0)
    k = 2.0 * math.pi * np.fft.fftfreq(f_hat.shape[0], d=window_width)
    drift = np.diag(np.asarray(velocity, dtype=float))
    out = np.stack([row @ expm(t * (q - 1j * kk * drift)) for row, kk in zip(f_hat, k)])
    return np.fft.ifft(out, axis=0).real


# --------------------------------------------------------------------------
# dense grid Schrödinger propagator
# --------------------------------------------------------------------------


def grid_propagator(values, p, v, t, mass, hbar):
    """ψ(t) = e^{-iHt/ħ}ψ for H = F⁻¹·diag(p²/2m)·F + diag(V) on the grid.

    `p` holds the momenta in DFT order, one per grid point, and `v` the
    potential at the grid points.  F is the explicit DFT matrix; H is
    diagonalised with `eigh`, so the cost is O(n³), not one FFT pair per
    term.
    """
    n = len(values)
    idx = np.arange(n)
    dft = np.exp(-2j * math.pi * np.outer(idx, idx) / n)
    kinetic = (dft.conj().T * (np.asarray(p) ** 2 / (2.0 * mass))) @ dft / n
    h = kinetic + np.diag(np.asarray(v, dtype=float))
    energies, vectors = np.linalg.eigh(0.5 * (h + h.conj().T))
    phases = np.exp(-1j * energies * t / hbar)
    return vectors @ (phases * (vectors.conj().T @ values))
