"""Spectral solver for the 1-D time-dependent Schrödinger equation.

    iħ ∂Ψ/∂t = [ -ħ²/2m ∂²/∂x² + U(x) ] Ψ

on a periodic grid.  The grid Hamiltonian H = F⁻¹·diag(p²/2m)·F + diag(U)
does not depend on time, so `evolve` applies Ψ(t) = e^{-iHt/ħ}Ψ(0) over
the whole span t, with no time-step error and the norm conserved to
rounding; its step dt only binds the stability budget.  Which kernel
runs follows from the potential on the grid:

  U ≡ 0 (free):                one exact kinetic factor e^{-ip²t/2mħ},
                               one FFT pair per call;
  U ≠ 0 (linear, harmonic,     one Chebyshev series per call (Tal-Ezer
  barrier):                    & Kosloff 1984, J. Chem. Phys. 81, 3967),
                               one FFT pair per term, about ΔE·t/2ħ
                               terms for the spectral width ΔE of H.

Potentials are small tagged value objects carrying their analytic value
and derivative; each refuses a non-finite parameter, and the barrier a
width ≤ 0, when built.
`is_smooth` records whether the classical module may consume them: a
class constant True for the free, linear and harmonic forms, and a
field of the Gaussian barrier, False unless set (a narrow barrier is
treated as sharp: it exists to split packets, not to generate smooth
characteristics).  The free, linear and harmonic forms also carry their
exact Hamilton flow, `flow(x, p, t, mass)`, which `liouville.flow_map`
takes in place of Verlet steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .core import SpatialGrid, l2_norm
from .errors import NumericalFailure

__all__ = [
    "WaveFunction",
    "FreePotential",
    "LinearPotential",
    "HarmonicPotential",
    "GaussianBarrier",
    "PotentialSpec",
    "init_gaussian_packet",
    "evolve",
    "expectation_x",
    "expectation_p",
    "energy",
    "transmission_reflection",
]

_EDGE_TAIL = 1e-10  # max admissible |ψ(edge)| / |ψ(center)| at init
_NORM_DRIFT_TOL = 1e-8


@dataclass(frozen=True)
class WaveFunction:
    """Complex field sampled on a spatial grid, stamped with its time; its
    ħ and m are those of the grid."""

    grid: SpatialGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"wavefunction shape {self.values.shape} != grid size {self.grid.n}"
            )
        if not np.iscomplexobj(self.values):
            raise ValueError("wavefunction values must be complex")


# --------------------------------------------------------------------------
# potentials
# --------------------------------------------------------------------------


def _require_finite(form: str, **parameters: float) -> None:
    for name, value in parameters.items():
        if not math.isfinite(value):
            raise ValueError(f"{form} {name} = {value} must be finite")


@dataclass(frozen=True)
class FreePotential:
    is_smooth: ClassVar[bool] = True

    def value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def flow(self, x, p, t, mass):
        """Exact free flow (x + tp/m, p); the arithmetic of one Verlet step."""
        return x + t * p / mass, p


@dataclass(frozen=True)
class LinearPotential:
    """U(x) = F·x, a uniform force -F."""

    force: float
    is_smooth: ClassVar[bool] = True

    def __post_init__(self) -> None:
        _require_finite("linear potential", force=self.force)

    def value(self, x):
        return self.force * np.asarray(x, dtype=float)

    def derivative(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.force)

    def flow(self, x, p, t, mass):
        """Exact uniform-force flow (x + tp/m - ½Ft²/m, p - Ft).

        Written as kick-drift-kick, which is exact for a constant force
        and carries the arithmetic of one Verlet step.
        """
        kick = 0.5 * t * self.force
        p_mid = p - kick
        return x + t * p_mid / mass, p_mid - kick


@dataclass(frozen=True)
class HarmonicPotential:
    """U(x) = ½ k x²."""

    k: float
    is_smooth: ClassVar[bool] = True

    def __post_init__(self) -> None:
        _require_finite("harmonic potential", k=self.k)

    def value(self, x):
        return 0.5 * self.k * np.asarray(x, dtype=float) ** 2

    def derivative(self, x):
        return self.k * np.asarray(x, dtype=float)

    def flow(self, x, p, t, mass):
        """Exact oscillator flow: a phase-space rotation by ωt, ω = √(k/m).

        x ↦ x·C + (p/m)·S and p ↦ p·C - k·x·S with C = cos ωt and
        S = sin(ωt)/ω; an inverted (k < 0) or flat (k = 0) trap takes the
        hyperbolic or free limit of the same formula.
        """
        a = self.k / mass
        if a > 0.0:
            w = math.sqrt(a)
            c, s = math.cos(w * t), math.sin(w * t) / w
        elif a < 0.0:
            w = math.sqrt(-a)
            c, s = math.cosh(w * t), math.sinh(w * t) / w
        else:
            c, s = 1.0, t
        return x * c + s * p / mass, p * c - self.k * s * x


@dataclass(frozen=True)
class GaussianBarrier:
    """U(x) = V₀ exp(-(x - x_b)² / 2w²); sharp on the coarse scale."""

    v0: float
    x_b: float
    width: float
    is_smooth: bool = False

    def __post_init__(self) -> None:
        _require_finite("gaussian barrier", v0=self.v0, x_b=self.x_b, width=self.width)
        if self.width <= 0.0:
            raise ValueError(f"gaussian barrier width = {self.width} must be positive")

    def value(self, x):
        u = (np.asarray(x, dtype=float) - self.x_b) / self.width
        return self.v0 * np.exp(-0.5 * u * u)

    def derivative(self, x):
        u = (np.asarray(x, dtype=float) - self.x_b) / self.width
        return -self.v0 * u / self.width * np.exp(-0.5 * u * u)


PotentialSpec = Union[FreePotential, LinearPotential, HarmonicPotential, GaussianBarrier]


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------


def init_gaussian_packet(grid: SpatialGrid, x_c: float, p_c: float, sigma: float) -> WaveFunction:
    """Unit-norm Gaussian packet ψ ∝ exp(-(x-x_c)²/4σ²) exp(i p_c x/ħ), ħ the grid's.

    σ is the standard deviation of |ψ|²; the packet is minimal
    uncertainty with momentum spread ħ/2σ.  Requires σ ≥ 4 dx so the
    carrier and the envelope are both resolved, a centre on the grid, a
    carrier below the Nyquist momentum, |p_c| < πħ/dx, so it does not
    alias, and tails below 1e-10 of the peak at both grid edges.
    """
    if not all(math.isfinite(v) for v in (x_c, p_c, sigma)):
        raise ValueError(f"packet x_c = {x_c}, p_c = {p_c}, sigma = {sigma} must be finite")
    if sigma < 4.0 * grid.dx:
        raise ValueError(f"sigma = {sigma} under-resolved: need sigma >= 4 dx = {4 * grid.dx}")
    x = grid.x
    if not x[0] <= x_c <= x[-1]:
        raise ValueError(
            f"packet center x_c = {x_c:g} lies outside the grid [{x[0]:g}, {x[-1]:g}]"
        )
    hbar = grid.constants.hbar
    p_nyquist = math.pi * hbar / grid.dx
    if abs(p_c) >= p_nyquist:
        raise ValueError(
            f"packet momentum p_c = {p_c:g} aliases: |p_c| must be below the grid's"
            f" Nyquist momentum pi*hbar/dx = {p_nyquist:g}"
        )
    for edge in (x[0], x[-1]):
        tail = math.exp(-(((edge - x_c) / (2.0 * sigma)) ** 2))
        if tail > _EDGE_TAIL:
            raise ValueError(
                f"packet tail {tail:.3e} at grid edge x = {edge}; keep the packet"
                " further from the boundary"
            )
    psi = np.exp(-((x - x_c) ** 2) / (4.0 * sigma**2) + 1j * p_c * x / hbar)
    psi = psi.astype(np.complex128)
    wf = WaveFunction(grid=grid, values=psi, time=0.0)
    return WaveFunction(grid=grid, values=psi / l2_norm(wf), time=0.0)


# --------------------------------------------------------------------------
# evolution and observables
# --------------------------------------------------------------------------


def _momenta_fft(grid: SpatialGrid) -> np.ndarray:
    return 2.0 * np.pi * grid.constants.hbar * np.fft.fftfreq(grid.n, d=grid.dx)


def _spectrum(psi: WaveFunction) -> tuple[np.ndarray, np.ndarray]:
    """The FFT momenta p and the unnormalised power |ψ̂(p)|² of ψ."""
    return _momenta_fft(psi.grid), np.abs(np.fft.fft(psi.values)) ** 2


def _chebyshev_coefficients(alpha: float) -> np.ndarray:
    """Bessel values J_k(α), k = 0..K, for the Chebyshev series of e^{-iα x}.

    Miller's backward recurrence J_{k-1} = (2k/α)J_k - J_{k+1}, started
    far above k = α where J_k is negligible, rescaled whenever a value
    passes 1e250 and normalised by J₀ + 2ΣJ_{2k} = 1 (Abramowitz &
    Stegun §9.12).  K is the last k with |J_k| ≥ 1e-16.
    """
    n = int(alpha + 40.0 * alpha ** (1.0 / 3.0) + 60.0)
    j = np.zeros(n + 2)
    j[n] = 1.0
    for k in range(n, 0, -1):
        j[k - 1] = (2.0 * k / alpha) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1 :] *= 1e-250
    j /= j[0] + 2.0 * np.sum(j[2::2])
    return j[: np.flatnonzero(np.abs(j) >= 1e-16)[-1] + 1]


def evolve(
    psi: WaveFunction,
    potential: PotentialSpec,
    t: float,
    dt: float,
) -> WaveFunction:
    """Advance `psi` by the span t, exactly in time (t < 0 reverses).

    One exact kinetic factor when U vanishes on the grid, one Chebyshev
    series otherwise, so the result depends on t alone.  The step dt
    binds the stability budget |dt|·E_max/ħ < 0.5, E_max = p_nyq²/2m +
    max|U| on the grid; :class:`NumericalFailure` is raised when it
    fails or when the norm drifts by more than 1e-8.
    """
    grid = psi.grid
    c = grid.constants
    p = _momenta_fft(grid)
    v = potential.value(grid.x)
    kinetic = p**2 / (2.0 * c.mass)
    e_max = float(np.max(kinetic) + np.max(np.abs(v)))
    if abs(dt) * e_max / c.hbar >= 0.5:
        raise NumericalFailure(
            f"time step too large: |dt|*E_max/hbar = {abs(dt) * e_max / c.hbar:.3g} >= 0.5"
        )
    if t == 0:
        return psi

    values = psi.values
    norm_in = l2_norm(psi)
    tau = t / c.hbar
    if not np.any(v):
        factor = np.exp(-0.5j * p**2 * t / (c.mass * c.hbar))
        values = np.fft.ifft(factor * np.fft.fft(values))
    else:
        # By Weyl's inequality H's spectrum lies in [lo, hi]; H_n = (H - b)/a
        # maps it into [-1, 1] with a 1e-3 margin, and e^{-iHτ} = e^{-ibτ}
        # Σ_k (2 - δ_k0)(∓i)^k J_k(a|τ|) T_k(H_n), − for τ > 0.  The terms
        # follow φ_{k+1} = 2H_n φ_k - φ_{k-1} in three work arrays, in place;
        # one term is one FFT pair plus six elementwise passes.
        lo, hi = float(np.min(v)), float(np.max(kinetic) + np.max(v))
        a, b = 0.5 * (hi - lo) * (1.0 + 1e-3), 0.5 * (hi + lo)
        j = _chebyshev_coefficients(a * abs(tau))
        phases = np.array([1.0, -1j, -1.0, 1j])[np.arange(j.size) % 4]
        weights = 2.0 * j * (phases if tau > 0.0 else phases.conj())
        # ifft's 1/n rides in the kinetic symbol, exactly: n is a power of two
        kinetic2 = (kinetic * (2.0 / (a * grid.n))).astype(complex)
        v2 = ((v - b) * (2.0 / a)).astype(complex)
        prev, cur, buf = values.copy(), np.empty_like(values), np.empty_like(values)
        values = 0.5 * weights[0] * values
        if j.size > 1:
            np.fft.fft(prev, out=buf)
            buf *= kinetic2
            np.fft.ifft(buf, out=buf, norm="forward")
            np.multiply(v2, prev, out=cur)
            cur += buf
            cur *= 0.5  # φ₁ = H_n φ₀ has no factor 2
            np.multiply(cur, weights[1], out=buf)
            values += buf
            for w in weights[2:]:
                np.fft.fft(cur, out=buf)
                buf *= kinetic2
                np.fft.ifft(buf, out=buf, norm="forward")
                buf -= prev
                np.multiply(v2, cur, out=prev)
                prev += buf
                prev, cur = cur, prev
                np.multiply(cur, w, out=buf)
                values += buf
        values *= np.exp(-1j * b * tau)
    out = WaveFunction(grid=grid, values=values, time=psi.time + t)
    drift = abs(l2_norm(out) - norm_in) / norm_in
    if not np.isfinite(drift) or drift > _NORM_DRIFT_TOL:
        raise NumericalFailure(f"norm drift {drift:.3e} exceeds {_NORM_DRIFT_TOL}")
    return out


def expectation_x(psi: WaveFunction) -> float:
    w = np.abs(psi.values) ** 2
    return float(np.sum(psi.grid.x * w) / np.sum(w))


def expectation_p(psi: WaveFunction) -> float:
    """⟨p⟩ evaluated spectrally (exact for band-limited states)."""
    p, w = _spectrum(psi)
    return float(np.sum(p * w) / np.sum(w))


def energy(psi: WaveFunction, potential: PotentialSpec) -> float:
    """⟨T⟩ + ⟨U⟩ with the kinetic part summed in momentum space."""
    p, w = _spectrum(psi)
    kinetic = float(np.sum(p**2 / (2.0 * psi.grid.constants.mass) * w) / np.sum(w))
    dens = np.abs(psi.values) ** 2
    pot = float(np.sum(potential.value(psi.grid.x) * dens) / np.sum(dens))
    return kinetic + pot


def transmission_reflection(psi: WaveFunction, x_split: float) -> tuple[float, float]:
    """Probability on either side of x_split: (T beyond, R before)."""
    dens = np.abs(psi.values) ** 2 * psi.grid.dx
    beyond = psi.grid.x > x_split
    t = float(np.sum(dens[beyond]))
    r = float(np.sum(dens[~beyond]))
    return t, r
