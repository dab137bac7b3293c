"""Windowed carrier-wave projection: wavefunction → smooth envelope A(x₀, p₀).

The grid is tiled with contiguous windows of width Δx.  Over each
window the wavefunction is projected on the carrier e^{ip₀x/ħ} of every
coarse momentum cell,

    A(x₀, p₀) = (1/Δx) ∫_window e^{-i p₀ x / ħ} Ψ(x) dx · e^{+i E₀ t / ħ},

with E₀ = p₀²/2m + U(x₀) so that A is slowly varying in time as well as
in space.  The 1/Δx normalization makes a unit plane wave give A = 1.

The projection kernel against a neighbouring carrier at offset
δ = p - p₀ is

    χ(δ) = -iħ/(Δx·δ) · (e^{iδΔx/ħ} - 1),     χ(0) = 1,

whose modulus is the periodic sinc |sin(δΔx/2ħ)/(δΔx/2ħ)|: it vanishes
at every other cell center when cells are spaced 2Δp = 2πħ/Δx apart and
decays like ħ/(Δx|δ|), i.e. the kernels form a delta sequence as
Δx → ∞.  Under the state-counting measure Σ_p ↦ ∫dp·Δx/(2πħ) the
window-centered kernel carries unit weak mass.

Normalization note: |A|² is a probability per unit window length;
Σ|A|² · Δx equals the total probability exactly (window-wise Parseval),
so the discrete phase-space mass Σ|A|²·ΔxΔp/(2πħ) of a unit-norm state
reads 1/Δx, and equals 1 when the window width is the unit of length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PhaseSpaceDensity, PhaseSpaceGrid
from .schrodinger import PotentialSpec, WaveFunction, _spectrum

__all__ = [
    "EnvelopeField",
    "ScaleReport",
    "chi_kernel",
    "extract_envelope",
    "envelope_density",
    "scale_check",
]

#: both scale ratios must stay below this for the projection to be trusted
SCALE_RATIO_LIMIT = 0.25

#: relative level (of the peak) delimiting the region where the envelope
#: steepness is measured
_PROFILE_LEVEL = np.exp(-0.5)


@dataclass(frozen=True)
class EnvelopeField:
    """Complex envelope A(x₀ᵢ, p₀ⱼ) on a coarse phase-space grid."""

    grid: PhaseSpaceGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"envelope shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("envelope contains non-finite entries")


@dataclass(frozen=True)
class ScaleReport:
    """Separation of the carrier, window and envelope length scales.

    `carrier_ratio` compares the reduced carrier wavelength ħ/p̄ with the
    window (the window must hold many radians of carrier phase);
    `envelope_ratio` compares the window with the envelope scale L_A,
    the inverse of the steepest log-derivative of |A| inside its
    half-peak region.  Both must stay ≤ 0.25.
    """

    wavelength: float
    envelope_scale: float
    carrier_ratio: float
    envelope_ratio: float
    satisfied: bool


def chi_kernel(p, p0: float, dxw: float, hbar: float = 1.0):
    """Projection kernel χ(p, p₀) for a window of width Δx = `dxw`.

    Evaluates -iħ/(Δx(p-p₀))·(e^{i(p-p₀)Δx/ħ} - 1) with the removable
    singularity at p = p₀ filled with its limit value 1.
    """
    if dxw <= 0.0:
        raise ValueError("window width must be positive")
    delta = np.asarray(p, dtype=float) - p0
    scalar = delta.ndim == 0
    delta = np.atleast_1d(delta)
    out = np.ones(delta.shape, dtype=np.complex128)
    nz = delta != 0.0
    d = delta[nz]
    out[nz] = -1j * hbar / (dxw * d) * (np.exp(1j * d * dxw / hbar) - 1.0)
    return complex(out[0]) if scalar else out


def _raw_extract(psi: WaveFunction, grid: PhaseSpaceGrid) -> np.ndarray:
    """Rectangle-rule windowed Fourier transform, (n_windows × n_p)."""
    sg = psi.grid
    hbar = sg.constants.hbar
    if grid.constants != sg.constants:
        raise ValueError(f"phase-space grid units {grid.constants} are not psi's {sg.constants}")
    m = int(round(grid.window_width / sg.dx))
    if m * sg.dx != grid.window_width or sg.n % m != 0:
        raise ValueError("phase-space grid windows do not tile the spatial grid")
    if grid.x_centers.size * m != sg.n:
        raise ValueError("phase-space grid does not cover the spatial grid")
    n_w = sg.n // m
    psi_w = psi.values.reshape(n_w, m)
    p = grid.p_centers
    # e^{-ip(x_min + (im + l)dx)} factorizes into a per-window phase and a
    # local m×n_p matrix shared by all windows.
    local = np.exp(-1j * np.outer(np.arange(m) * sg.dx, p) / hbar)
    window_x0 = sg.x_min + np.arange(n_w) * grid.window_width
    window_phase = np.exp(-1j * np.outer(window_x0, p) / hbar)
    return (psi_w @ local) * window_phase * (sg.dx / grid.window_width)


def extract_envelope(
    psi: WaveFunction,
    grid: PhaseSpaceGrid,
    potential: PotentialSpec | None = None,
) -> EnvelopeField:
    """Project ψ onto the carrier of every coarse cell.

    The result carries the slow-time convention: the carrier phase
    e^{i(p₀x - E₀t)/ħ} with E₀ = p₀²/2m + U(x₀) (U frozen at the window
    center, recomputed at every extraction time) is divided out, so a
    freely translating packet has an essentially time-independent A.
    The E₀t phase cancels in |A|², so densities never depend on it.

    The projection is computed whatever the scale separation; callers
    gate it with `scale_check`.  A phase grid that does not tile ψ's
    grid, or whose units differ from it, raises ValueError.
    """
    raw = _raw_extract(psi, grid)
    u0 = np.zeros_like(grid.x_centers) if potential is None else np.asarray(
        potential.value(grid.x_centers), dtype=float
    )
    e0 = u0[:, None] + grid.cell_energies[None, :]
    slow = raw * np.exp(1j * e0 * psi.time / psi.grid.constants.hbar)
    return EnvelopeField(grid=grid, values=slow, time=psi.time)


def envelope_density(field: EnvelopeField) -> PhaseSpaceDensity:
    """ρ = |A|² cell-wise (phase information dropped)."""
    return PhaseSpaceDensity(
        grid=field.grid, values=np.abs(field.values) ** 2, time=field.time
    )


def scale_check(psi: WaveFunction, grid: PhaseSpaceGrid) -> ScaleReport:
    """Measure the carrier/window/envelope scale separation of ψ.

    The dominant momentum p̄ is the spectral mean of |p|; the envelope
    scale is read off the windowed profile m(x₀) = (Σ_j |A|²)^½ as the
    inverse of its steepest log-derivative within the e^{-1/2}-level
    region around the peak.  A state with no carrier (p̄ ≈ 0) reports an
    unsatisfiable carrier ratio rather than an error; a phase grid of
    other units than ψ's grid raises ValueError, as in `extract_envelope`.
    """
    c = psi.grid.constants
    p_fft, spectral = _spectrum(psi)
    total = float(np.sum(spectral))
    p_bar = float(np.sum(np.abs(p_fft) * spectral) / total) if total > 0 else 0.0

    dxw = grid.window_width
    if p_bar > 0.0:
        wavelength = 2.0 * np.pi * c.hbar / p_bar
        carrier_ratio = c.hbar / (p_bar * dxw)
    else:
        wavelength = np.inf
        carrier_ratio = np.inf

    profile = np.sqrt(np.sum(np.abs(_raw_extract(psi, grid)) ** 2, axis=1))
    peak = float(np.max(profile))
    if peak == 0.0:
        return ScaleReport(wavelength, np.inf, carrier_ratio, np.inf, False)
    rel = profile / peak
    log_slope = np.gradient(np.log(np.maximum(rel, 1e-300)), dxw)
    steep = float(np.max(np.abs(log_slope[rel >= _PROFILE_LEVEL])))
    envelope_scale = np.inf if steep == 0.0 else 1.0 / steep
    envelope_ratio = dxw * steep
    satisfied = bool(
        carrier_ratio <= SCALE_RATIO_LIMIT and envelope_ratio <= SCALE_RATIO_LIMIT
    )
    return ScaleReport(wavelength, envelope_scale, carrier_ratio, envelope_ratio, satisfied)
