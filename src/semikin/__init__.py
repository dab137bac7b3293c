"""semikin: a workbench for watching quantum wave mechanics turn classical.

The package strings together one pipeline in two guises.  The
Schrödinger equation is solved exactly in time on a grid (one exact
kinetic factor when U ≡ 0, one Chebyshev series per call otherwise, after
Tal-Ezer & Kosloff); a windowed Fourier transform
compresses the wave into slowly varying envelopes on a coarse (x₀, p₀)
grid; the squared envelope is a phase-space density that a
semi-Lagrangian Liouville solver can transport classically; a
golden-rule master equation adds collisions, and Strang splitting of the
two gives a Boltzmann stepper.  The `correspondence` module runs both
guises side by side and measures where they agree, and `cli` exposes all
of it as the `semikin` command.

Names are imported from their module (`from semikin.schrodinger import
evolve`); each module's `__all__` lists its public names, and the
package root holds only `__version__`.
"""

__version__ = "0.1.0"
