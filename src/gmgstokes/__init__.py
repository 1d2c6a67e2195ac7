"""Matrix-free geometric-multigrid Stokes solver on nested Cartesian grids,
with a variable-viscosity multi-sinker benchmark.

Importing the package loads no numpy, so the command line can size the
BLAS thread pools first; the modules are imported by name, e.g.
``from gmgstokes.operators import StokesSystem``.
"""

__version__ = "0.1.0"
