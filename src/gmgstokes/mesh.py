"""Nested hierarchies of uniformly refined Cartesian grids on the unit box.

Level 0 is a single cell covering [0,1]^dim; every refinement halves the
cell side, so level ``l`` holds ``2**(dim*l)`` cube cells of side
``2**-l``.  Cells are addressed by integer lattice coordinates and
enumerated lexicographically with the x-axis fastest.  The finest level
is the active mesh.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@functools.cache
def lattice(m: int, dim: int) -> np.ndarray:
    """Digits of the points of the m**dim lattice in lexicographic order
    with x fastest: row k holds (k % m, (k // m) % m, ...), shape (m**dim, dim).
    Built once per process and read-only, as every caller shares it."""
    k = np.arange(m**dim)
    out = np.stack([(k // m**a) % m for a in range(dim)], axis=1)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MeshHierarchy:
    dim: int
    n_levels: int

    @property
    def active_level(self) -> int:
        return self.n_levels - 1

    def cells_per_axis(self, level: int) -> int:
        self._check_level(level)
        return 2**level

    def n_cells(self, level: int) -> int:
        return 2 ** (self.dim * level)

    def h(self, level: int) -> float:
        self._check_level(level)
        return 2.0 ** (-level)

    def cell_lattices(self, level: int) -> np.ndarray:
        """Integer lattice coordinates of every cell, shape (n_cells, dim)."""
        return lattice(self.cells_per_axis(level), self.dim)

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.n_levels:
            raise ValueError(f"level {level} not in hierarchy of {self.n_levels} levels")


def build_hierarchy(dim: int, n_levels: int) -> MeshHierarchy:
    """Build the uniformly refined hierarchy on [0,1]^dim.

    Rejects ``dim`` outside {2, 3} and ``n_levels < 1``.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if not isinstance(n_levels, (int, np.integer)) or n_levels < 1:
        raise ValueError(f"n_levels must be a positive integer, got {n_levels}")
    return MeshHierarchy(dim=int(dim), n_levels=int(n_levels))
