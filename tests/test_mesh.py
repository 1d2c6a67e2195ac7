import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmgstokes.mesh import build_hierarchy, lattice


def test_single_level_base_case():
    mesh = build_hierarchy(2, 1)
    assert mesh.n_cells(0) == 1
    assert mesh.h(0) == 1.0
    assert mesh.active_level == 0


def test_finest_level_cell_counts_3d():
    mesh = build_hierarchy(3, 3)
    assert mesh.n_cells(2) == 64
    assert mesh.h(2) == 0.25


def test_total_cells_geometric_series():
    mesh = build_hierarchy(2, 5)
    total = sum(mesh.n_cells(l) for l in range(mesh.n_levels))
    assert total == 341
    # cross-check by enumerating lattices
    assert sum(len(mesh.cell_lattices(l)) for l in range(5)) == 341


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lattice_digits_round_trip(m, dim):
    digits = lattice(m, dim)
    assert digits.shape == (m**dim, dim)
    assert digits.min() >= 0 and digits.max() <= m - 1
    index = sum(digits[:, a] * m**a for a in range(dim))
    assert np.array_equal(index, np.arange(m**dim))


@pytest.mark.parametrize("dim,n_levels", [(0, 1), (1, 2), (4, 2), (2, 0), (3, -1)])
def test_build_rejects_bad_arguments(dim, n_levels):
    with pytest.raises(ValueError):
        build_hierarchy(dim, n_levels)


def test_cell_centers():
    for dim, n_levels, level, lattice, center in (
        (3, 1, 0, (0, 0, 0), [0.5, 0.5, 0.5]),
        (2, 2, 1, (1, 1), [0.75, 0.75]),
        (2, 3, 2, (3, 0), [0.875, 0.125]),
    ):
        mesh = build_hierarchy(dim, n_levels)
        centers = (mesh.cell_lattices(level) + 0.5) * mesh.h(level)
        index = sum(c * mesh.cells_per_axis(level) ** a for a, c in enumerate(lattice))  # x fastest
        assert np.allclose(centers[index], center)


@given(dim=st.sampled_from([2, 3]), n_levels=st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_volume_conservation_and_cover(dim, n_levels):
    mesh = build_hierarchy(dim, n_levels)
    for level in range(n_levels - 1):
        child_vol = mesh.h(level + 1) ** dim
        assert 2**dim * child_vol == mesh.h(level) ** dim  # exact in binary floats
    for level in range(n_levels):
        centers = (mesh.cell_lattices(level) + 0.5) * mesh.h(level)
        assert np.all(centers > 0.0) and np.all(centers < 1.0)
        seen = {tuple(c) for c in centers}
        assert len(seen) == mesh.n_cells(level)
