"""Frames, grids, and discrete calculus identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgamma.errors import NonUnitNormal, ShapeMismatch
from cellgamma.grid import (CellGrid, StateField, TensorField,
                            build_cell_grid, build_frame, diff_axis,
                            diff_axis_transpose, divergence, gradient, inner,
                            integrate, laplacian)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_frame_orthonormal(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    f = build_frame(v)
    assert f.gram_residual() < 1e-12
    assert np.array_equal(f.nu, v)


def test_frame_deterministic():
    nu = np.array([0.6, 0.8])
    assert np.array_equal(build_frame(nu).basis, build_frame(nu).basis)


def test_frame_rejects_non_unit():
    with pytest.raises(NonUnitNormal):
        build_frame([1.0, 1.0])


def test_grid_geometry():
    g = build_cell_grid(build_frame([1.0, 0.0]), 9, n_lateral=8)
    assert g.spacing(0) == 1.0 / 8.0
    assert g.spacing(1) == 1.0 / 8.0
    t = g.axis_coords(0)
    assert t[0] == -0.5 and t[-1] == 0.5
    lat = g.axis_coords(1)
    assert lat[0] == -0.5 and lat[-1] < 0.5
    assert abs(np.sum(g.node_weights()) - 1.0) < 1e-14


def test_grid_validation():
    f = build_frame([1.0, 0.0])
    with pytest.raises(ShapeMismatch):
        CellGrid(frame=f, n_axes=(4, 8))
    with pytest.raises(ShapeMismatch):
        build_cell_grid(f, 16, n_lateral=2)


def test_transpose_is_exact_adjoint():
    g = build_cell_grid(build_frame([0.0, 1.0]), 11, n_lateral=6)
    rng = np.random.default_rng(3)
    for ax in range(2):
        u = rng.standard_normal(g.shape)
        v = rng.standard_normal(g.shape)
        lhs = np.sum(diff_axis(g, u, ax) * v)
        rhs = np.sum(u * diff_axis_transpose(g, v, ax))
        assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_divergence_is_negative_weighted_adjoint():
    g = build_cell_grid(build_frame([0.6, 0.8]), 10, n_lateral=7)
    rng = np.random.default_rng(4)
    u = StateField(g, rng.standard_normal(g.shape + (2,)))
    V = TensorField(g, rng.standard_normal(g.shape + (2, 2)))
    lhs = inner(g, gradient(u).values, V.values)
    rhs = -inner(g, u.values, divergence(V).values)
    assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_laplacian_of_lateral_mode():
    # periodic axis: the central stencil has symbol -sin^2(2 pi k h)/h^2
    g = build_cell_grid(build_frame([1.0, 0.0]), 9, n_lateral=16)
    y = g.axis_coords(1)
    f = StateField(g, np.broadcast_to(np.sin(2 * np.pi * y), g.shape)[..., None].copy())
    lap = laplacian(f).values[4, :, 0]  # away from normal ends
    h = g.spacing(1)
    sym = -np.square(np.sin(2 * np.pi * h) / h)
    assert np.max(np.abs(lap - sym * np.sin(2 * np.pi * y))) < 1e-10


def test_gradient_exact_for_linear():
    g = build_cell_grid(build_frame([0.8, 0.6]), 12, n_lateral=8)
    c = np.array([0.3, -1.2])
    t = g.coords_normal()
    # linear in the normal coordinate: grad = (c . nu-slope) nu
    f = StateField(g, (2.0 * t)[..., None] * np.ones(g.shape + (1,)))
    gv = gradient(f).values
    expect = 2.0 * g.frame.nu
    assert np.max(np.abs(gv[..., 0, :] - expect)) < 1e-12
    del c


def test_integrate_constant():
    g = build_cell_grid(build_frame([1.0, 0.0, 0.0]), 8, n_lateral=4)
    assert abs(integrate(g, np.full(g.shape, 2.5)) - 2.5) < 1e-13


def test_state_field_shape_check():
    g = build_cell_grid(build_frame([1.0]), 16)
    with pytest.raises(ShapeMismatch):
        StateField(g, np.zeros((15, 1)))
    with pytest.raises(ShapeMismatch):
        TensorField(g, np.zeros((16, 1, 3)))
