"""Frames, grids, and discrete calculus identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgamma.errors import NonUnitNormal, ShapeMismatch
from cellgamma.grid import (CellGrid, StateField, TensorField,
                            build_cell_grid, build_frame, diff_axis,
                            diff_axis_transpose, divergence, gradient, inner,
                            laplacian)


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


def test_node_weights_cached_and_read_only():
    g = CellGrid(frame=build_frame([0.48, 0.36, 0.8]), n_axes=(9, 5, 3))
    w = g.node_weights()
    ref = np.multiply.outer(np.multiply.outer(g.axis_weights(0),
                                              g.axis_weights(1)),
                            g.axis_weights(2))
    assert np.array_equal(w, ref)
    assert g.node_weights() is w
    with pytest.raises(ValueError):
        w[0, 0, 0] = 1.0


def test_grid_validation():
    f = build_frame([1.0, 0.0])
    with pytest.raises(ShapeMismatch):
        CellGrid(frame=f, n_axes=(4, 8))
    with pytest.raises(ShapeMismatch):
        build_cell_grid(f, 16, n_lateral=2)


def test_build_cell_grid_takes_only_normal_and_lateral_counts():
    # per-axis counts go to CellGrid directly; build_cell_grid used to
    # take them too and drop its n_normal without a word
    f = build_frame([1.0, 0.0])
    assert build_cell_grid(f, 64, n_lateral=8).shape == (64, 8)
    assert CellGrid(frame=f, n_axes=(32, 8)).shape == (32, 8)
    with pytest.raises(TypeError):
        build_cell_grid(f, 64, n_axes=(32, 8))


def test_transpose_is_exact_adjoint():
    # lateral axes of 1 and 2 nodes wrap by rolls, longer ones by slices;
    # writing to out, strided or not, gives the allocating result bit
    # for bit, and the lateral stencil is the circulant difference
    rng = np.random.default_rng(3)
    for n_axes in ((11, 6), (11, 1), (11, 2), (11, 3), (11, 8), (9, 3, 1)):
        g = CellGrid(frame=build_frame([0.0, 1.0, 0.0][:len(n_axes)]),
                     n_axes=n_axes)
        for ax in range(g.dim):
            u = rng.standard_normal(g.shape + (2,))
            v = rng.standard_normal(g.shape + (2,))
            du = diff_axis(g, u, ax)
            dtv = diff_axis_transpose(g, v, ax)
            lhs = np.sum(du * v)
            rhs = np.sum(u * dtv)
            assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))
            for op, x, ref in ((diff_axis, u, du), (diff_axis_transpose, v, dtv)):
                out = np.empty_like(x)
                assert op(g, x, ax, out=out) is out
                assert np.array_equal(out, ref)
                strided = np.full(x.shape + (2,), np.nan)
                op(g, x, ax, out=strided[..., 1])
                assert np.array_equal(strided[..., 1], ref)
                assert np.all(np.isnan(strided[..., 0]))
            if ax > 0:
                h2 = 2.0 * g.spacing(ax)
                circ = (np.roll(u, -1, axis=ax) - np.roll(u, 1, axis=ax)) / h2
                assert np.array_equal(du, circ)


def test_divergence_is_negative_weighted_adjoint():
    g = build_cell_grid(build_frame([0.6, 0.8]), 10, n_lateral=7)
    rng = np.random.default_rng(4)
    u = StateField(g, rng.standard_normal(g.shape + (2,)))
    V = TensorField(g, rng.standard_normal(g.shape + (2, 2)))
    lhs = inner(g, gradient(u).values, V.values)
    rhs = -inner(g, u.values, divergence(V).values)
    assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_gradient_matches_per_axis_sum():
    # the one basis product against the per-axis sum of derivative
    # times frame vector, on tilted 3-D frames with m = 2 and lateral
    # axes that wrap by rolls and by slices
    rng = np.random.default_rng(6)
    for n_axes in ((10, 6, 5), (10, 1, 2), (10, 3, 8)):
        g = CellGrid(frame=build_frame([0.48, 0.6, 0.64]), n_axes=n_axes)
        f = StateField(g, rng.standard_normal(g.shape + (2,)))
        ref = sum(diff_axis(g, f.values, ax)[..., None] * g.frame.basis[ax]
                  for ax in range(g.dim))
        err = np.max(np.abs(gradient(f).values - ref))
        assert err <= 1e-14 * np.max(np.abs(ref))


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
    assert abs(inner(g, np.full(g.shape, 2.5), np.ones(g.shape)) - 2.5) < 1e-13


def test_state_field_shape_check():
    g = build_cell_grid(build_frame([1.0]), 16)
    with pytest.raises(ShapeMismatch):
        StateField(g, np.zeros((15, 1)))
    with pytest.raises(ShapeMismatch):
        TensorField(g, np.zeros((16, 1, 3)))
