"""Frames, grids, and discrete calculus identities."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgamma.errors import NonUnitNormal, ShapeMismatch
from cellgamma.grid import (CellGrid, StateField, TensorField, apply_nodal,
                            build_cell_grid, build_frame, derivatives,
                            divergence, gradient, inner, laplacian,
                            lateral_modes)


def _axis_reference(grid, values, ax):
    # independent of the grid's matrices: np.gradient with second-order
    # ends along the normal, the circulant central difference laterally
    h = grid.spacing(ax)
    if ax == 0:
        return np.gradient(values, h, axis=0, edge_order=2)
    return (np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2.0 * h)


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
    # node counts that are not integers, bool included, were truncated
    for n_axes in ((16.0, 8), (16.9, 4.5), (16, True)):
        with pytest.raises(ShapeMismatch):
            CellGrid(frame=f, n_axes=n_axes)
    with pytest.raises(ShapeMismatch):
        build_cell_grid(f, 24.7, n_lateral=8)
    assert CellGrid(frame=f, n_axes=(np.int64(16), 8)).shape == (16, 8)


def test_build_cell_grid_takes_only_normal_and_lateral_counts():
    # per-axis counts go to CellGrid directly; build_cell_grid used to
    # take them too and drop its n_normal without a word
    f = build_frame([1.0, 0.0])
    assert build_cell_grid(f, 64, n_lateral=8).shape == (64, 8)
    assert CellGrid(frame=f, n_axes=(32, 8)).shape == (32, 8)
    with pytest.raises(TypeError):
        build_cell_grid(f, 64, n_axes=(32, 8))


def test_transpose_is_exact_adjoint():
    # on straight frames d_j is the derivative along axis j: np.gradient
    # along the normal, the circulant difference on lateral axes of 1 to
    # 8 nodes (zero under 3); every d_j^T is the exact transpose, and
    # <d_j u, v> = <u, d_j^T v>
    rng = np.random.default_rng(3)
    for n_axes in ((11, 6), (11, 1), (11, 2), (11, 3), (11, 8), (9, 3, 1)):
        g = CellGrid(frame=build_frame([1.0, 0.0, 0.0][:len(n_axes)]),
                     n_axes=n_axes)
        ops = derivatives(g)
        for ax in range(g.dim):
            u = rng.standard_normal(g.shape + (2,))
            v = rng.standard_normal(g.shape + (2,))
            du = apply_nodal(ops.d[ax], u)
            ref = _axis_reference(g, u, ax)
            assert np.max(np.abs(du - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref)))
            assert np.array_equal(ops.dt[ax].toarray(), ops.d[ax].toarray().T)
            dtv = apply_nodal(ops.dt[ax], v)
            lhs = np.sum(du * v)
            rhs = np.sum(u * dtv)
            assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_divergence_is_negative_weighted_adjoint():
    g = build_cell_grid(build_frame([0.6, 0.8]), 10, n_lateral=7)
    rng = np.random.default_rng(4)
    u = StateField(g, rng.standard_normal(g.shape + (2,)))
    V = TensorField(g, rng.standard_normal(g.shape + (2, 2)))
    lhs = inner(g, gradient(u).values, V.values)
    rhs = -inner(g, u.values, divergence(V).values)
    assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_gradient_matches_per_axis_sum():
    # the physical derivative matrices against the per-axis sum of
    # independent derivatives times frame vector, on tilted 3-D frames
    # with m = 2 and lateral axes of 1 to 8 nodes
    rng = np.random.default_rng(6)
    for n_axes in ((10, 6, 5), (10, 1, 2), (10, 3, 8)):
        g = CellGrid(frame=build_frame([0.48, 0.6, 0.64]), n_axes=n_axes)
        f = StateField(g, rng.standard_normal(g.shape + (2,)))
        ref = sum(_axis_reference(g, f.values, ax)[..., None] * g.frame.basis[ax]
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


@pytest.mark.parametrize("nu, n_axes", [([1.0, 0.0], (9, 7)),
                                         ([1.0, 0.0], (9, 8)),
                                         ([2 / 3, 2 / 3, 1 / 3], (9, 7, 4))])
def test_lateral_modes_are_the_derivative_and_fft_modes(nu, n_axes):
    # each symbol is the eigenvalue i sigma of the grid's own wrapped
    # derivative on the mode (the Nyquist mode of 8 nodes included), and
    # the flat order is that of scipy.fft.rfftn over the lateral axes
    g = CellGrid(frame=build_frame(nu), n_axes=n_axes)
    shape, freq, sigma = lateral_modes(g)
    lat = n_axes[1:]
    for ax, n in enumerate(lat, start=1):
        d, h = derivatives(g).axes[ax], g.spacing(ax)
        for m, s in zip(freq[ax - 1], sigma[ax - 1]):
            e = np.exp(2j * np.pi * m * np.arange(n) / n)
            assert np.max(np.abs(d @ e - 1j * s * e)) <= 1e-13 / h
    nodes = np.meshgrid(*[np.arange(n) for n in lat], indexing="ij")
    for f, m in enumerate(freq.T):
        phase = sum(2.0 * np.pi * mx * j / n for mx, j, n in zip(m, nodes, lat))
        peak = np.abs(scipy.fft.rfftn(np.cos(phase))).ravel()
        assert peak.size == np.prod(shape)
        # a real mode also fills its mirror -m where that is stored
        assert peak[f] == pytest.approx(peak.max(), rel=1e-12)
        assert np.sum(peak > 1e-9 * peak.max()) <= 2


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
