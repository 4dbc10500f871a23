"""Cell potential solves: analytic accuracy, exact duality identities,
solvability guards, and the padded-box surrogate."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgamma import cellopt, poisson
from cellgamma.errors import NeumannIncompatible, ShapeMismatch
from cellgamma.grid import (GRID_CACHE_SIZE, CellGrid, StateField, TensorField,
                            build_cell_grid, build_frame, gradient, inner)
from cellgamma.poisson import (BcVariant, duality_gap, leray_project,
                               nonlocal_energy, padded_box_nonlocal_energy,
                               solve_cell_poisson)


def _grid(n_normal=33, n_lateral=32):
    return build_cell_grid(build_frame([1.0, 0.0]), n_normal, n_lateral)


def _manufactured_flux(grid):
    """M = grad Hex for Hex = cos(pi(t + 1/2)) cos(2 pi y): dHex/dt = 0
    at t = +-1/2, lateral-periodic, so Hex solves the Neumann problem
    with flux M exactly in the continuum."""
    t = grid.coords_normal()
    y = grid.axis_coords(1)[None, :] * np.ones(grid.shape)
    hex_ = np.cos(np.pi * (t + 0.5)) * np.cos(2 * np.pi * y)
    m = np.stack([-np.pi * np.sin(np.pi * (t + 0.5)) * np.cos(2 * np.pi * y),
                  -2 * np.pi * np.cos(np.pi * (t + 0.5)) * np.sin(2 * np.pi * y)],
                 axis=-1)[..., None, :]
    return hex_, m


def test_neumann_convergence_to_analytic():
    errs = []
    for n in (17, 33, 65):
        g = build_cell_grid(build_frame([1.0, 0.0]), n, n - 1)
        hex_, m = _manufactured_flux(g)
        pot = solve_cell_poisson(TensorField(g, m), BcVariant.NEUMANN)
        w = g.node_weights()
        hex_ -= np.sum(w * hex_) / np.sum(w)
        errs.append(np.max(np.abs(pot.H.values[..., 0] - hex_)))
    # second-order stencils: error drops ~4x per refinement
    assert errs[1] < 0.35 * errs[0]
    assert errs[2] < 0.35 * errs[1]


@pytest.mark.parametrize("bc", BcVariant.CELL_KINDS)
@pytest.mark.parametrize("n_lateral", [8, 7])
def test_matches_dense_least_squares(bc, n_lateral):
    # gradH against the dense minimizer of sum w |grad H - M|^2 over the
    # bc class, with grad H built column by column from grid.gradient;
    # an even lateral count adds the Nyquist kernel mode
    g = build_cell_grid(build_frame([1.0, 0.0]), 9, n_lateral)
    rng = np.random.default_rng(n_lateral)
    M = TensorField(g, rng.standard_normal(g.shape + (2, 2)))
    pot = solve_cell_poisson(M, bc, check_compat=False, shift_mean_flux=False)

    free = np.ones(g.shape, dtype=bool)
    if bc == BcVariant.DIRICHLET:
        free[0] = free[-1] = False
    cols = []
    for i in np.flatnonzero(free):
        e = np.zeros(g.shape + (1,))
        e.flat[i] = 1.0
        cols.append(gradient(StateField(g, e)).values[..., 0, :].ravel())
    G = np.stack(cols, axis=1)
    sw = np.repeat(np.sqrt(g.node_weights()).ravel(), g.dim)[:, None]
    for a in range(M.rows):
        h, *_ = np.linalg.lstsq(sw * G, sw[:, 0] * M.values[..., a, :].ravel(),
                                rcond=None)
        ref = (G @ h).reshape(g.shape + (g.dim,))
        err = np.max(np.abs(pot.gradH.values[..., a, :] - ref))
        assert err <= 1e-11 * np.max(np.abs(ref))

    if bc == BcVariant.NEUMANN:
        # the gauge: H is W-orthogonal to the constants in every lateral
        # mode with mu = 0 (the zero mode and the Nyquist mode if even)
        w = g.axis_weights(0)
        Hhat = np.fft.rfft(pot.H.values, axis=1)
        kernel = [0] + ([n_lateral // 2] if n_lateral % 2 == 0 else [])
        scale = np.max(np.abs(Hhat))
        for k in kernel:
            assert np.max(np.abs(w @ Hhat[:, k])) <= 1e-12 * scale


def test_per_grid_caches_bounded():
    # one new grid per step, as in the gamma sweep: the solver and
    # assembler caches stay bounded and let evicted grids go
    frame = build_frame([1.0, 0.0])
    grids = [build_cell_grid(frame, 9, 4) for _ in range(GRID_CACHE_SIZE + 3)]
    first = weakref.ref(grids[0])
    M = np.zeros((9, 4, 1, 2))
    for g in grids:
        for bc in BcVariant.CELL_KINDS:
            solve_cell_poisson(TensorField(g, M), bc)
        cellopt._assembler(g)
    assert len(poisson._cache) == GRID_CACHE_SIZE
    assert len(cellopt._assemblers) == GRID_CACHE_SIZE
    assert (id(grids[-1]), BcVariant.NEUMANN) in poisson._cache
    del grids, g
    gc.collect()
    assert first() is None


def test_gradient_flux_gives_exact_energy():
    # for M already a discrete gradient, H recovers it and the duality
    # gap vanishes to round-off
    g = _grid()
    rng = np.random.default_rng(0)
    M = TensorField(g, rng.standard_normal(g.shape + (1, 2)))
    rep = duality_gap(M, BcVariant.NEUMANN)
    assert rep.gap <= 1e-9 * (1.0 + inner(g, M.values, M.values))


def test_duality_gap_random_fluxes():
    g = _grid(17, 16)
    rng = np.random.default_rng(1)
    for _ in range(10):
        M = TensorField(g, rng.standard_normal(g.shape + (1, 2)))
        m_sq = inner(g, M.values, M.values)
        for bc in (BcVariant.NEUMANN, BcVariant.DIRICHLET):
            rep = duality_gap(M, bc)
            assert rep.gap <= 1e-9 * (1.0 + m_sq)


def test_dirichlet_below_neumann():
    g = _grid(17, 16)
    rng = np.random.default_rng(2)
    for _ in range(10):
        M = TensorField(g, rng.standard_normal(g.shape + (1, 2)))
        e_n, _ = nonlocal_energy(M, BcVariant.NEUMANN, check_compat=False)
        e_d, _ = nonlocal_energy(M, BcVariant.DIRICHLET)
        assert e_d <= e_n + 1e-9 * (1.0 + e_n)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=3),
       st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=2),
       st.integers(min_value=8, max_value=9),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_duality_and_ordering_property(dim, lateral, n_normal, rows, seed):
    # 2-D and 3-D frames with tilted normals, odd and even lateral
    # counts: the duality gap vanishes and Dirichlet <= Neumann, both to
    # round-off
    rng = np.random.default_rng(seed)
    nu = rng.standard_normal(dim)
    nu /= np.linalg.norm(nu)
    n_axes = (n_normal,) + tuple(lateral[:dim - 1])
    g = CellGrid(frame=build_frame(nu), n_axes=n_axes)
    M = TensorField(g, rng.standard_normal(g.shape + (rows, dim)))
    m_sq = inner(g, M.values, M.values)
    for bc in BcVariant.CELL_KINDS:
        assert duality_gap(M, bc).gap <= 1e-9 * (1.0 + m_sq)
    e_n, _ = nonlocal_energy(M, BcVariant.NEUMANN, check_compat=False)
    e_d, _ = nonlocal_energy(M, BcVariant.DIRICHLET)
    assert e_d <= e_n + 1e-9 * (1.0 + e_n)


def test_one_dimensional_cell_rejected():
    # the potential solve needs a lateral axis; no catalog model has a
    # nonzero flux on a one-dimensional cell
    g = build_cell_grid(build_frame([1.0]), 16)
    M = TensorField(g, np.zeros(g.shape + (1, 1)))
    for bc in BcVariant.CELL_KINDS:
        with pytest.raises(ShapeMismatch):
            solve_cell_poisson(M, bc)


def test_constant_flux_zero_energy():
    g = _grid(17, 16)
    M = TensorField(g, np.broadcast_to(np.array([[0.3, -1.1]]),
                                       g.shape + (1, 2)).copy())
    for bc in (BcVariant.NEUMANN, BcVariant.DIRICHLET):
        e, _ = nonlocal_energy(M, bc)
        assert abs(e) < 1e-20


def test_neumann_incompatible_guard():
    # normal flux differs between the two pinned slabs
    g = _grid(17, 16)
    t = g.coords_normal()
    m = np.zeros(g.shape + (1, 2))
    m[..., 0, 0] = t  # M.nu = -1/2 at bottom, +1/2 at top
    with pytest.raises(NeumannIncompatible):
        solve_cell_poisson(TensorField(g, m), BcVariant.NEUMANN)
    # the Dirichlet variant accepts the same data
    solve_cell_poisson(TensorField(g, m), BcVariant.DIRICHLET)


def test_leray_idempotent_and_orthogonal():
    g = _grid(17, 16)
    rng = np.random.default_rng(3)
    V = TensorField(g, rng.standard_normal(g.shape + (1, 2)))
    for bc in (BcVariant.NEUMANN, BcVariant.DIRICHLET):
        P = leray_project(V, bc)
        P2 = leray_project(P, bc)
        assert np.max(np.abs(P2.values - P.values)) < 1e-9
        # orthogonal to the removed gradient part
        G = V.values - P.values
        assert abs(inner(g, P.values, G)) < 1e-9 * (1.0 + inner(g, V.values, V.values))


def test_padded_box_dipole_and_adequacy():
    # compact dipole-like flux on a small box; doubling the padding
    # moves the energy by at most 1 percent
    rng = np.random.default_rng(4)
    n = 24
    x = np.linspace(-1, 1, n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    bump = np.exp(-8.0 * (X ** 2 + Y ** 2))
    M = np.zeros((n, n, 1, 2))
    M[..., 0, 0] = bump
    h = x[1] - x[0]
    e4, _ = padded_box_nonlocal_energy(M, [h, h], pad_factor=4)
    e8, _ = padded_box_nonlocal_energy(M, [h, h], pad_factor=8)
    assert e4 > 0
    assert abs(e8 - e4) <= 0.01 * e4
