"""Cell potential solves: analytic accuracy, exact duality identities,
and solvability guards."""

import gc
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgamma import grid as cgrid
from cellgamma import poisson
from cellgamma.cellopt import CellEvaluation, OptimizerOptions, init_profiles
from cellgamma.errors import NeumannIncompatible, ShapeMismatch, SolverDiverged
from cellgamma.grid import (CellGrid, StateField, TensorField, build_cell_grid,
                            build_frame, gradient, inner)
from cellgamma.model import JumpData, catalog_lookup
from cellgamma.poisson import (BcVariant, duality_gap, leray_project,
                               nonlocal_energy, solve_cell_poisson)


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
@pytest.mark.parametrize("nu, n_axes", [
    pytest.param([1.0, 0.0], (9, 8), id="8"),
    pytest.param([1.0, 0.0], (9, 7), id="7"),
    pytest.param([0.6, 0.8], (9, 8), id="tilted"),
    pytest.param([0.48, 0.6, 0.64], (9, 6, 5), id="3d"),
    pytest.param([1.0, 0.0], (10, 8), id="even-8"),
    pytest.param([0.6, 0.8], (8, 7), id="even-tilted"),
])
def test_matches_dense_least_squares(bc, nu, n_axes):
    # gradH against the dense minimizer of sum w |grad H - M|^2 over the
    # bc class, with grad H built column by column from grid.gradient;
    # an even lateral count adds a Nyquist kernel mode, and the tilted
    # and 3-D cells check the frame components of the solve.  Both bcs
    # solve an odd row count at 9 normal nodes and an even one at 8 and
    # 10, so both layouts of the parity-folded eigenbasis are covered
    g = CellGrid(frame=build_frame(nu), n_axes=n_axes)
    rng = np.random.default_rng(n_axes[-1])
    M = TensorField(g, rng.standard_normal(g.shape + (2, g.dim)))
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
        # mode with mu = 0 (the zero mode, and the Nyquist mode of each
        # even axis)
        w = g.axis_weights(0)
        Hhat = np.fft.rfftn(pot.H.values, axes=tuple(range(1, g.dim)))
        scale = np.max(np.abs(Hhat))
        kernel = itertools.product(*[[0] + ([n // 2] if n % 2 == 0 else [])
                                     for n in n_axes[1:]])
        for k in kernel:
            assert np.max(np.abs(w @ Hhat[(slice(None),) + k])) <= 1e-12 * scale


def _unfolded_basis(data):
    """The full eigenbasis V = P diag(G[0], G[1]) of the solved rows:
    even columns [y; (y_mid); J y], odd columns [y; 0; -J y]."""
    even, odd = data.G
    n, half = data.inv.shape[0], data.half
    V = np.zeros((n, n))
    V[:n - half, :n - half] = even
    V[n - half:, :n - half] = even[:half][::-1]
    V[:half, n - half:] = odd
    V[n - half:, n - half:] = -odd[::-1]
    return V


@pytest.mark.parametrize("bc", BcVariant.CELL_KINDS)
@pytest.mark.parametrize("n0", [8, 9, 64])
def test_folded_eigenbasis(bc, n0):
    # the two half-size bases rebuild the generalized eigenbasis of the
    # normal operator on the solved rows: A0 V = W V diag(lam) and
    # V^T W V = I to round-off, the inverse table holds 1/(lam + mu) with
    # the even rows first, and Neumann has exactly one kernel column,
    # the constant, whose entry is 0 in the zero mode
    g = _grid(n0, 4)
    data = poisson._solver_data(g, bc)
    rows = data.rows
    A0 = data.A0.toarray()[rows, rows]
    w = data.w_nu[rows]
    V = _unfolded_basis(data)
    lam = np.einsum("ij,ij->j", V, A0 @ V)
    scale = np.max(np.sum(np.abs(A0), axis=1)) * np.max(np.abs(V))
    assert np.max(np.abs(A0 @ V - w[:, None] * V * lam)) <= 1e-12 * scale
    assert np.max(np.abs(V.T @ (w[:, None] * V) - np.eye(w.size))) <= 1e-12
    k = 1  # a mode with mu > 0, where no entry is pinned
    assert data.mu[k] > 0.0
    assert np.allclose(data.inv[:, k], 1.0 / (lam + data.mu[k]),
                       rtol=1e-12, atol=0.0)
    kernel = np.flatnonzero(np.abs(lam) <= 1e-10 * np.max(lam))
    pinned = np.flatnonzero(data.inv[:, 0] == 0.0)
    if bc == BcVariant.NEUMANN:
        assert kernel.tolist() == [0] and pinned.tolist() == [0]
        assert np.allclose(V[:, 0], V[0, 0], rtol=1e-12, atol=0.0)
    else:
        assert kernel.size == 0 and pinned.size == 0


def test_residual_check_fires(monkeypatch):
    # a flux with a NaN entry, or a solve with inverse eigenvalues off by
    # 1%, is no solve: the residual check of the normal equations must
    # raise
    g = _grid(17, 16)
    M = TensorField(g, np.random.default_rng(5).standard_normal(g.shape + (1, 2)))
    bad = M.values.copy()
    bad[5, 3, 0, 1] = np.nan
    for bc in BcVariant.CELL_KINDS:
        with pytest.raises(SolverDiverged):
            solve_cell_poisson(TensorField(g, bad), bc, check_compat=False)
        solve_cell_poisson(M, bc, check_compat=False)
        data = poisson._solver_data(g, bc)
        monkeypatch.setattr(data, "inv", 1.01 * data.inv)
        with pytest.raises(SolverDiverged):
            solve_cell_poisson(M, bc, check_compat=False)


def _solve_copy(M, bc):
    pot = solve_cell_poisson(M, bc, check_compat=False)
    return pot.H.values.copy(), pot.gradH.values.copy(), pot


def test_work_area_never_leaks_into_results():
    # H and grad H are fresh arrays: later solves of the same shape under
    # both bcs, and of another flux row count, leave them as they were
    g = _grid(17, 16)
    rng = np.random.default_rng(8)
    M = TensorField(g, rng.standard_normal(g.shape + (1, 2)))
    H, gH, pot = _solve_copy(M, BcVariant.NEUMANN)
    other = TensorField(g, rng.standard_normal(g.shape + (1, 2)))
    for bc in BcVariant.CELL_KINDS:
        solve_cell_poisson(other, bc, check_compat=False)
    solve_cell_poisson(TensorField(g, rng.standard_normal(g.shape + (2, 2))),
                       BcVariant.DIRICHLET, check_compat=False)
    assert np.array_equal(pot.H.values, H)
    assert np.array_equal(pot.gradH.values, gH)


_FRESH_DIRICHLET = """
import sys
import numpy as np
from cellgamma.grid import TensorField, build_cell_grid, build_frame
from cellgamma.poisson import BcVariant, solve_cell_poisson
g = build_cell_grid(build_frame([0.6, 0.8]), 19, 12)
M = TensorField(g, np.random.default_rng(9).standard_normal(g.shape + (1, 2)))
pot = solve_cell_poisson(M, BcVariant.DIRICHLET)
np.save(sys.argv[1], np.concatenate([pot.H.values.ravel(), pot.gradH.values.ravel()]))
"""


def test_dirichlet_after_neumann_matches_fresh_process(tmp_path):
    # the two bcs share one work area; the end slabs a Neumann solve
    # wrote must not reach the Dirichlet solve that follows it
    g = build_cell_grid(build_frame([0.6, 0.8]), 19, 12)
    M = TensorField(g, np.random.default_rng(9).standard_normal(g.shape + (1, 2)))
    solve_cell_poisson(M, BcVariant.NEUMANN, check_compat=False)
    pot = solve_cell_poisson(M, BcVariant.DIRICHLET)
    out = tmp_path / "fresh.npy"
    src = str(Path(poisson.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", _FRESH_DIRICHLET, str(out)],
                   check=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    fresh = np.load(out)
    got = np.concatenate([pot.H.values.ravel(), pot.gradH.values.ravel()])
    assert np.array_equal(got, fresh)


def test_solve_after_divergence_is_correct(monkeypatch):
    # a solve that raised SolverDiverged half way leaves the work area in
    # any state; the next solve must not see it
    g = _grid(17, 16)
    M = TensorField(g, np.random.default_rng(10).standard_normal(g.shape + (1, 2)))
    for bc in BcVariant.CELL_KINDS:
        H, gH, _ = _solve_copy(M, bc)
        data = poisson._solver_data(g, bc)
        with monkeypatch.context() as patch:
            patch.setattr(data, "inv", 1.01 * data.inv)
            with pytest.raises(SolverDiverged):
                solve_cell_poisson(M, bc, check_compat=False)
        pot = solve_cell_poisson(M, bc, check_compat=False)
        assert np.array_equal(pot.H.values, H)
        assert np.array_equal(pot.gradH.values, gH)


def test_work_areas_are_per_thread():
    # threads solving different shapes at once each get the serial result
    cases = [(_grid(17, 16), 1), (_grid(17, 16), 2), (_grid(19, 12), 1),
             (_grid(21, 8), 2), (_grid(17, 16), 1), (_grid(19, 12), 1)]
    fluxes = [TensorField(g, np.random.default_rng(i).standard_normal(
        g.shape + (rows, 2))) for i, (g, rows) in enumerate(cases)]
    ref = [[_solve_copy(M, bc)[0] for bc in BcVariant.CELL_KINDS] for M in fluxes]
    bad = []

    def work(i):
        for _ in range(10):
            for j, bc in enumerate(BcVariant.CELL_KINDS):
                H = solve_cell_poisson(fluxes[i], bc, check_compat=False).H.values
                if not np.array_equal(H, ref[i][j]):
                    bad.append((i, bc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def _traced_peak(call):
    """Bytes by which the traced memory peaks above its level before
    ``call()``."""
    tracing = tracemalloc.is_tracing()  # e.g. under python -X tracemalloc
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("bc", BcVariant.CELL_KINDS)
def test_solve_memory_peak(bc):
    # after a warm-up call fills the caches and the work area, a 64x64
    # energy allocates little beyond the H and grad H it returns (3 nodal
    # arrays): the traced peak stays at 9 nodal float64 arrays
    g = _grid(64, 64)
    M = TensorField(g, np.random.default_rng(11).standard_normal(g.shape + (1, 2)))
    nonlocal_energy(M, bc, check_compat=False)
    peak = _traced_peak(lambda: nonlocal_energy(M, bc, check_compat=False))
    assert peak <= 9 * g.n_axes[0] * g.n_axes[1] * 8


@pytest.mark.parametrize("bc", BcVariant.CELL_KINDS)
def test_evaluation_memory_peak(bc):
    # once the Gauss-point and potential work areas exist, a 64x64
    # micromagnetic evaluation and its gradient allocate only nodal
    # arrays: Kz, the stiffness and gradient temporaries, the potential
    # field and the returned gradient.  The traced peak was 18.1 nodal
    # float64 arrays (a 3-component state is 3 of them); a fresh
    # Gauss-point array is 9 state arrays, 27 nodal ones
    mm = catalog_lookup("micromagnetics_2d")
    jump = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                    nu=[1.0, 0.0])
    g = _grid(64, 64)
    v = init_profiles(jump, mm, g, "random_perturbed",
                      OptimizerOptions(n_random=1))[0].values
    CellEvaluation(g, v, mm, bc).gradient(0.1)
    peak = _traced_peak(lambda: CellEvaluation(g, v, mm, bc).gradient(0.1))
    assert peak <= 24 * g.n_axes[0] * g.n_axes[1] * 8


def test_end_fluxes_once_per_neumann_solve(monkeypatch):
    # the compatibility check and the mean-flux shift share one
    # computation of the end-slab fluxes
    calls = []
    end_fluxes = poisson._end_fluxes

    def counted(*args):
        calls.append(1)
        return end_fluxes(*args)

    monkeypatch.setattr(poisson, "_end_fluxes", counted)
    g = _grid(17, 16)
    solve_cell_poisson(TensorField(g, np.zeros(g.shape + (1, 2))), BcVariant.NEUMANN)
    assert len(calls) == 1


def test_per_grid_caches_bounded():
    # one new grid per step, as in the gamma sweep: the solver cache is
    # keyed by node counts, the derivative cache by node counts and
    # frame; both stay bounded and hold no grid
    frame = build_frame([1.0, 0.0])
    grids = [build_cell_grid(frame, 9 + i, 4)
             for i in range(cgrid.CACHE_SIZE + 3)]
    first = weakref.ref(grids[0])
    for g in grids:
        for bc in BcVariant.CELL_KINDS:
            solve_cell_poisson(TensorField(g, np.zeros(g.shape + (1, 2))), bc)
    assert len(poisson._cache) == cgrid.CACHE_SIZE
    assert len(cgrid._cache) == cgrid.CACHE_SIZE
    keys, dkeys = list(poisson._cache), list(cgrid._cache)
    # a straight grid of a cached shape shares its derivatives
    again = build_cell_grid(frame, grids[-1].n_axes[0], 4)
    assert cgrid.derivatives(again) is cgrid.derivatives(grids[-1])
    assert list(cgrid._cache) == dkeys
    # a tilted one reuses its solver entries but not its derivatives
    tilted = build_cell_grid(build_frame([0.6, 0.8]), grids[-1].n_axes[0], 4)
    solve_cell_poisson(TensorField(tilted, np.zeros(tilted.shape + (1, 2))),
                       BcVariant.NEUMANN)
    assert list(poisson._cache) == keys
    assert (tilted.n_axes, BcVariant.NEUMANN) in poisson._cache
    assert cgrid.derivatives(tilted) is not cgrid.derivatives(grids[-1])
    assert list(cgrid._cache) == dkeys[1:] + [
        (tilted.n_axes, tilted.frame.basis.tobytes())]
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


@pytest.mark.parametrize("bc", BcVariant.CELL_KINDS)
def test_duality_gap_detects_wrong_potential(monkeypatch, bc):
    # a solve whose grad H is off by a factor 1.5 is no minimizer: the
    # gap must show it, not compare int |grad H|^2 with itself
    solve = poisson.solve_cell_poisson

    def scaled(*args, **kwargs):
        pot = solve(*args, **kwargs)
        pot.gradH = TensorField(pot.gradH.grid, 1.5 * pot.gradH.values)
        return pot

    g = _grid(17, 16)
    M = TensorField(g, np.random.default_rng(3).standard_normal(g.shape + (1, 2)))
    m_sq = inner(g, M.values, M.values)
    assert duality_gap(M, bc).gap <= 1e-9 * (1.0 + m_sq)
    monkeypatch.setattr(poisson, "solve_cell_poisson", scaled)
    assert duality_gap(M, bc).gap > 1e-9 * (1.0 + m_sq)


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
