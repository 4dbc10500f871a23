"""Recovery fields and the epsilon sweep of the full energy against the
cell-problem prediction."""

import numpy as np
import pytest

from cellgamma.cellopt import (CellEvaluation, CellSolution,
                               OptimizerOptions, compute_cell_energy)
from cellgamma.errors import EpsilonTooLarge, ShapeMismatch
from cellgamma.gamma import (DomainSpec, build_recovery_field,
                             evaluate_full_energy, run_gamma_sweep,
                             write_sweep_csv)
from cellgamma.grid import StateField, TensorField, build_cell_grid, build_frame
from cellgamma.model import JumpData, catalog_lookup
from cellgamma.poisson import BcVariant, nonlocal_energy

DW2 = catalog_lookup("double_well", {"space_dim": 2})
DW2_JUMP = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0, 0.0])


def _cell():
    g = build_cell_grid(build_frame([1.0, 0.0]), 129, n_lateral=4)
    return compute_cell_energy(DW2_JUMP, DW2, g,
                               opts=OptimizerOptions(n_random=0))


CELL = _cell()
DOMAIN = DomainSpec(nu=[1.0, 0.0], resolution=128)


def test_recovery_exact_outside_collar():
    eps = 1.0 / 16.0
    f = build_recovery_field(DOMAIN, CELL, eps)
    g = f.grid
    s = g.coords_normal()
    # the mapped cell's pinned end slabs begin at half its width
    outside = np.abs(s) >= eps / (2.0 * CELL.L_star)
    assert np.any(outside & (s > 0)) and np.any(outside & (s < 0))
    vals = f.values[..., 0]
    assert np.all(vals[outside & (s > 0)] == 1.0)
    assert np.all(vals[outside & (s < 0)] == -1.0)


def test_recovery_monotone_across_interface():
    f = build_recovery_field(DOMAIN, CELL, 1.0 / 16.0)
    line = f.values[:, 0, 0]
    assert np.all(np.diff(line) >= -1e-12)
    assert line[0] == -1.0 and line[-1] == 1.0


def _given_cell(grid, values, L_star):
    # a cell result from a given profile, without running the optimizer
    return CellSolution(profile=StateField(grid, values[..., None]),
                        L_star=L_star, energy=None, bc="neumann",
                        iterations=0, converged=True, starts=[], seed=0)


def _modulated_front():
    # the modulation sin(2 pi y) is not even about y = 0, so the box's
    # mirror symmetry cannot hide a jump across its seam
    g = build_cell_grid(build_frame([1.0, 0.0]), 65, n_lateral=16)
    t, y = g.axis_coords(0)[:, None], g.axis_coords(1)[None, :]
    v = np.tanh(6.0 * (t - 0.1 * np.sin(2.0 * np.pi * y)))
    v[0], v[-1] = -1.0, 1.0
    return _given_cell(g, v, 0.1)


@pytest.mark.parametrize("ratio", [4.0, 4.25, 4.4, 4.5])
def test_recovery_field_has_no_seam(ratio):
    # at a non-integer L*/epsilon a lateral period of epsilon / L* does
    # not divide the box period; a whole number of stretched periods does
    d = DomainSpec(nu=[1.0, 0.0], resolution=256)
    f = build_recovery_field(d, _modulated_front(), 0.1 / ratio).values[..., 0]
    seam = np.max(np.abs(f[:, 0] - f[:, -1]))
    step = np.max(np.abs(np.diff(f, axis=1)))
    assert seam <= step + 1e-12


def test_recovery_field_matches_np_interp_reference():
    # node by node: np.interp along the normal at each cell column, then
    # periodic np.interp across the columns at y N (mod 1), N = 4 here
    front, eps = _modulated_front(), 0.1 / 4.4
    d = DomainSpec(nu=[1.0, 0.0], resolution=32, offset=0.1)
    f = build_recovery_field(d, front, eps).values[..., 0]
    g, cg = d.build_grid(), front.profile.grid
    v = front.profile.values[..., 0]
    for i, x in enumerate(g.axis_coords(0)):
        u = np.clip((x - 0.1) / (eps / 0.1), -0.5, 0.5)
        cols = [np.interp(u, cg.axis_coords(0), v[:, j]) for j in range(16)]
        ref = np.interp(4 * g.axis_coords(1), cg.axis_coords(1), cols,
                        period=1.0)
        assert np.max(np.abs(f[i] - ref)) <= 1e-14


def test_laterally_constant_cell_gives_laterally_constant_field():
    assert np.all(CELL.profile.values == CELL.profile.values[:, :1])
    f = build_recovery_field(DOMAIN, CELL, CELL.L_star / 4.4).values
    assert np.all(f == f[:, :1])
    g = build_cell_grid(build_frame([1.0, 0.0, 0.0]), 33, n_lateral=4)
    v = np.tanh(6.0 * g.coords_normal())
    v[0], v[-1] = -1.0, 1.0
    d = DomainSpec(nu=[1.0, 0.0, 0.0], resolution=32)
    f = build_recovery_field(d, _given_cell(g, v, 0.5), 0.5 / 4.4).values
    assert np.all(f == f[:, :1, :1])
    assert f[0, 0, 0, 0] == -1.0 and f[-1, 0, 0, 0] == 1.0


def test_epsilon_halving_doubles_gradient():
    d = DomainSpec(nu=[1.0, 0.0], resolution=512)
    g1 = build_recovery_field(d, CELL, 1.0 / 16.0)
    g2 = build_recovery_field(d, CELL, 1.0 / 32.0)
    h = d.build_grid().spacing(0)
    m1 = np.max(np.abs(np.diff(g1.values[:, 0, 0]))) / h
    m2 = np.max(np.abs(np.diff(g2.values[:, 0, 0]))) / h
    assert abs(m2 / m1 - 2.0) < 0.05 * 2.0


def test_no_jump_constant_field_and_unit_ratio():
    j = JumpData(phi_plus=[1.0], phi_minus=[1.0], nu=[1.0, 0.0])
    g = build_cell_grid(build_frame([1.0, 0.0]), 64, n_lateral=4)
    cell = compute_cell_energy(j, DW2, g, opts=OptimizerOptions(n_random=0))
    f = build_recovery_field(DOMAIN, cell, 1.0 / 16.0)
    assert np.max(np.abs(f.values - 1.0)) <= 1e-12
    rows = run_gamma_sweep(DOMAIN, j, DW2, [1.0 / 8.0, 1.0 / 16.0], cell=cell)
    for r in rows:
        assert r.full_energy <= 1e-10
        assert r.ratio == 1.0


def test_epsilon_too_large():
    with pytest.raises(EpsilonTooLarge):
        build_recovery_field(DOMAIN, CELL, 0.3)
    with pytest.raises(EpsilonTooLarge):
        build_recovery_field(DOMAIN, CELL, -0.1)
    with pytest.raises(EpsilonTooLarge):
        build_recovery_field(DOMAIN, CELL, float("nan"))
    off = DomainSpec(nu=[1.0, 0.0], resolution=128, offset=0.4)
    with pytest.raises(EpsilonTooLarge):
        build_recovery_field(off, CELL, 0.06)


def test_domain_validation():
    with pytest.raises(ShapeMismatch):
        DomainSpec(nu=[1.0, 0.0], resolution=16)
    with pytest.raises(ShapeMismatch):
        DomainSpec(nu=[1.0, 0.0], resolution=64, offset=0.5)
    with pytest.raises(ShapeMismatch):
        build_recovery_field(DomainSpec(nu=[1.0], resolution=64), CELL, 0.1)
    # a non-integer resolution was truncated; a domain of another normal
    # than the cell's was swept with the cell's profile
    with pytest.raises(ShapeMismatch):
        DomainSpec(nu=[1.0, 0.0], resolution=40.5)
    with pytest.raises(ShapeMismatch):
        build_recovery_field(DomainSpec(nu=[0.6, 0.8], resolution=64), CELL, 0.1)


def test_epsilons_must_decrease():
    with pytest.raises(ShapeMismatch):
        run_gamma_sweep(DOMAIN, DW2_JUMP, DW2, [0.1, 0.1], cell=CELL)
    with pytest.raises(ShapeMismatch):
        run_gamma_sweep(DOMAIN, DW2_JUMP, DW2, [0.05, 0.1], cell=CELL)


def test_sweep_converges_to_prediction():
    rows = run_gamma_sweep(DOMAIN, DW2_JUMP, DW2,
                           [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0], cell=CELL)
    assert all(r.error == "" for r in rows)
    # lower-bound structure: the full energy never undershoots by more
    # than quadrature slack, and the last ratio is near one
    for r in rows:
        assert r.ratio >= 0.98
    assert rows[-1].ratio <= 1.05


def test_per_epsilon_error_captured():
    rows = run_gamma_sweep(DOMAIN, DW2_JUMP, DW2,
                           [0.4, 1.0 / 16.0], cell=CELL)
    assert rows[0].error.startswith("EpsilonTooLarge")
    assert np.isnan(rows[0].full_energy)
    assert rows[1].error == ""


def test_write_sweep_csv(tmp_path):
    rows = run_gamma_sweep(DOMAIN, DW2_JUMP, DW2, [1.0 / 16.0], cell=CELL)
    p = tmp_path / "sweep.csv"
    write_sweep_csv(rows, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "epsilon,full_energy,predicted,ratio"
    cells = lines[1].split(",")
    assert float(cells[0]) == 1.0 / 16.0
    # 17-significant-digit round trip is exact
    assert float(cells[3]) == rows[0].ratio


def test_one_dimensional_sweep_default_cell():
    # without a cell the sweep solves one on the default grid, 257
    # normal nodes
    dw = catalog_lookup("double_well")
    jump = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0])
    opts = OptimizerOptions(n_random=0)
    rows = run_gamma_sweep(DomainSpec(nu=[1.0], resolution=256), jump, dw,
                           [1.0 / 8.0, 1.0 / 16.0], opts=opts)
    cell = compute_cell_energy(jump, dw, build_cell_grid(build_frame([1.0]), 257),
                               opts=opts)
    assert all(r.error == "" for r in rows)
    assert all(r.predicted == cell.energy.total for r in rows)
    assert 0.98 <= rows[-1].ratio <= 1.05


def test_full_energy_adds_periodic_stray_field():
    # micromagnetics has a nonzero flux: the full energy adds the
    # periodic Neumann potential term on the box grid, scaled like the
    # potential term.  The Neel wall m = (cos a, sin a, 0) has the same
    # normal flux m1 on both box faces, as the Neumann solve requires
    mm = catalog_lookup("micromagnetics_2d")
    domain = DomainSpec(nu=[1.0, 0.0], resolution=32)
    g = domain.build_grid()
    a = 0.5 * np.pi * np.tanh(8.0 * g.coords_normal())
    values = np.stack([np.cos(a), np.sin(a), np.zeros_like(a)], axis=-1)
    eps = 1.0 / 8.0
    total = evaluate_full_energy(StateField(g, values), eps, mm)
    ev = CellEvaluation(g, values, mm, BcVariant.NEUMANN)
    e_nl, _ = nonlocal_energy(TensorField(g, mm.Psi.value(values)),
                              BcVariant.NEUMANN)
    assert ev.BH == e_nl > 0.0
    assert total == float(eps * ev.A + ev.B / eps)


def test_micromagnetic_bloch_wall_sweep_tends_to_one():
    # the Bloch wall sits on the resolved-scale floor, so the mapped
    # profile is several epsilon wide; the sweep must still reproduce
    # the cell energy, stray field included
    mm = catalog_lookup("micromagnetics_2d")
    jump = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                    nu=[1.0, 0.0])
    g = build_cell_grid(build_frame([1.0, 0.0]), 64, n_lateral=4)
    cell = compute_cell_energy(jump, mm, g, opts=OptimizerOptions(n_random=0))
    rows = run_gamma_sweep(DomainSpec(nu=[1.0, 0.0], resolution=128), jump,
                           mm, [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0], cell=cell)
    assert all(r.error == "" for r in rows)
    for r in rows:
        assert abs(r.ratio - 1.0) <= 0.05
