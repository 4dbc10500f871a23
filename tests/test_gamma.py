"""Recovery fields and the epsilon sweep of the full energy against the
cell-problem prediction."""

import numpy as np
import pytest

from cellgamma.cellopt import (OptimizerOptions, compute_cell_energy,
                               local_integrals)
from cellgamma.errors import EpsilonTooLarge, ShapeMismatch
from cellgamma.gamma import (DomainSpec, build_recovery_field,
                             evaluate_full_energy, run_gamma_sweep,
                             write_sweep_csv)
from cellgamma.grid import StateField, build_cell_grid, build_frame
from cellgamma.model import JumpData, catalog_lookup
from cellgamma.poisson import padded_box_nonlocal_energy

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
    outside = np.abs(s) >= 2.0 * eps
    vals = f.values[..., 0]
    assert np.all(vals[outside & (s > 0)] == 1.0)
    assert np.all(vals[outside & (s < 0)] == -1.0)


def test_recovery_monotone_across_interface():
    f = build_recovery_field(DOMAIN, CELL, 1.0 / 16.0)
    line = f.values[:, 0, 0]
    assert np.all(np.diff(line) >= -1e-12)
    assert line[0] == -1.0 and line[-1] == 1.0


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


def test_full_energy_adds_padded_box_stray_field():
    # micromagnetics has a nonzero flux: the full energy adds the
    # padded-box whole-space term, scaled like the potential term
    mm = catalog_lookup("micromagnetics_2d")
    domain = DomainSpec(nu=[1.0, 0.0], resolution=32)
    g = domain.build_grid()
    a = 0.5 * np.pi * np.tanh(8.0 * g.coords_normal())
    values = np.stack([np.sin(a), np.cos(a), np.zeros_like(a)], axis=-1)
    eps = 1.0 / 8.0
    total = evaluate_full_energy(StateField(g, values), eps, mm, domain)
    eg, ew = local_integrals(g, values, mm)
    padded, _ = padded_box_nonlocal_energy(
        mm.Psi.value(values), [g.spacing(0), g.spacing(1)], pad_factor=4)
    assert padded > 0.0
    assert total == float(eps * eg + ew / eps + padded / eps)
