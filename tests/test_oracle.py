"""Independent slow oracles: geodesic path energies, brute force on
tiny grids, finite-difference gradients."""

import numpy as np
import pytest

from cellgamma.cellopt import OptimizerOptions, compute_cell_energy
from cellgamma.errors import BadParams, DimensionTooLarge, ProblemTooLarge
from cellgamma.grid import build_cell_grid, build_frame
from cellgamma.model import JumpData, catalog_lookup
from cellgamma.oracle import (brute_force_cell_min, geodesic_energy_1d,
                              geodesic_path_1d)

DW = catalog_lookup("double_well")
DW_JUMP = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0])


def test_double_well_oracle():
    e = geodesic_energy_1d(DW_JUMP, DW)
    assert abs(e - 8.0 / 3.0) <= 0.005 * (8.0 / 3.0)


def test_state_length_must_match_model():
    j = JumpData(phi_plus=[1.0, 0.0], phi_minus=[-1.0, 0.0], nu=[1.0])
    with pytest.raises(BadParams):
        geodesic_energy_1d(j, DW)


def test_micromagnetics_wall_oracle():
    mm = catalog_lookup("micromagnetics_2d")
    j = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                 nu=[1.0, 0.0])
    e = geodesic_energy_1d(j, mm, sampling=120)
    assert abs(e - 4.0) <= 0.02 * 4.0


def test_no_jump_zero():
    j = JumpData(phi_plus=[1.0], phi_minus=[1.0], nu=[1.0])
    assert geodesic_energy_1d(j, DW) == 0.0


def test_sampling_invariance():
    e1 = geodesic_energy_1d(DW_JUMP, DW, sampling=200)
    e2 = geodesic_energy_1d(DW_JUMP, DW, sampling=400)
    assert abs(e2 - e1) <= 0.005 * (abs(e1) + 1e-12)


def test_path_endpoints_exact():
    states = geodesic_path_1d(DW_JUMP, DW)
    assert np.array_equal(states[0], DW_JUMP.phi_minus)
    assert np.array_equal(states[-1], DW_JUMP.phi_plus)


def test_two_state_oracle_zero_cost_model():
    # quadratic_entropy has W = 0 and no flux: every path through the
    # two-dimensional state lattice costs nothing
    q2 = catalog_lookup("quadratic_entropy", {"state_dim": 2})
    j = JumpData(phi_plus=[1.0, 0.5], phi_minus=[-1.0, 0.0], nu=[1.0])
    states = geodesic_path_1d(j, q2, sampling=40)
    assert np.array_equal(states[0], j.phi_minus)
    assert np.array_equal(states[-1], j.phi_plus)
    assert geodesic_energy_1d(j, q2, sampling=40) == 0.0


def test_dimension_guard():
    from cellgamma.model import (ConstraintSet, ModelSpecs, ScalarPotential)
    from cellgamma.model import catalog_lookup as cl
    big = cl("quadratic_entropy", {"state_dim": 4})
    j = JumpData(phi_plus=[1.0, 0, 0, 0], phi_minus=[-1.0, 0, 0, 0], nu=[1.0])
    with pytest.raises(DimensionTooLarge):
        geodesic_energy_1d(j, big)


def test_brute_force_tiny_grid():
    g = build_cell_grid(build_frame([1.0]), 8)
    oracle = brute_force_cell_min(DW_JUMP, DW, g, n_starts=16)
    sol = compute_cell_energy(DW_JUMP, DW, g,
                              opts=OptimizerOptions(seed=0))
    assert sol.energy.total <= oracle + 1e-8
    # tiny grids overshoot the continuum value but stay in magnitude
    assert 8.0 / 3.0 <= oracle <= 8.0 / 3.0 * 1.25


def test_brute_force_budget_guard():
    g = build_cell_grid(build_frame([1.0]), 512)
    with pytest.raises(ProblemTooLarge):
        brute_force_cell_min(DW_JUMP, DW, g)


def test_oracle_upper_bounds_solver():
    # any 1D path is admissible as a swept profile: the 2D solver
    # minimum cannot exceed the 1D oracle by more than a tolerance
    g = build_cell_grid(build_frame([1.0, 0.0]), 48, n_lateral=8)
    dw2 = catalog_lookup("double_well", {"space_dim": 2})
    j = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0, 0.0])
    sol = compute_cell_energy(j, dw2, g,
                              opts=OptimizerOptions(n_random=1))
    oracle = geodesic_energy_1d(j, dw2)
    assert sol.energy.total <= oracle * 1.04
