"""Slow oracles: geodesic path energies and finite-difference
gradients, independent of the optimizer, plus a many-start check of the
start selection on a tiny grid."""

import numpy as np
import pytest

from cellgamma.cellopt import OptimizerOptions, compute_cell_energy
from cellgamma.errors import BadParams, DimensionTooLarge
from cellgamma.grid import StateField, build_cell_grid, build_frame
from cellgamma.model import JumpData, catalog_lookup, validate_jump_data
from cellgamma.oracle import (finite_difference_gradient,
                              geodesic_energy_1d, geodesic_path_1d)

DW = catalog_lookup("double_well")
DW_JUMP = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0])


def test_double_well_oracle():
    e = geodesic_energy_1d(DW_JUMP, DW)
    assert abs(e - 8.0 / 3.0) <= 0.005 * (8.0 / 3.0)


def test_state_length_must_match_model():
    j = JumpData(phi_plus=[1.0, 0.0], phi_minus=[-1.0, 0.0], nu=[1.0])
    with pytest.raises(BadParams):
        geodesic_energy_1d(j, DW)


def test_finite_difference_step_must_be_positive():
    g = build_cell_grid(build_frame([1.0]), 12)
    prof = StateField(g, np.tanh(4.0 * g.axis_coords(0))[:, None])
    for step in (0.0, -1e-6, float("nan")):
        with pytest.raises(BadParams):
            finite_difference_gradient(prof, 0.7, DW, DW_JUMP, step=step)


def test_micromagnetics_wall_oracle():
    mm = catalog_lookup("micromagnetics_2d")
    cases = [
        # antipodal states: the 180-degree wall
        (0.0, 4.0, 0.02),
        # phi+- = (0.6, +-0.8, 0) are not antipodal, so the polar lattice
        # is built about the great circle through both; the equator path
        # through (1, 0, 0) costs 2 (cos a - 0.6) da for |a| <= arccos 0.6
        (0.6, 4.0 * (0.8 - 0.6 * np.arccos(0.6)), 0.005),
    ]
    for m_x, exact, rel_tol in cases:
        m_y = np.sqrt(1.0 - m_x ** 2)
        j = JumpData(phi_plus=[m_x, m_y, 0.0], phi_minus=[m_x, -m_y, 0.0],
                     nu=[1.0, 0.0])
        assert validate_jump_data(j, mm, 1e-12).passed
        e = geodesic_energy_1d(j, mm, sampling=120)
        assert abs(e - exact) <= rel_tol * exact
    # the lattice holds the great circle through both states, so the path
    # stays on the equator even when the azimuths miss the other axes
    # (122 is not a multiple of 4)
    assert np.max(np.abs(geodesic_path_1d(j, mm, sampling=122)[:, 2])) <= 1e-12


def test_sphere_path_one_node_per_pole():
    # the polar lattice has one node per pole, so the antipodal wall path
    # has no zero-length steps between copies of a pole; its energy is
    # the one of the lattice with a copy of each pole per azimuth
    mm = catalog_lookup("micromagnetics_2d")
    j = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                 nu=[1.0, 0.0])
    states = geodesic_path_1d(j, mm)
    seg = np.linalg.norm(np.diff(states, axis=0), axis=-1)
    assert np.min(seg) > 1e-6
    e = geodesic_energy_1d(j, mm)
    assert abs(e - 3.9998753875766253) <= 1e-12 * 3.9998753875766253


def test_no_jump_zero():
    j = JumpData(phi_plus=[1.0], phi_minus=[1.0], nu=[1.0])
    assert geodesic_energy_1d(j, DW) == 0.0


def test_sampling_invariance():
    e1 = geodesic_energy_1d(DW_JUMP, DW, sampling=200)
    e2 = geodesic_energy_1d(DW_JUMP, DW, sampling=400)
    assert abs(e2 - e1) <= 0.005 * (abs(e1) + 1e-12)


def test_sampling_below_16_rejected():
    # at sampling 2 the box lattice joins -1 and 1 directly, and the
    # double well's oracle read 0 instead of 8/3
    for bad in (2, 15, 16.0, True):
        with pytest.raises(BadParams, match="oracle sampling"):
            geodesic_energy_1d(DW_JUMP, DW, sampling=bad)
    assert abs(geodesic_energy_1d(DW_JUMP, DW, sampling=16) - 8.0 / 3.0) <= 0.05


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
    # the tanh start plus 15 random ones; this shares the optimizer it
    # checks, so it tests the start selection only
    many = compute_cell_energy(
        DW_JUMP, DW, g,
        opts=OptimizerOptions(n_random=15, amplitude=0.2)).energy.total
    sol = compute_cell_energy(DW_JUMP, DW, g,
                              opts=OptimizerOptions(seed=0))
    assert sol.energy.total <= many + 1e-8
    # tiny grids overshoot the continuum value but stay in magnitude
    assert 8.0 / 3.0 <= many <= 8.0 / 3.0 * 1.25


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
