"""Cell energy assembly, analytic gradients, scale optimization, and
the multistart minimizer."""

import numpy as np
import pytest

from cellgamma.cellopt import (OptimizerOptions, assemble_energy,
                               compute_cell_energy, energy_gradient,
                               init_profiles, optimize_scale,
                               resolved_scale_floor, smoothstep)
from cellgamma.errors import (BadParams, BadStrategy, DegenerateScale,
                              InadmissibleProfile, NotConverged)
from cellgamma.grid import StateField, build_cell_grid, build_frame
from cellgamma.model import (ConstraintSet, FluxMap, GradientIntegrand,
                             JumpData, ModelSpecs, ScalarPotential,
                             catalog_lookup)
from cellgamma.oracle import finite_difference_gradient
from cellgamma.poisson import BcVariant

DW = catalog_lookup("double_well")
DW_JUMP = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0])


def _lateral_flux_specs():
    """Unconstrained scalar model with a nonzero, Neumann-compatible
    (purely lateral) flux map; exercises the nonlocal adjoint."""
    W = ScalarPotential(
        m=1,
        value=lambda s: np.square(1.0 - np.square(s[..., 0])),
        gradient=lambda s: (-4.0 * s[..., 0] * (1.0 - np.square(s[..., 0])))[..., None])
    jac = np.zeros((1, 2, 1))
    jac[0, 1, 0] = 1.0
    Psi = FluxMap(
        m=1, l=1, N=2,
        value=lambda s: np.stack([np.zeros_like(s), s], axis=-1),
        jacobian=lambda s: np.broadcast_to(jac, s.shape[:-1] + (1, 2, 1)))
    G = GradientIntegrand(
        m=1, N=2,
        value=lambda A: np.sum(np.square(A), axis=(-2, -1)),
        gradient=lambda A: 2.0 * A,
        homogeneous_quadratic=True)
    return ModelSpecs(name="lateral_flux", W=W, Psi=Psi, G=G,
                      constraint=ConstraintSet("unconstrained"))


def test_linear_profile_exact_integrals():
    # zeta = 2t: int |zeta'|^2 = 4 and int (1 - zeta^2)^2 = 8/15, both
    # exact for the element quadrature at any resolution
    g = build_cell_grid(build_frame([1.0]), 16)
    t = g.axis_coords(0)
    prof = StateField(g, (2.0 * t)[:, None])
    e = assemble_energy(prof, 1.0, DW, DW_JUMP)
    assert abs(e.grad_term - 4.0) < 1e-12
    assert abs(e.potential_term - 8.0 / 15.0) < 1e-12
    assert abs(e.total - (4.0 + 8.0 / 15.0)) < 1e-12


def test_constant_no_jump_profile_zero_energy():
    g = build_cell_grid(build_frame([1.0]), 16)
    j = JumpData(phi_plus=[1.0], phi_minus=[1.0], nu=[1.0])
    prof = StateField(g, np.ones((16, 1)))
    assert assemble_energy(prof, 1.0, DW, j).total == 0.0


def test_admissibility_checks():
    g = build_cell_grid(build_frame([1.0]), 16)
    prof = StateField(g, np.zeros((16, 1)))
    with pytest.raises(InadmissibleProfile):
        assemble_energy(prof, 1.0, DW, DW_JUMP)
    t = g.axis_coords(0)
    with pytest.raises(DegenerateScale):
        assemble_energy(StateField(g, (2.0 * t)[:, None]), 0.0, DW, DW_JUMP)


def test_optimize_scale_closed_form():
    L, e = optimize_scale(4.0, 1.0)
    assert abs(L - 0.5) < 1e-15 and abs(e - 4.0) < 1e-15
    assert optimize_scale(0.0, 0.0) == (1.0, 0.0)
    with pytest.raises(DegenerateScale):
        optimize_scale(-1.0, 1.0)
    # one part zero (W = 0 models have B = 0): the scale goes to the end
    # of the bracket that sends the other part's term to its minimum
    assert optimize_scale(0.0, 2.0) == (256.0, 2.0 / 256.0)
    assert optimize_scale(3.0, 0.0) == (1.0 / 256.0, 3.0 / 256.0)


@pytest.mark.parametrize("bad", [
    {"etol": float("nan")}, {"etol": float("inf")}, {"etol": -1e-8},
    {"gtol_scale": -1.0}, {"gtol_scale": float("nan")},
    {"amplitude": float("nan")}, {"amplitude": -0.1},
    {"max_iter": 0}, {"n_random": -1}])
def test_optimizer_options_rejected(bad):
    # a NaN or negative tolerance would run every start to max_iter
    # with converged=False; a NaN amplitude would give NaN start energies
    with pytest.raises(BadParams):
        OptimizerOptions(**bad)


def test_gradient_matches_fd_double_well():
    g = build_cell_grid(build_frame([1.0]), 12)
    rng = np.random.default_rng(0)
    t = g.axis_coords(0)
    v = np.tanh(3 * t)[:, None] + 0.1 * rng.standard_normal((12, 1))
    v[0], v[-1] = -1.0, 1.0
    prof = StateField(g, v)
    ga = energy_gradient(prof, 0.7, DW, DW_JUMP).values
    gf = finite_difference_gradient(prof, 0.7, DW, DW_JUMP).values
    scale = np.max(np.abs(gf)) + 1.0
    assert np.max(np.abs(ga - gf)) / scale < 1e-5


def test_gradient_matches_fd_nonzero_psi():
    specs = _lateral_flux_specs()
    jump = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0, 0.0])
    g = build_cell_grid(build_frame([1.0, 0.0]), 10, n_lateral=6)
    rng = np.random.default_rng(1)
    t = g.coords_normal()
    v = np.tanh(3 * t)[..., None] + 0.1 * rng.standard_normal(g.shape + (1,))
    v[0], v[-1] = -1.0, 1.0
    prof = StateField(g, v)
    for bc in (BcVariant.NEUMANN, BcVariant.DIRICHLET):
        ga = energy_gradient(prof, 0.9, specs, jump, bc).values
        gf = finite_difference_gradient(prof, 0.9, specs, jump, bc).values
        scale = np.max(np.abs(gf)) + 1.0
        assert np.max(np.abs(ga - gf)) / scale < 1e-5


def test_nonlocal_gradient_quadratic_in_psi():
    # doubling Psi quadruples the nonlocal term and its gradient part
    specs = _lateral_flux_specs()
    jump = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0, 0.0])
    g = build_cell_grid(build_frame([1.0, 0.0]), 10, n_lateral=6)
    t = g.coords_normal()
    v = np.tanh(3 * t)[..., None] * np.ones(g.shape + (1,))
    v[0], v[-1] = -1.0, 1.0
    e1 = assemble_energy(StateField(g, v), 1.0, specs, jump).nonlocal_term

    two = FluxMap(m=1, l=1, N=2,
                  value=lambda s: 2.0 * specs.Psi.value(s),
                  jacobian=lambda s: 2.0 * specs.Psi.jacobian(s))
    specs2 = ModelSpecs(name="x2", W=specs.W, Psi=two, G=specs.G,
                        constraint=specs.constraint)
    e2 = assemble_energy(StateField(g, v), 1.0, specs2, jump).nonlocal_term
    assert abs(e2 - 4.0 * e1) < 1e-8 * (1.0 + e2)


def test_double_well_minimum_small_grid():
    g = build_cell_grid(build_frame([1.0]), 64)
    sol = compute_cell_energy(DW_JUMP, DW, g)
    assert 8.0 / 3.0 <= sol.energy.total <= 8.0 / 3.0 * 1.03
    assert sol.L_star >= resolved_scale_floor(g) - 1e-15


def test_equipartition_at_converged_solution():
    g = build_cell_grid(build_frame([1.0]), 128)
    sol = compute_cell_energy(DW_JUMP, DW, g)
    e = sol.energy
    lhs = abs(sol.L_star * e.grad_term
              - (e.potential_term + e.nonlocal_term) / sol.L_star)
    assert lhs <= 1e-3 * e.total


def test_jump_flip_symmetry_assembly():
    # mirror the converged profile into the flipped frame: energies
    # agree to round-off
    g = build_cell_grid(build_frame([1.0]), 64)
    sol = compute_cell_energy(DW_JUMP, DW, g)
    gf = build_cell_grid(build_frame([-1.0]), 64)
    mirrored = StateField(gf, sol.profile.values[::-1].copy())
    e2 = assemble_energy(mirrored, sol.L_star, DW, DW_JUMP.flipped())
    assert abs(e2.total - sol.energy.total) <= 1e-8 * (1.0 + sol.energy.total)


def test_no_jump_minimum_zero():
    g = build_cell_grid(build_frame([1.0]), 16)
    j = JumpData(phi_plus=[1.0], phi_minus=[1.0], nu=[1.0])
    sol = compute_cell_energy(j, DW, g)
    assert sol.energy.total <= 1e-12


def test_init_strategies():
    g = build_cell_grid(build_frame([1.0, 0.0]), 12, n_lateral=4)
    mm = catalog_lookup("micromagnetics_2d")
    j = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                 nu=[1.0, 0.0])
    for s in ("one_dimensional_tanh", "geodesic_sweep",
              ("random_perturbed", 3, 0.2)):
        for p in init_profiles(j, mm, g, s, seed=0):
            norms = np.linalg.norm(p.values, axis=-1)
            assert np.max(np.abs(norms - 1.0)) < 1e-10
            assert np.max(np.abs(p.values[0] - j.phi_minus)) < 1e-14
            assert np.max(np.abs(p.values[-1] - j.phi_plus)) < 1e-14
    with pytest.raises(BadStrategy):
        init_profiles(j, mm, g, "bogus")


def test_determinism_same_seed():
    g = build_cell_grid(build_frame([1.0]), 48)
    opts = OptimizerOptions(seed=7)
    a = compute_cell_energy(DW_JUMP, DW, g, opts=opts)
    b = compute_cell_energy(DW_JUMP, DW, g, opts=opts)
    assert a.energy.total == b.energy.total
    assert np.array_equal(a.profile.values, b.profile.values)


def test_state_length_must_match_model():
    g = build_cell_grid(build_frame([1.0]), 16)
    j = JumpData(phi_plus=[1.0, 0.0], phi_minus=[-1.0, 0.0], nu=[1.0])
    with pytest.raises(BadParams):
        compute_cell_energy(j, DW, g)


def test_require_converged_raises():
    g = build_cell_grid(build_frame([1.0]), 32)
    opts = OptimizerOptions(max_iter=1, require_converged=True)
    with pytest.raises(NotConverged):
        compute_cell_energy(DW_JUMP, DW, g, opts=opts)


def test_smoothstep_endpoints():
    assert smoothstep(-1.0) == 0.0 and smoothstep(1.0) == 1.0
    assert smoothstep(-5.0) == 0.0 and smoothstep(5.0) == 1.0
    assert abs(smoothstep(0.0) - 0.5) < 1e-15


def test_one_potential_solve_per_line_search_trial(monkeypatch):
    # the accepted trial's parts give the scale, the energy and the
    # gradient, so a start solves once per trial plus once at the start
    import cellgamma.cellopt as co
    mm = catalog_lookup("micromagnetics_2d")
    j = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                 nu=[1.0, 0.0])
    g = build_cell_grid(build_frame([1.0, 0.0]), 12, n_lateral=4)
    start = init_profiles(j, mm, g, "one_dimensional_tanh")[0]
    counts = {"solves": 0, "trials": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(co, "nonlocal_energy", counted("solves", co.nonlocal_energy))
    monkeypatch.setattr(co, "_retract", counted("trials", co._retract))
    _, _, _, iterations, _ = co._minimize_start(
        start.values, mm, j, g, BcVariant.NEUMANN, OptimizerOptions(max_iter=60))
    assert counts["trials"] >= iterations > 1
    assert counts["solves"] == counts["trials"] + 1
