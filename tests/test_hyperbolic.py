"""Space-time shock-layer energies: base fields, constraint exactness,
gradients, static reduction, and the scalar oracle."""

import numpy as np
import pytest

from cellgamma.cellopt import OptimizerOptions
from cellgamma.errors import (BadParams, DegenerateNormal, NonScalar,
                              RankineHugoniotViolated, ShapeMismatch)
from cellgamma.grid import TensorField
from cellgamma.hyperbolic import (PotentialPerturbation, assemble_st_energy,
                                  build_base_fields, build_shock_grid,
                                  compute_shock_cell_energy,
                                  constraint_residual,
                                  reduce_to_static_frame, space_divergence,
                                  st_energy_gradient, time_derivative,
                                  viscous_profile_oracle_1d)
from cellgamma.model import SpaceTimeJumpData, catalog_lookup

BURGERS = catalog_lookup("burgers")
FLUX, ENTROPY = BURGERS.flux, BURGERS.entropy
STANDING = SpaceTimeJumpData(u_plus=[-1.0], u_minus=[1.0],
                             nu_y=[1.0], nu_s=0.0)
TILTED = SpaceTimeJumpData(u_plus=[0.0], u_minus=[2.0],
                           nu_y=[1.0 / np.sqrt(2)], nu_s=-1.0 / np.sqrt(2))


def _zero_pert(grid, k=1, n_space=1):
    return PotentialPerturbation(
        TensorField(grid, np.zeros(grid.shape + (k, n_space))))


def test_standing_shock_gamma0_constant():
    g = build_shock_grid(STANDING, 32, n_time=4)
    base = build_base_fields(STANDING, FLUX, g)
    assert np.max(np.abs(base.gamma0.values - 0.5)) == 0.0


def test_base_fields_pin_end_states():
    g = build_shock_grid(TILTED, 32, n_time=4)
    base = build_base_fields(TILTED, FLUX, g)
    assert np.max(np.abs(base.zeta0.values[0] - TILTED.u_minus)) == 0.0
    assert np.max(np.abs(base.zeta0.values[-1] - TILTED.u_plus)) == 0.0
    # endpoint flux is F(u+) exactly (the T-ramp reaches it at theta=1)
    assert np.max(np.abs(base.gamma0.values[-1]
                         - FLUX.value(TILTED.u_plus))) == 0.0


def test_rh_violation_raises():
    bad = SpaceTimeJumpData(u_plus=[0.0], u_minus=[1.0], nu_y=[1.0], nu_s=0.0)
    g = build_shock_grid(bad, 32, n_time=4)
    with pytest.raises(RankineHugoniotViolated):
        build_base_fields(bad, FLUX, g)


def test_linear_ramp_energy_example():
    # zeta0 = -2t, L = 1: grad term 4, mismatch (1/4)(8/15) = 2/15
    g = build_shock_grid(STANDING, 128, n_time=4)
    base = build_base_fields(STANDING, FLUX, g, width=0.5, ramp="linear")
    e = assemble_st_energy(_zero_pert(g), 1.0, STANDING, FLUX, ENTROPY, g,
                           base=base)
    assert abs(e.grad_term - 4.0) < 1e-12
    assert abs(e.potential_term - 2.0 / 15.0) < 1e-4


def test_no_jump_energy_zero():
    j = SpaceTimeJumpData(u_plus=[1.0], u_minus=[1.0], nu_y=[1.0], nu_s=0.0)
    g = build_shock_grid(j, 32, n_time=4)
    e = assemble_st_energy(_zero_pert(g), 1.0, j, FLUX, ENTROPY, g)
    assert e.total == 0.0
    sol = compute_shock_cell_energy(j, FLUX, ENTROPY, g)
    assert sol.energy.total <= 1e-10
    assert sol.converged


def test_constraint_exact_for_random_w():
    g = build_shock_grid(STANDING, 48, n_time=8)
    base = build_base_fields(STANDING, FLUX, g)
    rng = np.random.default_rng(0)
    w = rng.standard_normal(g.shape + (1, 1))
    w[:3] = 0.0
    w[-3:] = 0.0
    zeta = base.zeta0.values + space_divergence(g, w)
    gamma = base.gamma0.values - time_derivative(g, w)
    assert constraint_residual(g, zeta, gamma) <= 1e-10


def test_margin_enforced():
    g = build_shock_grid(STANDING, 32, n_time=4)
    w = np.ones(g.shape + (1, 1))
    with pytest.raises(ShapeMismatch):
        PotentialPerturbation(TensorField(g, w))


def test_st_gradient_matches_fd():
    g = build_shock_grid(STANDING, 24, n_time=4)
    base = build_base_fields(STANDING, FLUX, g)
    rng = np.random.default_rng(1)
    w = 0.01 * rng.standard_normal(g.shape + (1, 1))
    w[:3] = 0.0
    w[-3:] = 0.0
    pert = PotentialPerturbation(TensorField(g, w))
    L = 0.6
    ga = st_energy_gradient(pert, L, STANDING, FLUX, ENTROPY, g,
                            base=base).values
    h = 1e-6
    for idx in [(5, 1, 0, 0), (11, 3, 0, 0), (19, 0, 0, 0)]:
        wp = w.copy(); wp[idx] += h
        wm = w.copy(); wm[idx] -= h
        ep = assemble_st_energy(PotentialPerturbation(TensorField(g, wp)), L,
                                STANDING, FLUX, ENTROPY, g, base=base).total
        em = assemble_st_energy(PotentialPerturbation(TensorField(g, wm)), L,
                                STANDING, FLUX, ENTROPY, g, base=base).total
        fd = (ep - em) / (2.0 * h)
        assert abs(fd - ga[idx]) <= 1e-6 * (1.0 + abs(fd))


def test_gradient_without_base_rebuilds_it():
    g = build_shock_grid(TILTED, 24, n_time=4)
    rng = np.random.default_rng(2)
    w = 0.01 * rng.standard_normal(g.shape + (1, 1))
    w[:3] = 0.0
    w[-3:] = 0.0
    pert = PotentialPerturbation(TensorField(g, w))
    base = build_base_fields(TILTED, FLUX, g)
    with_base = st_energy_gradient(pert, 0.7, TILTED, FLUX, ENTROPY, g,
                                   base=base).values
    rebuilt = st_energy_gradient(pert, 0.7, TILTED, FLUX, ENTROPY, g).values
    assert np.array_equal(rebuilt, with_base)


def test_linear_advection_3d_space_time_cell():
    # two space dimensions: the divergence sums over both columns of w,
    # and build_shock_grid takes the spatial lateral count from n_lateral
    la = catalog_lookup("linear_advection", {"speed": [1.0, 0.0]})
    j = SpaceTimeJumpData(u_plus=[0.0], u_minus=[1.0],
                          nu_y=[1.0 / np.sqrt(2), 0.0], nu_s=-1.0 / np.sqrt(2))
    g = build_shock_grid(j, 24, n_lateral=4)
    assert g.shape == (24, 4, 4)
    base = build_base_fields(j, la.flux, g)
    rng = np.random.default_rng(3)
    w = 0.01 * rng.standard_normal(g.shape + (1, 2))
    w[:3] = 0.0
    w[-3:] = 0.0
    zeta = base.zeta0.values + space_divergence(g, w)
    gamma = base.gamma0.values - time_derivative(g, w)
    assert constraint_residual(g, zeta, gamma) <= 1e-12

    pert = PotentialPerturbation(TensorField(g, w))
    L = 0.6
    ga = st_energy_gradient(pert, L, j, la.flux, la.entropy, g,
                            base=base).values
    h = 1e-6
    for idx in [(5, 1, 2, 0, 0), (11, 3, 0, 0, 1), (17, 2, 3, 0, 1)]:
        wp = w.copy(); wp[idx] += h
        wm = w.copy(); wm[idx] -= h
        ep = assemble_st_energy(PotentialPerturbation(TensorField(g, wp)), L,
                                j, la.flux, la.entropy, g, base=base).total
        em = assemble_st_energy(PotentialPerturbation(TensorField(g, wm)), L,
                                j, la.flux, la.entropy, g, base=base).total
        fd = (ep - em) / (2.0 * h)
        assert abs(fd - ga[idx]) <= 1e-6 * (1.0 + abs(fd))

    sol = compute_shock_cell_energy(j, la.flux, la.entropy, g,
                                    OptimizerOptions(n_random=1, max_iter=50))
    assert np.isfinite(sol.energy.total) and sol.energy.total >= 0.0
    assert sol.rh_residuals == {"rh_residual_0": 0.0}
    assert np.all(sol.profile.values[0] == 1.0)
    assert np.all(sol.profile.values[-1] == 0.0)


def test_shock_state_length_must_match_flux():
    j = SpaceTimeJumpData(u_plus=[-1.0, 0.0], u_minus=[1.0, 0.0],
                          nu_y=[1.0], nu_s=0.0)
    g = build_shock_grid(j, 32, n_time=4)
    with pytest.raises(BadParams):
        compute_shock_cell_energy(j, FLUX, ENTROPY, g,
                                  OptimizerOptions(n_random=0, max_iter=5))


def test_standing_shock_energy_desk_scale():
    g = build_shock_grid(STANDING, 128, n_time=8)
    sol = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g,
                                    OptimizerOptions(n_random=1))
    assert 4.0 / 3.0 * 0.98 <= sol.energy.total <= 4.0 / 3.0 * 1.02
    assert sol.rh_residuals["rh_residual_0"] == 0.0


def test_s_collapse_variant():
    # RH-stationary data: collapsing the time axis to one node changes
    # the minimum only marginally
    g1 = build_shock_grid(STANDING, 128, n_time=1)
    sol = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g1,
                                    OptimizerOptions(n_random=1))
    assert 4.0 / 3.0 * 0.98 <= sol.energy.total <= 4.0 / 3.0 * 1.02


def test_translation_invariance():
    g = build_shock_grid(STANDING, 96, n_time=4)
    opts = OptimizerOptions(n_random=0)
    a = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g, opts).energy.total
    b = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g, opts,
                                  center=g.spacing(0)).energy.total
    assert abs(a - b) <= 1e-3 * abs(a)


def test_reduction_examples():
    red = reduce_to_static_frame(TILTED, FLUX)
    # F_hat(u) = u^2/2 - u: both shock states map to zero flux
    assert abs(float(red.reduced_flux.value(np.array([2.0]))[0, 0])) < 1e-14
    assert abs(float(red.reduced_flux.value(np.array([0.0]))[0, 0])) < 1e-14
    assert abs(red.factor - 1.0 / np.sqrt(2)) < 1e-15
    assert np.allclose(red.nu_prime, [1.0, 0.0])

    # stationary normal: reduction is the identity
    red0 = reduce_to_static_frame(STANDING, FLUX)
    u = np.linspace(-2, 2, 9)[:, None]
    assert np.allclose(red0.reduced_flux.value(u), FLUX.value(u))
    assert red0.factor == 1.0

    # linear advection along its own characteristic normal
    la = catalog_lookup("linear_advection", {"speed": [1.0]})
    j = SpaceTimeJumpData(u_plus=[0.0], u_minus=[1.0],
                          nu_y=[1.0 / np.sqrt(2)], nu_s=-1.0 / np.sqrt(2))
    red_la = reduce_to_static_frame(j, la.flux)
    fp = red_la.reduced_flux.value(j.u_plus)
    fm = red_la.reduced_flux.value(j.u_minus)
    assert np.max(np.abs(fp - fm)) < 1e-14


def test_reduction_jacobian_consistent():
    red = reduce_to_static_frame(TILTED, FLUX)
    u = np.array([0.7])
    h = 1e-6
    fd = (red.reduced_flux.value(u + h) - red.reduced_flux.value(u - h)) / (2 * h)
    assert np.max(np.abs(fd - red.reduced_flux.jacobian(u)[..., 0])) < 1e-8


def test_degenerate_normal_guard():
    class FakeJump:
        nu_y = np.array([0.0])
        nu_s = 1.0
    with pytest.raises(DegenerateNormal):
        reduce_to_static_frame(FakeJump(), FLUX)


def test_oracle_examples():
    assert abs(viscous_profile_oracle_1d(1.0, -1.0, FLUX, ENTROPY)
               - 4.0 / 3.0) < 1e-6
    assert viscous_profile_oracle_1d(0.5, 0.5, FLUX, ENTROPY) == 0.0
    red = reduce_to_static_frame(TILTED, FLUX)
    e = viscous_profile_oracle_1d(2.0, 0.0, red.reduced_flux, ENTROPY)
    assert abs(e - 4.0 / 3.0) < 1e-6
    mv = catalog_lookup("quadratic_entropy", {"state_dim": 2})
    fake = catalog_lookup("linear_advection", {"speed": [1.0, 0.0]}).flux
    with pytest.raises(NonScalar):
        viscous_profile_oracle_1d(0.0, 1.0, fake, mv.entropy)


def test_solver_not_below_oracle():
    g = build_shock_grid(STANDING, 128, n_time=8)
    sol = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g,
                                    OptimizerOptions(n_random=1))
    oracle = viscous_profile_oracle_1d(1.0, -1.0, FLUX, ENTROPY)
    assert sol.energy.total >= oracle * 0.99


def test_one_forward_pass_per_line_search_trial(monkeypatch):
    # the accepted trial's forward pass gives the scale, the energy and
    # the gradient, so a start runs it once per trial plus once at the
    # start; time_derivative is called once per forward pass
    import cellgamma.hyperbolic as hy
    counts = {"forward": 0, "trials": 0}
    runs = []
    real_td, real_driver = hy.time_derivative, hy.minimize_cg

    def time_derivative(*args):
        counts["forward"] += 1
        return real_td(*args)

    def driver(x0, evaluate, precondition, retract, *rest):
        def counted_retract(x, step):
            counts["trials"] += 1
            return retract(x, step)

        before = dict(counts)
        out = real_driver(x0, evaluate, precondition, counted_retract, *rest)
        runs.append({k: counts[k] - before[k] for k in counts})
        runs[-1]["iterations"] = out[3]
        return out

    monkeypatch.setattr(hy, "time_derivative", time_derivative)
    monkeypatch.setattr(hy, "minimize_cg", driver)
    g = build_shock_grid(STANDING, 64, n_time=4)
    hy.compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g,
                                 OptimizerOptions(n_random=0, max_iter=40))
    (run,) = runs
    assert run["trials"] >= run["iterations"] > 1
    assert run["forward"] == run["trials"] + 1
