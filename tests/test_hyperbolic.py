"""Space-time shock-layer energies: base fields, constraint exactness,
gradients, static reduction, and the scalar oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgamma.cellopt import OptimizerOptions, resolved_scale_floor
from cellgamma.errors import (BadParams, DegenerateNormal, NonScalar,
                              RankineHugoniotViolated, ShapeMismatch)
from cellgamma.grid import (CellGrid, StateField, TensorField, apply_nodal,
                            build_frame, derivatives)
from cellgamma.hyperbolic import (BaseFields, PotentialPerturbation,
                                  _LateralModes, _phys_diff,
                                  assemble_st_energy,
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
    # the linear base pair zeta0 = -2t, gamma0 = F(u-) = 1/2 of the
    # standing shock, L = 1: grad term 4, mismatch (1/4)(8/15) = 2/15
    g = build_shock_grid(STANDING, 128, n_time=4)
    t = g.coords_normal()
    base = BaseFields(zeta0=StateField(g, (-2.0 * t)[..., None]),
                      gamma0=TensorField(g, np.full(g.shape + (1, 1), 0.5)))
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
    # A = B = 0: the shock's scale stays on the floor 4h, and the zero
    # gradient leaves no descent direction in iteration 1
    assert sol.L_star == resolved_scale_floor(g) and sol.iterations == 1


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


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([STANDING, TILTED]),
       st.integers(min_value=8, max_value=64),
       st.integers(min_value=1, max_value=8),
       st.floats(min_value=-3.0, max_value=3.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_constraint_exact_for_random_w_property(jump, n_normal, n_time,
                                                log_amp, seed):
    # Rankine-Hugoniot exactness on standing and tilted frames: the
    # induced pair satisfies d_s zeta + div_y gamma = 0 to the round-off
    # of derivatives of w, whose size is max|w| / h
    g = build_shock_grid(jump, n_normal, n_time=n_time)
    base = build_base_fields(jump, FLUX, g)
    rng = np.random.default_rng(seed)
    w = 10.0 ** log_amp * rng.standard_normal(g.shape + (1, 1))
    w[:3] = 0.0
    w[-3:] = 0.0
    zeta = base.zeta0.values + space_divergence(g, w)
    gamma = base.gamma0.values - time_derivative(g, w)
    tol = 1e-12 * (1.0 + np.max(np.abs(w))) / g.spacing(0)
    assert constraint_residual(g, zeta, gamma) <= tol


def test_margin_enforced():
    g = build_shock_grid(STANDING, 32, n_time=4)
    w = np.ones(g.shape + (1, 1))
    with pytest.raises(ShapeMismatch):
        PotentialPerturbation(TensorField(g, w))


def test_perturbation_for_another_cell_rejected():
    # a w shaped for a 32x8 cell on the 32x4 grid, with and without base
    g = build_shock_grid(STANDING, 32, n_time=4)
    pert = _zero_pert(build_shock_grid(STANDING, 32, n_time=8))
    for fn in (assemble_st_energy, st_energy_gradient):
        for base in (None, build_base_fields(STANDING, FLUX, g)):
            with pytest.raises(ShapeMismatch):
                fn(pert, 0.5, STANDING, FLUX, ENTROPY, g, base=base)


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


def _reference(grid, values, j):
    # d_j as the frame combination of independent per-axis derivatives:
    # np.gradient with second-order ends along the normal, the circulant
    # central difference on the periodic axes
    out = 0.0
    for ax in range(grid.dim):
        h = grid.spacing(ax)
        if ax == 0:
            d = np.gradient(values, h, axis=0, edge_order=2)
        else:
            d = (np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2.0 * h)
        out = out + grid.frame.basis[ax, j] * d
    return out


@pytest.mark.parametrize("nu_y, n_lateral", [([0.6], None),
                                             ([0.48, 0.36], 5)],
                         ids=["1+1", "2+1"])
def test_sparse_derivatives_match_stencils_and_adjoint(nu_y, n_lateral):
    # tilted frames (nu_s != 0, every basis entry nonzero) with k = 2
    # state components: each cached matrix d_j equals the frame
    # combination of independent per-axis derivatives, its cached
    # transpose is its exact transpose, and <d_j u, v> = <u, d_j^T v>
    jump = SpaceTimeJumpData(u_plus=[0.0, 1.0], u_minus=[1.0, 0.0],
                             nu_y=nu_y, nu_s=-0.8)
    g = build_shock_grid(jump, 12, n_lateral=n_lateral, n_time=6)
    n_space = g.dim - 1
    assert np.all(g.frame.basis != 0.0)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.shape + (2, n_space))
    v = rng.standard_normal(g.shape + (2, n_space))
    ops = derivatives(g)
    for j in range(g.dim):
        du, ref = _phys_diff(g, u, j), _reference(g, u, j)
        assert np.max(np.abs(du - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(ops.dt[j].toarray(), ops.d[j].toarray().T)
        dtv = apply_nodal(ops.dt[j], v)
        lhs, rhs = np.vdot(du, v), np.vdot(u, dtv)
        assert abs(lhs - rhs) <= 1e-14 * np.linalg.norm(du) * np.linalg.norm(v)


def test_derivative_cache_keyed_by_frame():
    # a standing and a tilted grid of one shape: a cache keyed by the
    # node counts alone would hand the second grid the first's matrices
    a = build_shock_grid(STANDING, 16, n_time=4)
    b = build_shock_grid(TILTED, 16, n_time=4)
    assert a.n_axes == b.n_axes
    u = np.random.default_rng(6).standard_normal(a.shape + (1,))
    for g in (a, b, a):
        for j in range(g.dim):
            ref = _reference(g, u, j)
            assert np.max(np.abs(_phys_diff(g, u, j) - ref)) <= (
                1e-13 * np.max(np.abs(ref)))
    assert derivatives(a) is not derivatives(b)


@pytest.mark.parametrize("nu, n_axes", [([1.0, 0.0], (256, 16)),
                                         ([0.6, 0.8], (13, 1)),
                                         ([0.6, 0.0, -0.8], (14, 4, 3))])
@pytest.mark.parametrize("k", [1, 2])
def test_lateral_mode_gathers_are_a_signed_permutation_and_its_transpose(
        nu, n_axes, k):
    # the band's right-hand sides gathered from the float view of the
    # modes, then gathered back with the signs, are the input exactly
    modes = _LateralModes(CellGrid(frame=build_frame(nu), n_axes=n_axes), k)
    assert np.all(np.abs(modes.forward_sign) == 1.0)
    x = np.random.default_rng(7).standard_normal(modes.back.shape)
    rhs = x.ravel()[modes.forward] * modes.forward_sign
    assert rhs.shape == (2 * modes.shape[0], np.prod(modes.shape[2:]))
    assert np.array_equal(rhs.ravel()[modes.back] * modes.back_sign, x)


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
                                    OptimizerOptions(max_iter=50))
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
                                  OptimizerOptions(max_iter=5))


def test_standing_shock_energy_desk_scale():
    g = build_shock_grid(STANDING, 128, n_time=8)
    sol = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g)
    assert 4.0 / 3.0 * 0.98 <= sol.energy.total <= 4.0 / 3.0 * 1.02
    assert sol.rh_residuals["rh_residual_0"] == 0.0


@pytest.mark.parametrize("n_normal, n_time", [(96, 4), (128, 8), (512, 16)])
def test_unperturbed_standing_shock_converges(n_normal, n_time):
    # the shock meets the convergence contract of minimize_cg within 30
    # iterations, which needs the preconditioner and the start on the
    # scale floor (a free scale took up to 194), and ends at the discrete
    # minimum 1.3305323 on every cell, the finest catalog cell included
    g = build_shock_grid(STANDING, n_normal, n_time=n_time)
    sol = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g)
    assert sol.converged
    assert sol.iterations <= 30
    assert abs(sol.energy.total - 1.3305323) <= 1e-7


def test_standing_shock_stays_on_the_floor_below_two_to_the_minus_8():
    # on 2049 normal nodes the floor 4h lies below 2^-8; the shock runs
    # there, where L / h = 4 gives the same energy as on coarser cells
    g = build_shock_grid(STANDING, 2049, n_time=4)
    sol = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g)
    assert sol.L_star == 4.0 * g.spacing(0)
    assert abs(sol.energy.total / 1.3305322950675056 - 1.0) <= 1e-12
    assert sol.converged and sol.iterations <= 30


def test_tilted_shock_converges_on_the_scale_floor():
    # the tilted shock ends with L on the resolved-scale floor, where its
    # pinned start begins, so it converges within 30 iterations (80 at a
    # free scale)
    g = build_shock_grid(TILTED, 128, n_time=8)
    sol = compute_shock_cell_energy(TILTED, FLUX, ENTROPY, g)
    assert sol.converged and sol.iterations <= 30
    assert sol.L_star == resolved_scale_floor(g)


def test_s_collapse_variant():
    # RH-stationary data: collapsing the time axis to one node changes
    # the minimum only marginally
    g1 = build_shock_grid(STANDING, 128, n_time=1)
    sol = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g1)
    assert 4.0 / 3.0 * 0.98 <= sol.energy.total <= 4.0 / 3.0 * 1.02


def test_translation_invariance():
    g = build_shock_grid(STANDING, 96, n_time=4)
    a = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g).energy.total
    b = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g,
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
    sol = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g)
    oracle = viscous_profile_oracle_1d(1.0, -1.0, FLUX, ENTROPY)
    assert sol.energy.total >= oracle * 0.99


@pytest.mark.parametrize("kwargs", [
    {"n_random": 1, "seed": 3}, {"strategies": ("random_perturbed",)},
    {"strategies": ()}, {"strategies": ("bogus",)}])
def test_shock_runs_one_start_whatever_the_options(kwargs):
    # the start names, counts and seeds concern the cell: the shock runs
    # w = 0 alone and returns the same numbers as under the defaults
    g = build_shock_grid(STANDING, 16, n_time=2)
    ref = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g)
    sol = compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g,
                                    OptimizerOptions(**kwargs))
    assert len(ref.starts) == len(sol.starts) == 1
    assert sol.starts == ref.starts
    assert sol.energy == ref.energy and sol.L_star == ref.L_star
    assert sol.iterations == ref.iterations


def test_one_forward_pass_per_line_search_trial(monkeypatch):
    # the accepted trial's forward pass gives the scale, the energy and
    # the gradient, so a start runs it once per trial plus once at the
    # start; time_derivative is called once per forward pass, and the
    # result is built from the accepted pass, with none after the
    # multistart
    import cellgamma.cellopt as co
    import cellgamma.hyperbolic as hy
    counts = {"forward": 0, "trials": 0}
    runs = []
    real_td, real_driver = hy.time_derivative, co.minimize_cg

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
    monkeypatch.setattr(co, "minimize_cg", driver)
    g = build_shock_grid(STANDING, 64, n_time=4)
    hy.compute_shock_cell_energy(STANDING, FLUX, ENTROPY, g,
                                 OptimizerOptions(max_iter=40))
    (run,) = runs
    assert run["trials"] >= run["iterations"] > 1
    assert run["forward"] == run["trials"] + 1
    assert counts["forward"] == counts["trials"] + len(runs)


def _record_runs(monkeypatch):
    """Wrap the driver so that every start's iterations and convergence
    flag are recorded."""
    import cellgamma.cellopt as co
    runs = []
    real_driver = co.minimize_cg

    def driver(*args):
        out = real_driver(*args)
        runs.append({"iterations": out[3], "converged": out[4]})
        return out

    monkeypatch.setattr(co, "minimize_cg", driver)
    return runs


def test_every_tilted_linear_advection_start_converges_in_15_iterations(
        monkeypatch):
    # a linear flux makes the energy quadratic in w with a laterally
    # constant jacobian, so the lateral-mode preconditioner is its exact
    # Hessian in w and only the scale is left to find: the one start of
    # the tilted 128x8 shock converges in at most 15 iterations (the
    # parity chains, blind to the lateral derivatives of the tilted
    # frame, took 573 to 966)
    la = catalog_lookup("linear_advection", {"speed": [1.0]})
    jump = SpaceTimeJumpData(u_plus=[0.0], u_minus=[1.0],
                             nu_y=[1.0 / np.sqrt(2)], nu_s=-1.0 / np.sqrt(2))
    runs = _record_runs(monkeypatch)
    g = build_shock_grid(jump, 128, n_time=8)
    compute_shock_cell_energy(jump, la.flux, la.entropy, g)
    assert len(runs) == 1
    for run in runs:
        assert run["converged"] and run["iterations"] <= 15
