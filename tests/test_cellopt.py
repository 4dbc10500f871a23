"""Cell energy assembly, analytic gradients, scale optimization, and
the multistart minimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dst, idst

from cellgamma import oracle
from cellgamma.cellopt import (CellEvaluation, OptimizerOptions, _from_gauss,
                               _normal_h1_inverse, _to_gauss,
                               assemble_energy, compute_cell_energy,
                               energy_gradient, init_profiles, minimize_cg,
                               optimize_scale, resolved_scale_floor,
                               smoothstep)
from cellgamma.errors import (BadParams, BadStrategy, DegenerateScale,
                              InadmissibleProfile, NotConverged, ShapeMismatch)
from cellgamma.grid import CellGrid, StateField, build_cell_grid, build_frame
from cellgamma.hyperbolic import (_MARGIN, _normal_inverse, build_shock_grid,
                                  compute_shock_cell_energy)
from cellgamma.model import (ConstraintSet, FluxMap, JumpData, ModelSpecs,
                             ScalarPotential, SpaceTimeJumpData,
                             catalog_lookup)
from cellgamma.oracle import finite_difference_gradient
from cellgamma.poisson import BcVariant

DW = catalog_lookup("double_well")
DW_JUMP = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0])
STANDING = SpaceTimeJumpData(u_plus=[-1.0], u_minus=[1.0], nu_y=[1.0],
                             nu_s=0.0)


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
    return ModelSpecs(name="lateral_flux", W=W, Psi=Psi,
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


@pytest.mark.parametrize("nu, n_axes", [([0.6, 0.8], (9, 7)),
                                         ([2 / 3, 2 / 3, 1 / 3], (9, 7, 4))])
def test_stiffness_form_closed_form(nu, n_axes):
    # zeta = t c(y) with c piecewise linear along the first lateral axis
    # (constant along any other): int |grad zeta|^2 = int c^2 + int c'^2 / 12
    # on the unit cell, in any orthonormal frame; for the double well
    # int (1 - zeta^2)^2 = 1 - int c^2 / 6 + int c^4 / 80, which the Gauss
    # quadrature integrates exactly, the wrapping lateral element included
    g = CellGrid(frame=build_frame(nu), n_axes=n_axes)
    c = np.random.default_rng(2).standard_normal(n_axes[1])
    shape = (1, -1) + (1,) * (len(n_axes) - 2)
    values = (g.coords_normal() * c.reshape(shape))[..., None]
    h = g.spacing(1)
    cn = np.roll(c, -1)
    c2 = np.sum(h * (c * c + c * cn + cn * cn) / 3.0)
    c4 = np.sum(h * (c ** 4 + c ** 3 * cn + c ** 2 * cn ** 2 + c * cn ** 3
                     + cn ** 4) / 5.0)
    exact = c2 + np.sum(np.square(cn - c) / (12.0 * h))
    ev = CellEvaluation(g, values, DW, BcVariant.NEUMANN)
    assert abs(ev.A - exact) <= 1e-14 * exact
    exact_w = 1.0 - c2 / 6.0 + c4 / 80.0
    assert abs(ev.EW - exact_w) <= 1e-14 * exact_w


@pytest.mark.parametrize("nu, n_axes", [([1.0], (12,)), ([0.6, 0.8], (9, 7)),
                                         ([2 / 3, 2 / 3, 1 / 3], (9, 7, 4))])
def test_gauss_interpolation_transpose(nu, n_axes):
    # the potential's nodal gradient scatters Gauss-point coefficients
    # back by the exact transpose of the interpolation
    g = CellGrid(frame=build_frame(nu), n_axes=n_axes)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(g.shape + (2,))
    z = _to_gauss(g, v)
    el_shape = (n_axes[0] - 1,) + n_axes[1:]
    assert z.shape == (3,) * len(n_axes) + el_shape + (2,)
    c = rng.standard_normal(z.shape)
    back = _from_gauss(g, c)
    assert back.shape == v.shape
    lhs, rhs = np.sum(z * c), np.sum(v * back)
    assert abs(lhs - rhs) <= 1e-13 * np.sqrt(np.sum(z * z) * np.sum(c * c))


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
    {"max_iter": 0}, {"n_random": -1}, {"seed": -1},
    {"n_random": 2.5}, {"max_iter": 100.0}, {"seed": 1.0},
    {"n_random": True}, {"max_iter": True}, {"seed": False},
    {"strategies": "random_perturbed"}])
def test_optimizer_options_rejected(bad):
    # a NaN or negative tolerance would run every start to max_iter
    # with converged=False; a NaN amplitude would give NaN start energies;
    # a negative seed would wrap silently to a 64-bit Philox key; a
    # non-integer count would fail later, inside range()
    with pytest.raises(BadParams):
        OptimizerOptions(**bad)


@pytest.mark.parametrize("opts", [
    OptimizerOptions(strategies=()),
    OptimizerOptions(strategies=("random_perturbed",), n_random=0),
    OptimizerOptions(strategies=("bogus",))])
def test_no_starts_raises_bad_strategy(opts):
    # the cell and the shock read their starts from the same names
    g = build_cell_grid(build_frame([1.0]), 16)
    with pytest.raises(BadStrategy):
        compute_cell_energy(DW_JUMP, DW, g, opts=opts)
    burgers = catalog_lookup("burgers")
    g = build_shock_grid(STANDING, 16, n_time=2)
    with pytest.raises(BadStrategy):
        compute_shock_cell_energy(STANDING, burgers.flux, burgers.entropy, g,
                                  opts)


def test_gradient_matches_fd_double_well():
    # the 1D cell and a tilted 2D cell of the space_dim 2 double well
    dw2 = catalog_lookup("double_well", {"space_dim": 2})
    tilted = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[0.6, 0.8])
    cases = [(build_cell_grid(build_frame([1.0]), 12), DW, DW_JUMP),
             (build_cell_grid(build_frame(tilted.nu), 10, n_lateral=6), dw2,
              tilted)]
    rng = np.random.default_rng(0)
    for g, specs, jump in cases:
        t = g.coords_normal()
        v = np.tanh(3 * t)[..., None] + 0.1 * rng.standard_normal(g.shape + (1,))
        v[0], v[-1] = -1.0, 1.0
        prof = StateField(g, v)
        ga = energy_gradient(prof, 0.7, specs, jump).values
        gf = finite_difference_gradient(prof, 0.7, specs, jump).values
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
    specs2 = ModelSpecs(name="x2", W=specs.W, Psi=two,
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



@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.05, max_value=2.0),
       st.sampled_from(BcVariant.CELL_KINDS))
def test_jump_flip_symmetry_micromagnetic_property(seed, L, bc):
    # a random smoothed unit-sphere profile with a stray field, mirrored
    # into the flipped frame: build_frame([-1, 0]) also flips the
    # lateral axis, so the mirror reflects it too
    mm = catalog_lookup("micromagnetics_2d")
    jump = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                    nu=[1.0, 0.0])
    g = build_cell_grid(build_frame([1.0, 0.0]), 16, n_lateral=8)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(g.shape + (3,))
    for ax in (0, 1):
        noise = (np.roll(noise, 1, axis=ax) + 2.0 * noise
                 + np.roll(noise, -1, axis=ax)) / 4.0
    t = g.coords_normal()[..., None]
    wall = np.concatenate([np.zeros_like(t), np.tanh(8.0 * t),
                           np.zeros_like(t)], axis=-1)
    values = wall + 0.5 * noise
    values /= np.linalg.norm(values, axis=-1, keepdims=True)
    values[0] = jump.phi_minus
    values[-1] = jump.phi_plus
    n1 = g.n_axes[1]
    mirrored = values[::-1][:, (-np.arange(n1)) % n1]
    gf = build_cell_grid(build_frame([-1.0, 0.0]), 16, n_lateral=8)
    e1 = assemble_energy(StateField(g, values), L, mm, jump, bc)
    e2 = assemble_energy(StateField(gf, mirrored), L, mm, jump.flipped(), bc)
    assert e1.nonlocal_term > 0.0
    assert abs(e2.total - e1.total) <= 1e-12 * e1.total
    assert abs(e2.nonlocal_term - e1.nonlocal_term) <= 1e-12 * e1.nonlocal_term

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
    opts = OptimizerOptions(n_random=3, amplitude=0.2)
    counts = {"one_dimensional_tanh": 1, "random_perturbed": 3}
    for s, count in counts.items():
        profiles = init_profiles(j, mm, g, s, opts)
        assert len(profiles) == count
        for p in profiles:
            norms = np.linalg.norm(p.values, axis=-1)
            assert np.max(np.abs(norms - 1.0)) < 1e-10
            assert np.max(np.abs(p.values[0] - j.phi_minus)) < 1e-14
            assert np.max(np.abs(p.values[-1] - j.phi_plus)) < 1e-14
    for s in ("bogus", "geodesic_sweep", ("random_perturbed", 3, 0.2)):
        with pytest.raises(BadStrategy):
            init_profiles(j, mm, g, s, opts)


def test_default_starts_do_not_call_the_oracle(monkeypatch):
    # the 1D geodesic oracle is the independent bound the solver is
    # checked against, so the default starts must not be built from it
    def broken(*args, **kwargs):
        raise AssertionError("the default starts called the oracle")

    monkeypatch.setattr(oracle, "geodesic_path_1d", broken)
    g = build_cell_grid(build_frame([1.0, 0.0]), 12, n_lateral=4)
    mm = catalog_lookup("micromagnetics_2d")
    j = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                 nu=[1.0, 0.0])
    sol = compute_cell_energy(j, mm, g,
                              opts=OptimizerOptions(n_random=1, max_iter=20))
    assert len(sol.starts) == 2


def test_determinism_same_seed():
    g = build_cell_grid(build_frame([1.0]), 48)
    opts = OptimizerOptions(seed=7)
    a = compute_cell_energy(DW_JUMP, DW, g, opts=opts)
    b = compute_cell_energy(DW_JUMP, DW, g, opts=opts)
    assert a.energy.total == b.energy.total
    assert np.array_equal(a.profile.values, b.profile.values)


def test_grid_built_for_another_normal_rejected():
    # a grid built for another normal used to pass silently: the double
    # well ignored the jump's normal, the micromagnetic cell raised a
    # misleading NeumannIncompatible, and the standing Burgers jump on a
    # tilted shock grid returned E = 0.828 instead of about 4/3
    opts = OptimizerOptions(n_random=0, max_iter=50)
    dw2 = catalog_lookup("double_well", {"space_dim": 2})
    tilted = build_cell_grid(build_frame([0.6, 0.8]), 16, n_lateral=4)
    jump = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0, 0.0])
    with pytest.raises(ShapeMismatch):
        compute_cell_energy(jump, dw2, tilted, opts=opts)
    mm = catalog_lookup("micromagnetics_2d")
    jump = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                    nu=[1.0, 0.0])
    with pytest.raises(ShapeMismatch):
        compute_cell_energy(jump, mm, tilted, opts=opts)
    burgers = catalog_lookup("burgers")
    tilted_jump = SpaceTimeJumpData(u_plus=[0.0], u_minus=[2.0],
                                    nu_y=[1.0 / np.sqrt(2)],
                                    nu_s=-1.0 / np.sqrt(2))
    g = build_shock_grid(tilted_jump, 16, n_time=2)
    with pytest.raises(ShapeMismatch):
        compute_shock_cell_energy(STANDING, burgers.flux, burgers.entropy, g,
                                  opts)


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
    # gradient, so a start solves once per trial plus once at the start;
    # the result is built from the accepted evaluation, with no solve
    # after the multistart
    import cellgamma.cellopt as co
    mm = catalog_lookup("micromagnetics_2d")
    j = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                 nu=[1.0, 0.0])
    g = build_cell_grid(build_frame([1.0, 0.0]), 12, n_lateral=4)
    counts = {"solves": 0, "trials": 0}
    runs = []
    real_solve, real_driver = co.nonlocal_energy, co.minimize_cg

    def nonlocal_energy(*args, **kwargs):
        counts["solves"] += 1
        return real_solve(*args, **kwargs)

    def driver(x0, evaluate, precondition, retract, *rest):
        # trials are counted at the driver's retract: building the
        # random starts also calls _retract
        def counted_retract(x, step):
            counts["trials"] += 1
            return retract(x, step)

        before = dict(counts)
        out = real_driver(x0, evaluate, precondition, counted_retract, *rest)
        runs.append({k: counts[k] - before[k] for k in counts})
        runs[-1]["iterations"] = out[3]
        return out

    monkeypatch.setattr(co, "nonlocal_energy", nonlocal_energy)
    monkeypatch.setattr(co, "minimize_cg", driver)
    co.compute_cell_energy(j, mm, g, BcVariant.NEUMANN,
                           OptimizerOptions(max_iter=60, n_random=2))
    assert len(runs) == 3
    for run in runs:
        assert run["trials"] >= run["iterations"] > 1
        assert run["solves"] == run["trials"] + 1
    assert counts["solves"] == counts["trials"] + len(runs)


@pytest.mark.parametrize("case, n_normal", [("cell", 11), ("shock", 13),
                                             ("shock", 256)],
                         ids=["cell", "shock", "shock_256"])
def test_normal_tridiagonal_inverse_matches_dense_and_sine_solves(case,
                                                                  n_normal):
    # the cell's tridiagonal 2 cross h (L K_h + I / L) with margin 1 and
    # the shock's pentadiagonal 2 cross h (L K_h^2 + K_h / L) inside the
    # margin slabs, K_h = tridiag(-1, 2, -1) / h^2, the latter applied
    # as two tridiagonal solves: the solves agree with a dense solve
    # and with the DST-I diagonalization by the symbols L lam + 1/L and
    # lam (L lam + 1/L)
    L = 0.3
    rng = np.random.default_rng(4)
    fourth_order = case == "shock"
    if fourth_order:
        grid = build_shock_grid(STANDING, n_normal, n_time=3)
        g = rng.standard_normal(grid.shape + (1, 1))
        p, margin = _normal_inverse(grid, g, L), _MARGIN
    else:
        grid = build_cell_grid(build_frame([1.0, 0.0]), n_normal, n_lateral=4)
        g = rng.standard_normal(grid.shape + (2,))
        p, margin = _normal_h1_inverse(grid, g, L), 1
    assert np.all(p[:margin] == 0.0) and np.all(p[-margin:] == 0.0)

    inner = g[margin:-margin]
    n, h = inner.shape[0], grid.spacing(0)
    scale = 2.0 * h * grid.spacing(1)
    K = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h ** 2
    lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / h ** 2
    rhs = inner.reshape(n, -1)
    if fourth_order:
        dense = scale * (L * K @ K + K / L)
        symbol = scale * lam * (L * lam + 1.0 / L)
    else:
        dense = scale * (L * K + np.eye(n) / L)
        symbol = scale * (L * lam + 1.0 / L)
    if n_normal < 256:
        ref = np.linalg.solve(dense, rhs)
    else:
        # the pentadiagonal has condition number 3e8 here, so its own
        # dense solve is off by ~5e-9; solve with the two well
        # conditioned dense factors K and scale (L K + I / L) in turn
        ref = np.linalg.solve(scale * (L * K + np.eye(n) / L),
                              np.linalg.solve(K, rhs))
    ref = ref.reshape(inner.shape)
    sine = idst(dst(inner, type=1, axis=0)
                / symbol.reshape((n,) + (1,) * (inner.ndim - 1)),
                type=1, axis=0)
    size = np.max(np.abs(ref))
    assert np.max(np.abs(p[margin:-margin] - ref)) <= 1e-10 * size
    assert np.max(np.abs(p[margin:-margin] - sine)) <= 1e-10 * size


def test_roundoff_trials_judged_by_directional_derivative():
    # E(x, L) = L |Ma x - ua|^2 + |Mb x - ub|^2 / L with curvatures up to
    # 1e6: near the minimum a step lowers E by less than its round-off
    # while the largest gradient entry is still above gtol.  Armijo
    # alone stalls there with a gradient entry near 1e-4 until
    # max_iter; accepting round-off trials whose directional derivative
    # has fallen to 0.8 |slope| converges.
    rng = np.random.default_rng(0)
    n, m = 8, 24

    def matrix():
        U, _ = np.linalg.qr(rng.standard_normal((m, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return U @ np.diag(np.geomspace(1.0, 1e3, n)) @ V.T

    Ma, Mb = matrix(), matrix()
    ua, ub = rng.standard_normal(m), rng.standard_normal(m)

    class Evaluation:
        def __init__(self, x):
            self.ra, self.rb = Ma @ x - ua, Mb @ x - ub
            self.A, self.B = float(self.ra @ self.ra), float(self.rb @ self.rb)
            self.gradient_calls = 0

        def gradient(self, L):
            self.gradient_calls += 1
            return 2.0 * (L * Ma.T @ self.ra + Mb.T @ self.rb / L)

    evaluations = []

    def evaluate(x):
        evaluations.append(Evaluation(x))
        return evaluations[-1]

    gtol = 1e-6
    x, L, _, _, converged, _ = minimize_cg(
        np.zeros(n), evaluate, lambda g, x, L: g, lambda x, step: x + step,
        1e-3, gtol, OptimizerOptions(max_iter=2000))
    assert converged
    assert np.max(np.abs(Evaluation(x).gradient(L))) <= gtol
    # the round-off test's gradient is reused when its trial is accepted
    assert max(ev.gradient_calls for ev in evaluations) == 1


def test_package_import_leaves_scipy_linalg_and_interpolate_unloaded():
    # cellopt, hyperbolic and oracle import scipy.linalg and scipy.sparse
    # lazily: each costs tens of ms that every import of the package
    # would otherwise pay.  No module needs scipy.interpolate: the
    # recovery field interpolates one axis at a time, so not even a
    # sweep loads it
    import os
    import subprocess
    import sys

    import cellgamma
    src = os.path.dirname(os.path.dirname(os.path.abspath(cellgamma.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def loaded(code, modules):
        code += f"\nprint([m for m in {modules!r} if m in sys.modules])"
        return subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True,
                              text=True).stdout.strip()

    assert loaded("import sys, cellgamma", ("scipy.linalg", "scipy.interpolate",
                                           "scipy.sparse")) == "[]"
    sweep = """import sys
from cellgamma import (DomainSpec, JumpData, OptimizerOptions,
                       build_cell_grid, build_frame, build_recovery_field,
                       catalog_lookup, compute_cell_energy, run_gamma_sweep)
dw = catalog_lookup("double_well", {"space_dim": 2})
jump = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0, 0.0])
g = build_cell_grid(build_frame([1.0, 0.0]), 33, n_lateral=4)
cell = compute_cell_energy(jump, dw, g, opts=OptimizerOptions(n_random=0))
d = DomainSpec(nu=[1.0, 0.0], resolution=32)
build_recovery_field(d, cell, 1 / 16)
assert not run_gamma_sweep(d, jump, dw, [1 / 16], cell=cell)[0].error
"""
    assert loaded(sweep, ("scipy.interpolate",)) == "[]"
