"""Cell energy assembly, analytic gradients, scale optimization, and
the multistart minimizer."""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dst, idst

from cellgamma import oracle
from cellgamma.cellopt import (_HAT, CellEvaluation, OptimizerOptions,
                               _antipodal_axes, _from_gauss, _GaussWorkArea,
                               _normal_h1_inverse, _stiffness, _to_gauss,
                               assemble_energy, compute_cell_energy,
                               energy_gradient, init_profiles, minimize_cg,
                               optimize_scale, resolved_scale_floor,
                               smoothstep)
from cellgamma.errors import (BadParams, BadStrategy, DegenerateScale,
                              InadmissibleProfile, NotConverged, ShapeMismatch)
from cellgamma.grid import (CellGrid, StateField, build_cell_grid, build_frame,
                            derivatives)
from cellgamma.hyperbolic import (_MARGIN, _ShockEvaluation,
                                  _lateral_mode_inverse, build_base_fields,
                                  build_shock_grid, compute_shock_cell_energy)
from cellgamma.model import (ConstraintSet, FluxMap, JumpData, ModelSpecs,
                             SpaceTimeJumpData, catalog_lookup)
from cellgamma.oracle import finite_difference_gradient
from cellgamma.poisson import BcVariant

DW = catalog_lookup("double_well")
DW_JUMP = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0])
STANDING = SpaceTimeJumpData(u_plus=[-1.0], u_minus=[1.0], nu_y=[1.0],
                             nu_s=0.0)
TILTED = SpaceTimeJumpData(u_plus=[0.0], u_minus=[2.0],
                           nu_y=[1.0 / np.sqrt(2)], nu_s=-1.0 / np.sqrt(2))


def _lateral_flux_specs():
    """Unconstrained scalar model with a nonzero, Neumann-compatible
    (purely lateral) flux map and the catalog double well; exercises
    the nonlocal adjoint."""
    jac = np.zeros((1, 2, 1))
    jac[0, 1, 0] = 1.0
    Psi = FluxMap(
        m=1, l=1, N=2,
        value=lambda s: np.stack([np.zeros_like(s), s], axis=-1),
        jacobian=lambda s: np.broadcast_to(jac, s.shape[:-1] + (1, 2, 1)))
    return ModelSpecs(name="lateral_flux", W=DW.W, Psi=Psi,
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
    work = _GaussWorkArea(g, 2)
    z = _to_gauss(g, v, work)
    el_shape = (n_axes[0] - 1,) + n_axes[1:]
    assert z.shape == (3,) * len(n_axes) + el_shape + (2,)
    c = rng.standard_normal(z.shape)
    back = _from_gauss(g, c, work)
    assert back.shape == v.shape
    lhs, rhs = np.sum(z * c), np.sum(v * back)
    assert abs(lhs - rhs) <= 1e-13 * np.sqrt(np.sum(z * z) * np.sum(c * c))


def _rolled_tridiagonal(values, axis, diag, off):
    """The stencil of :func:`cellopt._tridiagonal` with np.roll wraps."""
    if axis > 0:
        return diag * values + off * (np.roll(values, 1, axis=axis)
                                      + np.roll(values, -1, axis=axis))
    out = diag * values
    out[0] *= 0.5
    out[-1] *= 0.5
    out[1:] += off * values[:-1]
    out[:-1] += off * values[1:]
    return out


def _rolled_stiffness(grid, values):
    out = 0.0
    for ax in range(grid.dim):
        t = values
        for b in range(grid.dim):
            h = grid.spacing(b)
            if b == ax:
                t = _rolled_tridiagonal(t, b, 2.0 / h, -1.0 / h)
            else:
                t = _rolled_tridiagonal(t, b, 4.0 * h / 6.0, h / 6.0)
        out = out + t
    return out


def _rolled_to_gauss(grid, values):
    p = grid.dim - 1
    head = (slice(None),) * p
    z = values
    for ax in reversed(range(grid.dim)):
        if ax == 0:
            lo, hi = z[head + (slice(None, -1),)], z[head + (slice(1, None),)]
        else:
            lo, hi = z, np.roll(z, -1, axis=p)
        hat = _HAT.reshape((2, 3) + (1,) * z.ndim)
        z = hat[0] * lo + hat[1] * hi
    return z


def _rolled_from_gauss(grid, coeff):
    p = grid.dim - 1
    head = (slice(None),) * p
    for ax in range(grid.dim):
        lo, hi = np.tensordot(_HAT, coeff, axes=(1, 0))
        if ax == 0:
            shape = list(lo.shape)
            shape[p] += 1
            coeff = np.zeros(shape)
            coeff[head + (slice(None, -1),)] += lo
            coeff[head + (slice(1, None),)] += hi
        else:
            coeff = lo + np.roll(hi, 1, axis=p)
    return coeff


@pytest.mark.parametrize("nu, n_axes", [
    ([1.0, 0.0], (9, 1)), ([1.0, 0.0], (9, 2)), ([1.0, 0.0], (9, 3)),
    ([0.6, 0.8], (11, 7)), ([2 / 3, 2 / 3, 1 / 3], (8, 3, 2))])
def test_slice_wraps_equal_roll_formulas(nu, n_axes):
    # the lateral wraps by slices and the contraction by one np.dot give
    # exactly what np.roll and np.tensordot give, down to lateral counts
    # of 1 and 2, where a node is its own or its other neighbour's
    # neighbour
    g = CellGrid(frame=build_frame(nu), n_axes=n_axes)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(g.shape + (2,))
    assert np.array_equal(_stiffness(g, v), _rolled_stiffness(g, v))
    work = _GaussWorkArea(g, 2)
    assert np.array_equal(_to_gauss(g, v, work), _rolled_to_gauss(g, v))
    c = rng.standard_normal(work.stages[-1].shape)
    assert np.array_equal(_from_gauss(g, c, work), _rolled_from_gauss(g, c))


def test_gradient_does_not_depend_on_later_evaluations():
    # every evaluation interpolates into its thread's one work area; the
    # gradient of an evaluation whose Gauss points were overwritten, or
    # whose work area was replaced, must interpolate again
    mm = catalog_lookup("micromagnetics_2d")
    jump = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                    nu=[1.0, 0.0])
    g = build_cell_grid(build_frame([1.0, 0.0]), 12, n_lateral=8)
    other = build_cell_grid(build_frame([1.0, 0.0]), 10, n_lateral=6)
    opts = OptimizerOptions(n_random=2)
    v1, v2 = (p.values for p in init_profiles(jump, mm, g, "random_perturbed", opts))
    v3 = init_profiles(jump, mm, other, "random_perturbed", opts)[0].values
    bc, L = BcVariant.NEUMANN, 0.3
    ref = CellEvaluation(g, v1, mm, bc).gradient(L)
    ev1 = CellEvaluation(g, v1, mm, bc)
    parts = (ev1.A, ev1.EW, ev1.BH)

    def on_thread():
        CellEvaluation(g, v2, mm, bc).gradient(L)

    later = [lambda: CellEvaluation(g, v2, mm, bc),
             lambda: CellEvaluation(other, v3, mm, bc),
             lambda: CellEvaluation(g, v2, mm, bc).gradient(L)]
    for make in later:
        make()
        assert np.array_equal(ev1.gradient(L), ref)
        assert (ev1.A, ev1.EW, ev1.BH) == parts
    thread = threading.Thread(target=on_thread)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert np.array_equal(ev1.gradient(L), ref)
    assert (ev1.A, ev1.EW, ev1.BH) == parts


def test_gauss_work_areas_are_per_thread():
    # threads evaluating different profiles at once, most of them on one
    # shape (a shared work area would mix their Gauss points), each
    # taking gradients of an earlier evaluation too, get the serial results
    mm = catalog_lookup("micromagnetics_2d")
    jump = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                    nu=[1.0, 0.0])
    grids = [build_cell_grid(build_frame([1.0, 0.0]), n0, n_lateral=n1)
             for n0, n1 in ((12, 8), (12, 8), (12, 8), (12, 8), (10, 6))]
    profiles = [init_profiles(jump, mm, g, "random_perturbed",
                              OptimizerOptions(seed=i, n_random=2))
                for i, g in enumerate(grids)]
    bc, L = BcVariant.NEUMANN, 0.3
    ref = [[CellEvaluation(g, p.values, mm, bc).gradient(L) for p in ps]
           for g, ps in zip(grids, profiles)]
    bad = []

    def work(i):
        g, (p0, p1) = grids[i], profiles[i]
        for _ in range(40):
            ev0 = CellEvaluation(g, p0.values, mm, bc)
            ev1 = CellEvaluation(g, p1.values, mm, bc)
            for ev, r in ((ev1, ref[i][1]), (ev0, ref[i][0])):
                if not np.array_equal(ev.gradient(L), r):
                    bad.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(grids))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_constant_no_jump_profile_zero_energy():
    g = build_cell_grid(build_frame([1.0]), 16)
    j = JumpData(phi_plus=[1.0], phi_minus=[1.0], nu=[1.0])
    prof = StateField(g, np.ones((16, 1)))
    assert assemble_energy(prof, 1.0, DW, j).total == 0.0


@pytest.mark.parametrize("nu, n_axes", [([1.0, 0.0], (16, 8)),
                                         ([2 / 3, 2 / 3, 1 / 3], (9, 7, 4))])
def test_stiffness_exact_on_constants_and_lateral_columns(nu, n_axes):
    # the stiffness product sums each node's entries in one fixed order,
    # the wrapped nodes included: a constant no-jump field gives exact
    # zeros, so A is exactly 0 and never below it, and a profile of the
    # normal index alone gives the same output in every lateral column
    g = CellGrid(frame=build_frame(nu), n_axes=n_axes)
    const = np.full(g.shape + (1,), 0.7)
    assert np.all(_stiffness(g, const) == 0.0)
    assert CellEvaluation(g, const, DW, BcVariant.NEUMANN).A == 0.0
    v = np.tanh(6.0 * g.coords_normal())[..., None]
    v[0], v[-1] = -1.0, 1.0
    column = (slice(None),) + (slice(0, 1),) * (g.dim - 1)
    ev = CellEvaluation(g, v, DW, BcVariant.NEUMANN)
    for out in (_stiffness(g, v), ev.gradient(0.3)):
        assert np.array_equal(out, np.broadcast_to(out[column], out.shape))


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
    with pytest.raises(DegenerateScale):
        optimize_scale(-1.0, 1.0)
    # A = 0: B / L falls without bound, so the scale stops at the cap
    assert optimize_scale(0.0, 2.0) == (256.0, 2.0 / 256.0)
    # B = 0: the infimum 0 lies at L -> 0, and the caller's floor applies
    assert optimize_scale(3.0, 0.0) == (0.0, 0.0)
    assert optimize_scale(0.0, 0.0) == (0.0, 0.0)
    # no lower clamp: a scale below 2^-8 comes back as it is
    L, e = optimize_scale(1.0, 1e-6)
    assert abs(L - 1e-3) <= 1e-15 and abs(e - 2e-3) <= 1e-15


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
    g = build_cell_grid(build_frame([1.0]), 16)
    with pytest.raises(BadStrategy):
        compute_cell_energy(DW_JUMP, DW, g, opts=opts)


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


def _rotated_wall(degrees):
    # the micromagnetic wall rotated about e_z: the states stay tangential
    # to the wall, so every angle is the same cell in a rotated frame
    th = np.radians(degrees)
    t = [-np.sin(th), np.cos(th), 0.0]
    return JumpData(phi_plus=t, phi_minus=[-c for c in t],
                    nu=[np.cos(th), np.sin(th)])


def test_antipodal_start_is_the_bloch_wall_at_every_normal():
    # the Bloch plane (e_z) and the Neel planes all cost 4; rounding used
    # to rank a Neel plane first at most angles, so the tanh start and its
    # energy flipped between the two walls as nu rotated
    mm = catalog_lookup("micromagnetics_2d")
    for degrees in 0.5 * np.arange(361):
        j = _rotated_wall(degrees)
        e = _antipodal_axes(j.phi_minus, mm, j)[0]
        assert np.max(np.abs(e - [0.0, 0.0, 1.0])) <= 1e-12
    opts = OptimizerOptions(n_random=0)
    e0, e1 = (compute_cell_energy(
        j, mm, build_cell_grid(build_frame(j.nu), 32, n_lateral=32),
        opts=opts).energy.total for j in map(_rotated_wall, (0.0, 1.5)))
    assert abs(e1 - e0) <= 1e-9 * e0


@pytest.mark.parametrize("name, params, phi", [
    ("double_well", {"space_dim": 2}, [1.0]),
    ("micromagnetics_2d", {}, [0.0, 1.0, 0.0])])
def test_unknown_cell_bc_rejected(name, params, phi):
    # the model without a flux never reaches the potential solve, so its
    # cell used to run with any bc
    specs = catalog_lookup(name, params)
    j = JumpData(phi_plus=phi, phi_minus=[-c for c in phi], nu=[1.0, 0.0])
    g = build_cell_grid(build_frame([1.0, 0.0]), 12, n_lateral=4)
    prof = init_profiles(j, specs, g, "one_dimensional_tanh")[0]
    for run in (lambda: compute_cell_energy(j, specs, g, bc="bogus"),
                lambda: assemble_energy(prof, 0.1, specs, j, bc="bogus"),
                lambda: energy_gradient(prof, 0.1, specs, j, bc="bogus")):
        with pytest.raises(ShapeMismatch, match="unknown cell bc variant 'bogus'"):
            run()


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


def _shock_with_planar_normal():
    burgers = catalog_lookup("burgers")
    j = SpaceTimeJumpData(u_plus=[-1.0], u_minus=[1.0], nu_y=[1.0, 0.0],
                          nu_s=0.0)
    g = build_shock_grid(j, 16, n_lateral=4)
    compute_shock_cell_energy(j, burgers.flux, burgers.entropy, g)


def _micromagnetic_cell(nu):
    j = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0], nu=nu)
    g = build_cell_grid(build_frame(nu), 16,
                        n_lateral=4 if len(nu) > 1 else None)
    compute_cell_energy(j, catalog_lookup("micromagnetics_2d"), g)


@pytest.mark.parametrize("run, message", [
    (_shock_with_planar_normal,
     "nu_y of length 2 does not fit a flux with N = 1"),
    (lambda: _micromagnetic_cell([1.0, 0.0, 0.0]),
     "normal nu of length 3 does not fit a model with N = 2"),
    (lambda: _micromagnetic_cell([1.0]),
     "normal nu of length 1 does not fit a model with N = 2")],
    ids=["shock_nu_y_2", "cell_nu_3", "cell_nu_1"])
def test_normal_length_must_match_model(run, message):
    # a normal of another length than the model's space dimension used
    # to fail inside a numpy matmul, with a message naming no input
    with pytest.raises(BadParams, match=message):
        run()


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


def _mean_gauss_newton(grid, ev, L):
    """The Gauss-Newton operator of the shock energy L A + B / L in w,
    with dF/du(zeta) replaced by its lateral mean at each normal node,
    assembled from the grid's derivative matrices on the flat interior
    nodes: the dense block of each component (a, l) of w, for the
    quadratic entropy.  Column l drives zeta_a through d_l, so the
    entropy term is sum_j |d_j d_l w|^2 and the flux mismatch r_ij is
    -(delta_ia delta_jl d_s + dF_ij/du_a d_l) w."""
    import scipy.sparse as sp
    d = derivatives(grid).d
    k, n_space = ev.flux.k, ev.flux.N
    n_lat = int(np.prod(grid.n_axes[1:]))
    W = sp.diags_array(grid.node_weights().ravel())
    fbar = ev.jac.mean(axis=tuple(range(1, grid.dim)))
    inner = slice(_MARGIN * n_lat, (grid.n_axes[0] - _MARGIN) * n_lat)
    blocks = {}
    for a in range(k):
        for l in range(n_space):
            op = sum(2.0 * L * (dj @ d[l]).T @ W @ (dj @ d[l])
                     for dj in d[:n_space])
            for i in range(k):
                for j in range(n_space):
                    r = sp.diags_array(np.repeat(fbar[:, i, j, a], n_lat)) @ d[l]
                    if (i, j) == (a, l):
                        r = r + d[n_space]
                    op = op + (2.0 / L) * r.T @ W @ r
            blocks[a, l] = op.toarray()[inner, inner]
    return blocks


def _check_lateral_mode_inverse(grid, ev, rng):
    # at the scale floor 4h, the scale of the optimizer on these cells:
    # at L = 0.3 on 256 normal nodes the operator's condition number is
    # about 6e6, and the band and the dense solve, with equal residuals,
    # differ by up to 3e-10
    L = resolved_scale_floor(grid)
    k, n_space = ev.flux.k, ev.flux.N
    g = rng.standard_normal(grid.shape + (k, n_space))
    p = _lateral_mode_inverse(grid, g, ev, L)
    assert np.all(p[:_MARGIN] == 0.0) and np.all(p[-_MARGIN:] == 0.0)
    for (a, l), op in _mean_gauss_newton(grid, ev, L).items():
        ref = np.linalg.solve(op, g[_MARGIN:-_MARGIN, ..., a, l].ravel())
        got = p[_MARGIN:-_MARGIN, ..., a, l].ravel()
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("case, n_normal", [("cell", 11), ("shock", 13),
                                             ("shock", 256), ("shock_3d", 14)],
                         ids=["cell", "shock", "shock_256", "shock_3d"])
def test_normal_tridiagonal_inverse_matches_dense_and_sine_solves(case,
                                                                  n_normal):
    # the cell's tridiagonal 2 cross h (L K_h + I / L) with margin 1,
    # K_h = tridiag(-1, 2, -1) / h^2, agrees with a dense solve and with
    # the DST-I diagonalization by the symbol L lam + 1/L (L = 0.3); the
    # shock's lateral-mode inverse agrees with a dense solve of the
    # lateral-mean Gauss-Newton operator assembled from the derivative
    # matrices, on standing and tilted 1+1 frames with 1, 2, 3 and 8
    # lateral nodes, on a 2+1 linear-advection cell, and with k = 2
    # states and a random jacobian
    L = 0.3
    rng = np.random.default_rng(4)
    if case == "cell":
        grid = build_cell_grid(build_frame([1.0, 0.0]), n_normal, n_lateral=4)
        g = rng.standard_normal(grid.shape + (2,))
        p = _normal_h1_inverse(grid, g, L)
        assert np.all(p[:1] == 0.0) and np.all(p[-1:] == 0.0)
        inner = g[1:-1]
        n, h = inner.shape[0], grid.spacing(0)
        scale = 2.0 * h * grid.spacing(1)
        K = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h ** 2
        lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / h ** 2
        rhs = inner.reshape(n, -1)
        ref = np.linalg.solve(scale * (L * K + np.eye(n) / L),
                              rhs).reshape(inner.shape)
        symbol = scale * (L * lam + 1.0 / L)
        sine = idst(dst(inner, type=1, axis=0)
                    / symbol.reshape((n,) + (1,) * (inner.ndim - 1)),
                    type=1, axis=0)
        size = np.max(np.abs(ref))
        assert np.max(np.abs(p[1:-1] - ref)) <= 1e-10 * size
        assert np.max(np.abs(p[1:-1] - sine)) <= 1e-10 * size
        return

    if case == "shock_3d":
        model = catalog_lookup("linear_advection", {"speed": [1.0, 0.0]})
        jumps = [SpaceTimeJumpData(u_plus=[0.0], u_minus=[1.0],
                                   nu_y=[1.0 / np.sqrt(2), 0.0],
                                   nu_s=-1.0 / np.sqrt(2))]
        grids = [build_shock_grid(jumps[0], n_normal, n_lateral=4, n_time=3)]
    else:
        model = catalog_lookup("burgers")
        jumps = [STANDING, TILTED]
        n_times = (1, 2, 3, 8)
        grids = [build_shock_grid(jump, n_normal, n_time=n_time)
                 for jump in jumps for n_time in n_times]
        jumps = [jump for jump in jumps for _ in n_times]
    flux = model.flux
    for jump, grid in zip(jumps, grids):
        w = 1e-2 * rng.standard_normal(grid.shape + (flux.k, flux.N))
        w[:_MARGIN] = 0.0
        w[-_MARGIN:] = 0.0
        ev = _ShockEvaluation(grid, build_base_fields(jump, flux, grid), w,
                              flux, model.entropy)
        _check_lateral_mode_inverse(grid, ev, rng)
    # k = 2 states: each component keeps its own diagonal block
    grid = grids[-1]
    system = SimpleNamespace(
        flux=SimpleNamespace(k=2, N=flux.N),
        jac=rng.standard_normal(grid.shape + (2, flux.N, 2)))
    _check_lateral_mode_inverse(grid, system, rng)


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


def test_line_search_stall_stops_unconverged():
    # every evaluation after the start lies 100 above it (A = B = 51
    # against 1, at L = 1): the line search rejects all 50 trials of the
    # first iteration, so the run stops there, unconverged, at the start
    calls = []

    def evaluate(x):
        calls.append(x)
        part = 1.0 if len(calls) == 1 else 51.0
        return SimpleNamespace(A=part, B=part, gradient=lambda L: np.ones(4))

    x0 = np.zeros(4)
    x, L, E, it, converged, _ = minimize_cg(
        x0, evaluate, lambda g, ev, L: g, lambda x, step: x + step,
        1e-3, 1e-6, OptimizerOptions(max_iter=50))
    assert (it, converged, len(calls)) == (1, False, 51)
    assert np.array_equal(x, x0) and (L, E) == (1.0, 2.0)


def test_on_floor_run_keeps_the_scale_at_the_floor():
    # E(x, L) = L (1 + |x - a|^2) + 4 / L has its minimum 4 at x = a and
    # L = 2, far above the floor 0.01: the free run reaches it, and a run
    # on the floor stays at L = 0.01 throughout and ends at x = a with
    # E = 0.01 + 4 / 0.01
    a = np.array([0.3, -1.2, 2.0])

    class Evaluation:
        def __init__(self, x):
            self.r = x - a
            self.A, self.B = 1.0 + float(self.r @ self.r), 4.0

        def gradient(self, L):
            return 2.0 * L * self.r

    for on_floor, L_end, E_end in ((False, 2.0, 4.0), (True, 0.01, 400.01)):
        scales = []

        def precondition(g, ev, L):
            scales.append(L)
            return g

        x, L, E, _, converged, _ = minimize_cg(
            np.zeros(3), Evaluation, precondition, lambda x, step: x + step,
            0.01, 1e-6, OptimizerOptions(max_iter=500), on_floor=on_floor)
        assert converged
        assert abs(L - L_end) <= 1e-10 and abs(E - E_end) <= 1e-10 * E_end
        assert np.max(np.abs(x - a)) <= 1e-6
        assert all(s == 0.01 for s in scales) == on_floor


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
