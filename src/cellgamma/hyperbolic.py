"""Space-time shock-layer cell energies via the divergence-constrained
potential formulation, the static-frame reduction, and the |nu_y|
scaling identity.

The admissible pairs (zeta, gamma) must satisfy the conservation
constraint d_s zeta + div_y gamma = 0.  Instead of enforcing it with
multipliers, candidates are parametrized by a potential perturbation w:

    zeta = zeta0 + div_y w,    gamma = gamma0 - d_s w,

whose induced pair satisfies the constraint identically because the
discrete per-axis derivatives commute (rolls and the one-sided normal
stencil act along different axes).  The base pair (zeta0, gamma0) is a
smoothed sweep between the two shock states whose constraint residual
vanishes exactly by the Rankine-Hugoniot relation; only w is ever
stored, the unbounded primitive it represents is never materialized.

The energy density L |grad_y(grad_u eta(zeta))|^2 + (1/L)|gamma -
F(zeta)|^2 is assembled nodally (trapezoid normal axis, uniform
periodic axes); target tolerances here are in the percent range, so
nodal second-order quadrature suffices.
"""

from dataclasses import dataclass

import numpy as np

from .cellopt import (CellSolution, EnergyBreakdown, OptimizerOptions,
                      minimize_cg, multistart, resolved_scale_floor,
                      smoothstep)
from .errors import (DegenerateNormal, NonScalar, RankineHugoniotViolated,
                     ShapeMismatch)
from .grid import (StateField, TensorField, build_cell_grid, build_frame,
                   diff_axis, diff_axis_transpose, smooth_noise)
from .model import FluxFunction, validate_rankine_hugoniot


# --- results and containers -----------------------------------------------

@dataclass
class BaseFields:
    """Constraint-satisfying base pair pinned to (u-, F(u-)) and
    (u+, F(u+)) on the normal end slabs."""

    zeta0: StateField
    gamma0: TensorField


@dataclass
class PotentialPerturbation:
    """Perturbation potential w, lateral/time periodic and compactly
    supported in the normal cell coordinate (zero on ``margin`` end
    slabs, which keeps the induced zeta pinned on the outer slabs)."""

    w: TensorField
    margin: int = 3

    def __post_init__(self):
        m = self.margin
        v = self.w.values
        if m < 1 or 2 * m >= v.shape[0]:
            raise ShapeMismatch("margin must leave interior normal slabs")
        if np.any(v[:m] != 0.0) or np.any(v[-m:] != 0.0):
            raise ShapeMismatch("w must vanish on the normal margin slabs")


@dataclass
class ShockSolution(CellSolution):
    """CellSolution plus the space-time block (normal, spatial-normal
    magnitude, Rankine-Hugoniot residuals)."""

    nu: np.ndarray = None
    nu_y_norm: float = 0.0
    rh_residuals: dict = None

    def to_dict(self):
        d = super().to_dict()
        d["space_time"] = {
            "nu": [float(c) for c in np.atleast_1d(self.nu)],
            "nu_y_norm": self.nu_y_norm,
            "rh_residuals": dict(self.rh_residuals or {}),
        }
        return d


@dataclass(frozen=True)
class StaticReduction:
    """Equivalent stationary-shock problem: energy(original) =
    factor * energy(reduced) with the reduced flux and normal."""

    reduced_flux: FluxFunction
    nu_prime: np.ndarray
    factor: float


# --- physical-coordinate derivatives on the space-time cell ---------------

def _phys_diff(grid, values, j):
    """Derivative along physical coordinate j (j < N spatial, j = N
    time); chain rule through the frame, skipping zero components."""
    out = None
    for ax in range(grid.dim):
        c = grid.frame.basis[ax, j]
        if c == 0.0:
            continue
        term = c * diff_axis(grid, values, ax)
        out = term if out is None else out + term
    return out if out is not None else np.zeros_like(values)


def _phys_diff_t(grid, values, j):
    """Exact transpose of :func:`_phys_diff` on nodal values."""
    out = None
    for ax in range(grid.dim):
        c = grid.frame.basis[ax, j]
        if c == 0.0:
            continue
        term = c * diff_axis_transpose(grid, values, ax)
        out = term if out is None else out + term
    return out if out is not None else np.zeros_like(values)


def space_divergence(grid, w_values):
    """div_y of a (..., k, N) nodal tensor: (..., k)."""
    n_space = w_values.shape[-1]
    out = _phys_diff(grid, w_values[..., 0], 0)
    for j in range(1, n_space):
        out = out + _phys_diff(grid, w_values[..., j], j)
    return out


def time_derivative(grid, values):
    """d_s of a nodal array (time is the last physical coordinate)."""
    return _phys_diff(grid, values, grid.dim - 1)


def constraint_residual(grid, zeta_values, gamma_values):
    """Max norm of d_s zeta + div_y gamma (should be ~ round-off for
    every candidate produced by the potential parametrization)."""
    res = time_derivative(grid, zeta_values)
    for j in range(gamma_values.shape[-1]):
        res = res + _phys_diff(grid, gamma_values[..., j], j)
    return float(np.max(np.abs(res)))


# --- base fields -----------------------------------------------------------

def build_shock_grid(st_jump, n_normal, n_lateral=None, n_time=None):
    """Space-time cell grid: normal axis along the full space-time
    normal, remaining axes periodic.  The time-like axis count defaults
    to ``n_lateral``; pass ``n_time=1`` for the s-collapsed variant."""
    frame = build_frame(st_jump.nu)
    if n_time is None:
        n_time = n_lateral
    if n_time is None:
        raise ShapeMismatch("need n_time (or n_lateral) for the time axis")
    n_axes = (n_normal,)
    if frame.dim > 2:
        if n_lateral is None:
            raise ShapeMismatch("need n_lateral for spatial lateral axes")
        n_axes += (n_lateral,) * (frame.dim - 2)
    n_axes += (n_time,)
    return build_cell_grid(frame, n_normal, n_axes=n_axes)


def _ramp(t, center, width, kind):
    if kind == "smooth":
        return smoothstep((t - center) / width)
    if kind == "linear":
        return np.clip(0.5 + (t - center) / (2.0 * width), 0.0, 1.0)
    raise ShapeMismatch(f"unknown ramp kind {kind!r}")


def build_base_fields(st_jump, flux, grid, width=0.25, center=0.0,
                      ramp="smooth"):
    """Base pair (zeta0, gamma0) for a Rankine-Hugoniot shock.

    zeta0 sweeps u- to u+ with a clamped cubic step theta in the normal
    cell coordinate (exactly 0/1 outside +-width around ``center``);
    gamma0 = F(u-) + theta T - (nu_s/|nu_y|^2)(zeta0 - u-) (x) nu_y
    with the tangential flux discrepancy T = F(u+) - F(u-) +
    (nu_s/|nu_y|^2)(u+ - u-) (x) nu_y.  T . nu_y = 0 by RH, so
    nu_s zeta0 + gamma0 nu_y is constant in t and the constraint
    residual vanishes identically, node by node.
    """
    report = validate_rankine_hugoniot(st_jump, flux, 1e-8)
    if not report.passed:
        raise RankineHugoniotViolated(
            f"RH residuals exceed 1e-8: {report.entries}")
    if grid.dim != flux.N + 1:
        raise ShapeMismatch("grid must be the (N+1)-dimensional space-time cell")
    um, up = st_jump.u_minus, st_jump.u_plus
    ny, ns = st_jump.nu_y, st_jump.nu_s
    coef = ns / float(ny @ ny)
    du = up - um
    fm = flux.value(um)
    t_disc = flux.value(up) - fm + coef * np.multiply.outer(du, ny)
    theta = _ramp(grid.coords_normal(), center, width, ramp)
    zeta0 = um + theta[..., None] * du
    gamma0 = (fm + theta[..., None, None] * t_disc
              - coef * (zeta0 - um)[..., None] * ny)
    return BaseFields(zeta0=StateField(grid, zeta0),
                      gamma0=TensorField(grid, gamma0))


# --- energy assembly and gradient ------------------------------------------

class _ShockEvaluation:
    """One forward pass at a perturbation potential w: the induced
    state zeta, the entropy-variable gradients grad_y(grad_u eta(zeta))
    and the flux mismatch r = gamma - F(zeta).  They give the energy
    components A (entropy-gradient term) and B (flux mismatch) of
    L A + B / L, and :meth:`gradient` reuses them."""

    def __init__(self, grid, base, w_values, margin, flux, entropy):
        self.grid, self.w_values, self.margin = grid, w_values, margin
        self.flux, self.entropy = flux, entropy
        self.zeta = base.zeta0.values + space_divergence(grid, w_values)
        gamma = base.gamma0.values - time_derivative(grid, w_values)
        self.wt = wt = grid.node_weights()
        p = entropy.grad_eta(self.zeta)
        self.grads = [_phys_diff(grid, p, j) for j in range(flux.N)]
        self.A = float(sum(np.sum(wt[..., None] * np.square(gj))
                           for gj in self.grads))
        self.r = gamma - flux.value(self.zeta)
        self.B = float(np.sum(wt[..., None, None] * np.square(self.r)))

    def gradient(self, L):
        """d(L A + B / L)/dw, with the margin slabs pinned to zero."""
        grid, wt, n_space = self.grid, self.wt, self.flux.N
        # chain rule: through eta'' for the A term, through the flux
        # jacobian for the B term, then through the linear maps div_y
        # (columns of w) and -d_s via their exact transposes
        de_dp = None
        for j in range(n_space):
            term = _phys_diff_t(grid, 2.0 * L * wt[..., None] * self.grads[j], j)
            de_dp = term if de_dp is None else de_dp + term
        de_dzeta = np.einsum("...b,...ba->...a", de_dp,
                             self.entropy.hess_eta(self.zeta))
        wr = wt[..., None, None] * self.r
        de_dzeta -= (2.0 / L) * np.einsum("...ij,...ija->...a",
                                          wr, self.flux.jacobian(self.zeta))
        de_dgamma = (2.0 / L) * wr
        gw = np.empty_like(self.w_values)
        for j in range(n_space):
            gw[..., j] = _phys_diff_t(grid, de_dzeta, j)
        gw -= _phys_diff_t(grid, de_dgamma, grid.dim - 1)
        gw[:self.margin] = 0.0
        gw[-self.margin:] = 0.0
        return gw


def assemble_st_energy(pert, L, st_jump, flux, entropy, grid, base=None):
    """Energy L A + B / L of the candidate induced by the perturbation
    potential; base fields are rebuilt unless supplied."""
    if base is None:
        base = build_base_fields(st_jump, flux, grid)
    if pert.w.values.shape != grid.shape + (flux.k, flux.N):
        raise ShapeMismatch("perturbation shaped for a different cell")
    ev = _ShockEvaluation(grid, base, pert.w.values, pert.margin, flux, entropy)
    return EnergyBreakdown(grad_term=ev.A, potential_term=ev.B,
                           nonlocal_term=0.0, L=L,
                           total=L * ev.A + ev.B / L)


def st_energy_gradient(pert, L, st_jump, flux, entropy, grid, base=None):
    """Analytic gradient of the energy with respect to the nodal values
    of w (margin slabs pinned to zero)."""
    if base is None:
        base = build_base_fields(st_jump, flux, grid)
    ev = _ShockEvaluation(grid, base, pert.w.values, pert.margin, flux, entropy)
    return TensorField(grid, ev.gradient(L))


# --- minimization ----------------------------------------------------------

_MARGIN = 3


def _random_w(grid, k, n_space, index, scale, seed):
    rng = np.random.Generator(np.random.Philox(key=(seed, index)))
    noise = smooth_noise(grid, rng.standard_normal(grid.shape + (k, n_space)))
    noise *= scale
    noise[:_MARGIN] = 0.0
    noise[-_MARGIN:] = 0.0
    return noise


def compute_shock_cell_energy(st_jump, flux, entropy, grid, opts=None,
                              center=0.0):
    """Multistart minimization over (w, L); deterministic per seed.

    Starts: the unperturbed base fields plus ``n_random`` smoothed
    random perturbation potentials.  Each start runs the shared driver
    :func:`cellopt.minimize_cg`; the gradient already vanishes on the
    margin slabs, so the directions are the plain gradients.  Returns
    the induced state profile zeta of the best start with full
    diagnostics.
    """
    st_jump.check_state_length(flux.k)
    opts = opts or OptimizerOptions()
    base = build_base_fields(st_jump, flux, grid, center=center)
    k, n_space = flux.k, flux.N
    du = float(np.linalg.norm(st_jump.u_plus - st_jump.u_minus))
    # random w perturbs zeta through a derivative, so scale by a grid
    # spacing to get O(amplitude * |du|) state excursions
    scale = opts.amplitude * du * grid.spacing(0)
    starts = [np.zeros(grid.shape + (k, n_space))]
    starts += [_random_w(grid, k, n_space, i, scale, opts.seed)
               for i in range(opts.n_random)]
    lmin = resolved_scale_floor(grid)
    gtol = opts.gtol_scale * (1.0 + du)

    def evaluate(w):
        return _ShockEvaluation(grid, base, w, _MARGIN, flux, entropy)

    def run(w0):
        return minimize_cg(w0, evaluate, lambda g, w, L: g,
                           lambda w, step: w + step, lmin, gtol, opts)

    (w, L, _, it, converged), energies = multistart(starts, run, opts)
    pert = PotentialPerturbation(w=TensorField(grid, w), margin=_MARGIN)
    breakdown = assemble_st_energy(pert, L, st_jump, flux, entropy, grid,
                                   base=base)
    zeta = base.zeta0.values + space_divergence(grid, w)
    rh = validate_rankine_hugoniot(st_jump, flux, 1e-8)
    return ShockSolution(
        profile=StateField(grid, zeta), L_star=L, energy=breakdown,
        bc="space_time", iterations=it, converged=converged,
        starts=energies, seed=opts.seed,
        nu=st_jump.nu, nu_y_norm=float(np.linalg.norm(st_jump.nu_y)),
        rh_residuals={name: val for name, (val, _) in rh.entries.items()})


# --- static-frame reduction ------------------------------------------------

def reduce_to_static_frame(st_jump, flux):
    """Stationary-shock equivalent: shear the flux so the reduced shock
    does not move, rotate the normal into space, record the |nu_y|
    energy factor."""
    ny = np.atleast_1d(st_jump.nu_y)
    nn = float(np.linalg.norm(ny))
    if nn < 1e-14:
        raise DegenerateNormal("nu_y = 0 admits no static reduction")
    coef = st_jump.nu_s / (nn * nn)
    k, n_space = flux.k, flux.N
    shear = coef * np.multiply.outer(np.eye(k), ny)  # (k, k, N)
    shear_jac = np.transpose(shear, (0, 2, 1))       # (k, N, k)

    def value(u):
        u = np.asarray(u, dtype=np.float64)
        return flux.value(u) + np.einsum("...a,iaj->...ij", u, shear)

    def jacobian(u):
        u = np.asarray(u, dtype=np.float64)
        return flux.jacobian(u) + np.broadcast_to(
            shear_jac, u.shape[:-1] + (k, n_space, k))

    return StaticReduction(
        reduced_flux=FluxFunction(k=k, N=n_space, value=value,
                                  jacobian=jacobian),
        nu_prime=np.concatenate([ny / nn, [0.0]]),
        factor=nn)


# --- scalar 1D oracle -------------------------------------------------------

def viscous_profile_oracle_1d(u_minus, u_plus, flux, entropy, samples=10000):
    """Scale-relaxed lower envelope of the scalar 1D shock cell energy.

    For a stationary scalar shock the optimal pair has gamma pinned at
    F(u-), and minimizing over L turns the energy into the path
    integral of 2 eta''(s) |F(s) - F(u-)| along the monotone sweep from
    u- to u+ (the monotone path is the unique candidate in one state
    dimension).  Dense trapezoid quadrature.
    """
    if flux.k != 1 or flux.N != 1:
        raise NonScalar("the 1D oracle requires a scalar flux (k = N = 1)")
    um = float(np.asarray(u_minus).reshape(()))
    up = float(np.asarray(u_plus).reshape(()))
    if um == up:
        return 0.0
    s = np.linspace(um, up, samples)
    states = s[:, None]
    f_vals = flux.value(states)[..., 0, 0]
    f0 = float(flux.value(np.array([um]))[0, 0])
    eta2 = entropy.hess_eta(states)[..., 0, 0]
    return float(abs(np.trapezoid(2.0 * eta2 * np.abs(f_vals - f0), s)))
