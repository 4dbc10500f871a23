"""Space-time shock-layer cell energies via the divergence-constrained
potential formulation, the static-frame reduction, and the |nu_y|
scaling identity.

The admissible pairs (zeta, gamma) must satisfy the conservation
constraint d_s zeta + div_y gamma = 0.  Instead of enforcing it with
multipliers, candidates are parametrized by a potential perturbation w:

    zeta = zeta0 + div_y w,    gamma = gamma0 - d_s w,

whose induced pair satisfies the constraint identically because the
discrete physical derivatives commute: they are the grid's derivative
matrices (:func:`grid.derivatives`), each a frame combination of
per-axis derivatives acting along different axes.  The base pair
(zeta0, gamma0) is a smoothed sweep between the two shock states whose
constraint residual vanishes by the Rankine-Hugoniot relation, up to
round-off; only w is ever stored, the unbounded primitive it
represents is never materialized.

The energy density L |grad_y(grad_u eta(zeta))|^2 + (1/L)|gamma -
F(zeta)|^2 is assembled nodally (trapezoid normal axis, uniform
periodic axes); target tolerances here are in the percent range, so
nodal second-order quadrature suffices.

The energy is minimized over (w, L) by the conjugate-gradient driver of
the cell problems, with directions preconditioned across the layer by
the normal operator 2 cross h (L K_h^2 + K_h / L), which matches the
L d^4 + d^2 / L behaviour of the Hessian in w, by two tridiagonal
solves.
"""

from dataclasses import dataclass

import numpy as np

from .cellopt import (CellSolution, EnergyBreakdown, OptimizerOptions,
                      multistart, normal_tridiagonal_inverse, smoothstep,
                      strategy_starts)
from .errors import (DegenerateNormal, NonScalar, RankineHugoniotViolated,
                     ShapeMismatch)
from .grid import (CellGrid, StateField, TensorField, apply_nodal,
                   build_frame, check_normal, derivatives)
from .model import FluxFunction, validate_rankine_hugoniot


# --- results and containers -----------------------------------------------

# end slabs of the normal axis on which the perturbation potential w
# vanishes
_MARGIN = 3


@dataclass
class BaseFields:
    """Constraint-satisfying base pair pinned to (u-, F(u-)) and
    (u+, F(u+)) on the normal end slabs."""

    zeta0: StateField
    gamma0: TensorField


@dataclass
class PotentialPerturbation:
    """Perturbation potential w, lateral/time periodic and compactly
    supported in the normal cell coordinate (zero on the ``_MARGIN`` end
    slabs, which keeps the induced zeta pinned on the outer slabs)."""

    w: TensorField

    def __post_init__(self):
        v = self.w.values
        # a cell grid has at least 8 normal slabs, so interior ones remain
        if np.any(v[:_MARGIN] != 0.0) or np.any(v[-_MARGIN:] != 0.0):
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
    time) of a nodal array."""
    return apply_nodal(derivatives(grid).d[j], values)


def space_divergence(grid, w_values):
    """div_y of a (..., k, N) nodal tensor: (..., k)."""
    return sum(_phys_diff(grid, w_values[..., j], j)
               for j in range(w_values.shape[-1]))


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
    return CellGrid(frame=frame, n_axes=n_axes)


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

    def __init__(self, grid, base, w_values, flux, entropy):
        self.grid, self.w_values = grid, w_values
        self.flux, self.entropy = flux, entropy
        self.zeta = base.zeta0.values + space_divergence(grid, w_values)
        gamma = base.gamma0.values - time_derivative(grid, w_values)
        p = entropy.grad_eta(self.zeta)
        self.grads = [_phys_diff(grid, p, j) for j in range(flux.N)]
        wt = grid.node_weights()[..., None]
        self.A = float(sum(np.vdot(gj, wt * gj) for gj in self.grads))
        self.r = gamma - flux.value(self.zeta)
        self.B = float(np.vdot(self.r, wt[..., None] * self.r))

    def gradient(self, L):
        """d(L A + B / L)/dw, with the margin slabs pinned to zero."""
        grid, n_space = self.grid, self.flux.N
        ops_t = derivatives(grid).dt
        wt = grid.node_weights()[..., None]
        # chain rule: through eta'' for the A term, through the flux
        # jacobian for the B term, then through the linear maps div_y
        # (columns of w) and -d_s via their transposes
        de_dp = sum(apply_nodal(ops_t[j], (2.0 * L) * wt * self.grads[j])
                    for j in range(n_space))
        de_dzeta = np.einsum("...b,...ba->...a", de_dp,
                             self.entropy.hess_eta(self.zeta))
        de_dgamma = (2.0 / L) * wt[..., None] * self.r
        de_dzeta -= np.einsum("...ij,...ija->...a", de_dgamma,
                              self.flux.jacobian(self.zeta))
        gw = np.empty_like(self.w_values)
        for j in range(n_space):
            gw[..., j] = apply_nodal(ops_t[j], de_dzeta)
        gw -= apply_nodal(ops_t[grid.dim - 1], de_dgamma)
        gw[:_MARGIN] = 0.0
        gw[-_MARGIN:] = 0.0
        return gw


def _evaluate(pert, st_jump, flux, entropy, grid, base):
    """Shape check, base fields unless supplied, and the forward pass."""
    if pert.w.values.shape != grid.shape + (flux.k, flux.N):
        raise ShapeMismatch("perturbation shaped for a different cell")
    if base is None:
        base = build_base_fields(st_jump, flux, grid)
    return _ShockEvaluation(grid, base, pert.w.values, flux, entropy)


def assemble_st_energy(pert, L, st_jump, flux, entropy, grid, base=None):
    """Energy L A + B / L of the candidate induced by the perturbation
    potential; base fields are rebuilt unless supplied."""
    ev = _evaluate(pert, st_jump, flux, entropy, grid, base)
    return EnergyBreakdown.at_scale(ev.A, ev.B, 0.0, L)


def st_energy_gradient(pert, L, st_jump, flux, entropy, grid, base=None):
    """Analytic gradient of the energy with respect to the nodal values
    of w (margin slabs pinned to zero)."""
    ev = _evaluate(pert, st_jump, flux, entropy, grid, base)
    return TensorField(grid, ev.gradient(L))


# --- minimization ----------------------------------------------------------

def _normal_inverse(grid, g, L):
    """Apply the inverse of 2 cross h (L K_h^2 + K_h / L) along the
    normal axis to a gradient in w; the margin slabs stay zero.

    K_h = T / h^2 with T = tridiag(-1, 2, -1) is the Dirichlet second
    difference on the nodes between the margin slabs, and cross the
    product of the lateral spacings.  w enters the entropy-gradient
    term through two normal derivatives and the flux mismatch through
    one, so across the layer the Hessian in w behaves like L d^4 + d^2
    / L; in the sine basis this matrix has the eigenvalues 2 cross h
    lambda (L lambda + 1 / L) of that operator, with lambda those of
    K_h.  It equals T (a T + b I) with a = 2 cross L / h^3 and b =
    2 cross / (L h), so it is applied as two tridiagonal solves.
    Lateral axes keep the nodal metric.
    """
    h = grid.spacing(0)
    cross = float(np.prod([grid.spacing(ax) for ax in range(1, grid.dim)]))
    a, b = 2.0 * cross * L / h ** 3, 2.0 * cross / (L * h)
    return normal_tridiagonal_inverse(g, [(2.0, -1.0), (2.0 * a + b, -a)],
                                      _MARGIN)


def compute_shock_cell_energy(st_jump, flux, entropy, grid, opts=None,
                              center=0.0):
    """Multistart minimization over (w, L); deterministic per seed.

    Starts come from ``opts.strategies`` by
    :func:`cellopt.strategy_starts`: the unperturbed base fields (w = 0)
    and smoothed random perturbation potentials.  They run through the
    shared :func:`cellopt.multistart`, with directions preconditioned
    across the layer by :func:`_normal_inverse`, the inverse of the
    normal fourth- plus second-difference operator at the current
    scale.  Returns the induced state profile zeta of the best start
    with full diagnostics.
    """
    st_jump.check_state_length(flux.k)
    check_normal(grid, st_jump.nu)
    opts = opts or OptimizerOptions()
    base = build_base_fields(st_jump, flux, grid, center=center)
    shape = (flux.k, flux.N)
    du = float(np.linalg.norm(st_jump.u_plus - st_jump.u_minus))
    # random w perturbs zeta through a derivative, so scale by a grid
    # spacing to get O(amplitude * |du|) state excursions
    scale = opts.amplitude * du * grid.spacing(0)

    def perturb(noise):
        noise *= scale
        noise[:_MARGIN] = 0.0
        noise[-_MARGIN:] = 0.0
        return noise

    starts = [w for s in opts.strategies for w in strategy_starts(
        s, grid, shape, opts, lambda: np.zeros(grid.shape + shape), perturb)]

    def evaluate(w):
        return _ShockEvaluation(grid, base, w, flux, entropy)

    def precondition(g, w, L):
        return _normal_inverse(grid, g, L)

    (_, L, _, it, converged, ev), energies = multistart(
        starts, evaluate, precondition, np.add, grid, du, opts)
    rh = validate_rankine_hugoniot(st_jump, flux, 1e-8)
    return ShockSolution(
        profile=StateField(grid, ev.zeta), L_star=L,
        energy=EnergyBreakdown.at_scale(ev.A, ev.B, 0.0, L),
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
