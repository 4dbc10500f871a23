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

The energy is minimized over w at L = 4h, the resolved-scale floor, by
the conjugate-gradient driver of the cell problems, with directions
preconditioned by the inverse of the energy's Gauss-Newton operator in
w, the flux jacobian replaced by its lateral mean at each normal node.
That operator commutes with lateral translations, so it is diagonal in
the lateral Fourier modes; in each mode it is a band of half-width 4
on the interior normal nodes, real symmetric after the similarity
diag(i^t), and one banded solve takes the bands of all modes.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .cellopt import (CellSolution, EnergyBreakdown, OptimizerOptions,
                      multistart, smoothstep)
from .errors import (BadParams, DegenerateNormal, NonScalar,
                     RankineHugoniotViolated, ShapeMismatch)
from .grid import (CellGrid, StateField, TensorField, apply_nodal,
                   build_frame, cached, check_normal, derivatives,
                   lateral_modes)
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


def build_base_fields(st_jump, flux, grid, center=0.0):
    """Base pair (zeta0, gamma0) for a Rankine-Hugoniot shock.

    zeta0 sweeps u- to u+ with the clamped cubic step theta =
    smoothstep((t - center) / 0.25) in the normal cell coordinate t
    (exactly 0/1 outside +-0.25 around ``center``);
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
    theta = smoothstep((grid.coords_normal() - center) / 0.25)
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

    @cached_property
    def jac(self):
        """dF_ij/du_a at zeta, (..., k, N, k): the gradient and the
        preconditioner share it."""
        return self.flux.jacobian(self.zeta)

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
        de_dzeta -= np.einsum("...ij,...ija->...a", de_dgamma, self.jac)
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

class _LateralModes:
    """What :func:`_lateral_mode_inverse` keeps per node counts, frame
    and state count k: the lateral Fourier modes grouped by their
    central-difference symbols, every group's entropy band, the
    coefficients of its flux band, and the gathers between the modes
    and the band's right-hand sides.

    - A mode's symbol is sigma from :func:`grid.lateral_modes`, sigma_x
      = sin(2 pi m_x / n_x) / h_x on lateral axis x.  Modes m and n/2 - m
      (mod n) of an axis with even n have the same symbol, so they share
      a group, which takes the symbol of its first mode.  A group's modes
      are the right-hand-side slots of its band; slots past the group's
      size repeat one of its modes, and their solutions are not read.
    - ``entropy`` holds the Gauss-Newton operator of the entropy term,
      2 cross sum_j (d_j d_l)^H W (d_j d_l) for column l of w and the
      quadratic entropy of every catalog model (eta'' = I), in each
      group's mode on the interior normal nodes, after the similarity
      S = diag(i^t) that makes it real symmetric: LAPACK lower band rows,
      row o holding the entries (t, t + o), shape (5, 1, N, groups,
      interior nodes).
    - ``flux`` maps the per-node quantities (sum_ij Fbar_ija^2, Fbar_ala,
      1) at the normal nodes t - 1, t, t + 1 of band column t to L times
      band rows 0, 1 and 2 of the flux term: shape (N, 3 groups, 9).
    - The right-hand sides are (slot, real part) columns of (a, l, group,
      node) rows, with shape ``shape``: ``forward`` gathers them from
      the float view of the modes (node, mode, a, l, real part) and
      ``forward_sign`` turns that into S^H times the modes.  Both are
      traced once: S^H, the grouping and the layout applied to the
      float labels 1, 2, ... leave each entry its signed source label.
      ``back`` and ``back_sign``, their transpose taken at each mode's
      own slot, map the solutions to S times them.
    """

    def __init__(self, grid, k):
        # imported here: scipy.sparse loads scipy.linalg, which every
        # import of the package would otherwise pay
        import scipy.sparse as sp
        _, freq, sigma = lateral_modes(grid)
        lat = np.array(grid.n_axes[1:])[:, None]
        m = freq % lat
        canon = np.where(lat % 2 == 0, np.minimum(m, (lat // 2 - m) % lat), m)
        group = np.unique(canon.T, axis=0, return_inverse=True)[1].ravel()
        n_modes = group.size
        counts = np.bincount(group)
        first = np.cumsum(counts) - counts
        order = np.argsort(group, kind="stable")
        slot = np.empty(n_modes, dtype=np.intp)
        slot[order] = np.arange(n_modes) - np.repeat(first, counts)
        take = np.repeat(order[first][:, None], counts.max(), axis=1)
        take[group, slot] = np.arange(n_modes)
        sigma = sigma[:, order[first]].T

        n, h = grid.n_axes[0], grid.spacing(0)
        n_int, n_space, n_groups = n - 2 * _MARGIN, grid.dim - 1, counts.size
        self.shape = (counts.max(), 2, k, n_space, n_groups, n_int)
        # trace the gathers: the float view of the modes labelled 1, 2,
        # ..., then the phase S^H = diag((-i)^t), the grouping and the
        # band layout; each entry then holds its source label, signed
        view = (n_int, n_modes, k, n_space, 2)
        size = math.prod(view)
        z = np.arange(1.0, size + 1).view(np.complex128).reshape(view[:-1])
        z *= np.array([1, -1j, -1, 1j])[np.arange(n_int) % 4, None, None, None]
        z = z[:, take].transpose(2, 3, 4, 1, 0)
        z = np.stack([z.real, z.imag], axis=1).reshape(2 * counts.max(), -1)
        self.forward = np.abs(z).astype(np.intp) - 1
        self.forward_sign = np.sign(z)
        # the transpose, read at each mode's own slot, not at a repeat
        own = np.broadcast_to((np.arange(counts.max())[:, None] < counts)[
            :, None, None, None, :, None], self.shape).reshape(z.shape)
        back, back_sign = np.empty(size, dtype=np.intp), np.empty(size)
        back[self.forward[own]] = np.flatnonzero(own)
        back_sign[self.forward[own]] = self.forward_sign[own]
        self.back, self.back_sign = back.reshape(view), back_sign.reshape(view)

        cross = grid.lateral_measure
        wn = grid.axis_weights(0)
        # each physical derivative in a group's mode: beta_j D + i lam_j
        beta = grid.frame.basis[0]
        lam = sigma @ grid.frame.basis[1:]
        d0 = derivatives(grid).axes[0]
        eye = sp.eye_array(n)
        weight = sp.diags_array(2.0 * cross * wn)
        self.entropy = np.zeros((5, 1, n_space, n_groups, n_int))
        for g in range(n_groups):
            dj = [beta[j] * d0 + 1j * lam[g, j] * eye for j in range(n_space)]
            for l in range(n_space):
                dl = dj[l][:, _MARGIN:n - _MARGIN]
                band = sum((d @ dl).conj().T @ weight @ (d @ dl) for d in dj)
                for o in range(5):
                    self.entropy[o, 0, l, g, :n_int - o] = (
                        1j ** o * band.diagonal(o)).real
        # q0, q1 and q2 of each column l as forms in (P2, P1, 1), (N,
        # groups, 3); the band reaches the nodes 2 to n - 3, whose
        # trapezoid weight is h
        bl, ll, ls = np.broadcast_arrays(beta[:n_space, None],
                                         lam[:, :n_space].T, lam[:, n_space])
        bs = np.full_like(bl, beta[n_space])
        q0 = np.stack([bl * bl, 2.0 * bl * bs, bs * bs], axis=-1) / (4 * h * h)
        q1 = np.stack([bl * ll, bl * ls + bs * ll, bs * ls], axis=-1) / (2 * h)
        q2 = np.stack([ll * ll, 2.0 * ll * ls, ls * ls], axis=-1)
        self.flux = np.zeros((n_space, 3, n_groups, 3, 3))
        self.flux[:, 0, :, :, 0] = self.flux[:, 0, :, :, 2] = q0
        self.flux[:, 0, :, :, 1] = q2
        self.flux[:, 1, :, :, 1] = self.flux[:, 1, :, :, 2] = q1
        self.flux[:, 2, :, :, 2] = q0
        self.flux = (2.0 * cross * h * self.flux).reshape(n_space, -1, 9)


_mode_cache = {}


def _lateral_mode_inverse(grid, g, ev, L):
    """Apply the inverse of the shock energy's Gauss-Newton operator in
    w at scale L to a gradient in w, with the flux jacobian replaced by
    its lateral mean Fbar_ija = dF_ij/du_a at each normal node; the
    margin slabs stay zero.

    That operator does not change under a lateral translation, so it is
    diagonal in the lateral Fourier modes.  In a mode with symbol sigma
    each physical derivative d_x is beta_x D + i lam_x, with the normal
    derivative D.  Column l of component a of w drives the mismatch r_ij
    through c_ij D + i s_ij, where c and s are the coefficients of
    delta_ia delta_jl d_s + Fbar_ija d_l; its flux term is
    (2 cross / L) (D^T q0 D + i (D^T q1 - q1 D) + q2), with q0 =
    sum_ij c^2 w, q1 = sum_ij c s w and q2 = sum_ij s^2 w for the normal
    weights w, so it needs only sum_ij Fbar_ija^2 and Fbar_ala per node.
    With L times the entropy band (:class:`_LateralModes`), that is a
    band of half-width 4 on the interior normal nodes, real symmetric
    after S = diag(i^t).  The components of w keep only their diagonal
    blocks (k > 1 states, N > 1 space dimensions).  Every (component,
    symbol group) is one block of one band, the real and imaginary parts
    of the group's modes are its right-hand sides, and one pbsv call
    solves them all.
    """
    # imported here: importing scipy.linalg takes 80 to 100 ms, which
    # every import of the package would pay
    from scipy.linalg.lapack import dpbsv
    k, n_space = ev.flux.k, ev.flux.N
    modes = cached(_mode_cache, (grid.n_axes, grid.frame.basis.tobytes(), k),
                   lambda: _LateralModes(grid, k))
    n, m = grid.n_axes[0], _MARGIN
    n_int, n_groups = n - 2 * m, modes.shape[4]
    lat_axes = tuple(range(1, grid.dim))

    # the band, its lower LAPACK rows fastest: (5, k, N, groups, nodes)
    band = np.empty(modes.shape[2:] + (5,)).transpose(4, 0, 1, 2, 3)
    np.multiply(modes.entropy, L, out=band)
    fbar = ev.jac.sum(axis=lat_axes) / math.prod(grid.n_axes[1:])
    v = np.empty((k, n_space, 3, n))
    v[:, :, 0] = np.einsum("nija,nija->an", fbar, fbar)[:, None]
    v[:, :, 1] = np.einsum("nala->aln", fbar)
    v[:, :, 2] = 1.0
    near = np.stack([v[..., m - 1 + i:n - m - 1 + i] for i in range(3)],
                    axis=-2).reshape(k, n_space, 9, n_int)
    flux = (modes.flux / L) @ near
    band[:3] += flux.reshape(k, n_space, 3, n_groups, n_int).transpose(
        2, 0, 1, 3, 4)
    # the entries that would reach into the next block
    band[1, ..., -1] = 0.0
    band[2, ..., -2:] = 0.0

    ghat = scipy.fft.rfftn(g[m:n - m], axes=lat_axes)
    rhs = ghat.view(np.float64).ravel()[modes.forward]
    rhs *= modes.forward_sign
    x = dpbsv(band.reshape(5, -1), rhs.T, lower=1, overwrite_ab=True,
              overwrite_b=True)[1]
    xhat = x.T.ravel()[modes.back]
    xhat *= modes.back_sign
    p = np.zeros_like(g)
    p[m:n - m] = scipy.fft.irfftn(xhat.view(np.complex128).reshape(ghat.shape),
                                  s=grid.n_axes[1:], axes=lat_axes)
    return p


def compute_shock_cell_energy(st_jump, flux, entropy, grid, opts=None,
                              center=0.0):
    """Minimization over w at L = 4h from the unperturbed base, w = 0.

    The start runs through :func:`cellopt.multistart`, which sets the
    tolerances, with L on the floor for the whole run (``on_floor``),
    and directions preconditioned by :func:`_lateral_mode_inverse`: the
    inverse Gauss-Newton operator in w at that scale, with the
    lateral mean of the iterate's flux jacobian, one band per lateral
    Fourier mode.  ``opts.strategies``, ``n_random`` and ``amplitude``
    concern the cell only.  Returns the profile zeta with diagnostics.
    """
    st_jump.check_state_length(flux.k)
    if st_jump.nu_y.shape != (flux.N,):
        raise BadParams(f"nu_y of length {st_jump.nu_y.size} does not fit a "
                        f"flux with N = {flux.N}")
    check_normal(grid, st_jump.nu)
    opts = opts or OptimizerOptions()
    base = build_base_fields(st_jump, flux, grid, center=center)
    du = float(np.linalg.norm(st_jump.u_plus - st_jump.u_minus))

    def evaluate(w):
        return _ShockEvaluation(grid, base, w, flux, entropy)

    def precondition(g, ev, L):
        return _lateral_mode_inverse(grid, g, ev, L)

    # one start: random starts of every tested shock ended within 3.1e-10
    # relative of w = 0, and a linear flux makes E convex in w
    (_, L, _, it, converged, ev), energies = multistart(
        [np.zeros(grid.shape + (flux.k, flux.N))], evaluate, precondition,
        np.add, grid, du, opts, on_floor=True)
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

def viscous_profile_oracle_1d(u_minus, u_plus, flux, entropy):
    """Scale-relaxed lower envelope of the scalar 1D shock cell energy.

    For a stationary scalar shock the optimal pair has gamma pinned at
    F(u-), and minimizing over L turns the energy into the path
    integral of 2 eta''(s) |F(s) - F(u-)| along the monotone sweep from
    u- to u+ (the monotone path is the unique candidate in one state
    dimension).  Dense trapezoid quadrature on 10000 samples.
    """
    if flux.k != 1 or flux.N != 1:
        raise NonScalar("the 1D oracle requires a scalar flux (k = N = 1)")
    um = float(np.asarray(u_minus).reshape(()))
    up = float(np.asarray(u_plus).reshape(()))
    if um == up:
        return 0.0
    s = np.linspace(um, up, 10000)
    states = s[:, None]
    f_vals = flux.value(states)[..., 0, 0]
    f0 = float(flux.value(np.array([um]))[0, 0])
    eta2 = entropy.hess_eta(states)[..., 0, 0]
    return float(abs(np.trapezoid(2.0 * eta2 * np.abs(f_vals - f0), s)))
