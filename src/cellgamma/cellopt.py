"""Discrete cell energy: assembly, analytic gradient, and minimization
over profiles, the scale L, and the constraint set.

Assembly convention: the local terms are integrated exactly for the
multilinear interpolant of the nodal profile.  The gradient term
int |grad zeta|^2 (the Dirichlet energy of every catalog model) is the
Q1 stiffness form <zeta, K zeta>; the potential int W(zeta) uses
tensor-product Gauss quadrature, 3 points per axis, exact through
degree 5 per axis, which covers every catalog potential.  Both apply
their element operators one axis at a time (sum factorization): K as
1D stencils, the quadrature as interpolation to the Gauss points along
each axis in turn, with its exact transpose for the nodal gradient.
The discrete energy therefore IS the continuum energy of an admissible
profile, so continuum lower bounds (e.g. the equal-partition bound
int 2 sqrt(W) for the scalar double well) hold for the computed minima
by construction.  The nonlocal term |grad H|^2 lives on the nodal grid
calculus of the poisson module, whose variational structure makes its
adjoint gradient formula exact.  :class:`CellEvaluation` holds all
three terms at one profile; the optimizer and the Gamma sweep's full
energy both use it.
"""

import math
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (BadParams, BadStrategy, DegenerateScale, InadmissibleProfile,
                     NotConverged)
from .grid import (StateField, TensorField, cached, check_normal, smooth_noise,
                   work_area)
from .model import check_count
from .poisson import BcVariant, nonlocal_energy

_GAUSS_X = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0
# the left and right hat functions of an element at its Gauss points
_HAT = np.stack([1.0 - _GAUSS_X, _GAUSS_X])


# --- results --------------------------------------------------------------

@dataclass
class EnergyBreakdown:
    grad_term: float       # int |grad zeta|^2
    potential_term: float  # int W(zeta)
    nonlocal_term: float   # int |grad H|^2
    L: float
    total: float

    @classmethod
    def at_scale(cls, A, potential, nonlocal_term, L):
        """The breakdown of L A + (potential + nonlocal_term) / L, the
        energy of every model at scale L from its parts."""
        return cls(grad_term=float(A), potential_term=float(potential),
                   nonlocal_term=float(nonlocal_term), L=float(L),
                   total=float(L * A + (potential + nonlocal_term) / L))

    def to_dict(self):
        return asdict(self)


@dataclass
class CellSolution:
    profile: StateField
    L_star: float
    energy: EnergyBreakdown
    bc: str
    iterations: int
    converged: bool
    starts: list
    seed: int

    def to_dict(self):
        return {
            "L_star": self.L_star,
            "energy": self.energy.to_dict(),
            "bc": self.bc,
            "iterations": self.iterations,
            "converged": self.converged,
            "starts": list(self.starts),
            "seed": self.seed,
        }


@dataclass
class OptimizerOptions:
    seed: int = 0
    max_iter: int = 5000
    etol: float = 1e-8
    gtol_scale: float = 1e-6
    n_random: int = 4
    amplitude: float = 0.1   # relative to |phi+ - phi-|
    strategies: tuple = ("one_dimensional_tanh", "random_perturbed")
    require_converged: bool = False

    def __post_init__(self):
        if isinstance(self.strategies, str):
            raise BadParams("optimizer strategies must be a sequence of names, "
                            f"got the string {self.strategies!r}")
        for name in ("etol", "gtol_scale", "amplitude"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise BadParams(f"optimizer {name} must be finite and >= 0, got {value!r}")
        for name, low in (("max_iter", 1), ("n_random", 0), ("seed", 0)):
            check_count(f"optimizer {name}", getattr(self, name), low)


# starts whose energy is within this relative tie of the lowest count as
# equal, so the multistart picks the first of them
_TIE_REL = 1e-6


# --- admissibility --------------------------------------------------------

def _check_admissible(profile, jump, specs):
    v = profile.values
    if v.shape[-1] != specs.m:
        raise InadmissibleProfile("profile state dimension does not match model")
    if not (np.max(np.abs(v[0] - jump.phi_minus)) <= 1e-12
            and np.max(np.abs(v[-1] - jump.phi_plus)) <= 1e-12):
        raise InadmissibleProfile("end slabs must carry phi- and phi+ exactly")
    if specs.constraint.kind == "unit_sphere":
        norms = np.linalg.norm(v, axis=-1)
        if not np.max(np.abs(norms - 1.0)) <= 1e-10:  # also catches NaN
            raise InadmissibleProfile("profile leaves the unit sphere")


# --- energy assembly ------------------------------------------------------

def _axis_slices(axis):
    """Index tuples that, along one array axis, drop the last entry,
    drop the first, keep only the first and keep only the last."""
    head = (slice(None),) * axis
    return tuple(head + (s,) for s in (slice(None, -1), slice(1, None),
                                       slice(None, 1), slice(-1, None)))


def _tridiagonal(values, axis, diag, off):
    """Apply the symmetric tridiagonal stencil (off, diag, off) along one
    grid axis of a nodal array: periodic on lateral axes, with halved
    end-row diagonals on the normal axis."""
    if axis > 0:
        # the neighbour sum v[j - 1] + v[j + 1], wrapping, by slices
        drop_last, drop_first, first, last = _axis_slices(axis)
        nbr = np.empty_like(values)
        nbr[drop_first] = values[drop_last]
        nbr[first] = values[last]
        nbr[drop_last] += values[drop_first]
        nbr[last] += values[first]
        nbr *= off
        out = diag * values
        out += nbr
        return out
    out = diag * values
    out[0] *= 0.5
    out[-1] *= 0.5
    out[1:] += off * values[:-1]
    out[:-1] += off * values[1:]
    return out


def _stiffness(grid, values):
    """K zeta, where <zeta, K zeta> = int |grad zeta|^2 exactly for the
    multilinear interpolant: K is the sum over axes of the 1D
    linear-element stiffness along that axis times the 1D consistent
    mass along the others.  The frame is orthonormal, so the gradient
    norm is the same in frame coordinates."""
    out = 0.0
    for ax in range(grid.dim):
        t = values
        for b in range(grid.dim):
            h = grid.spacing(b)
            if b == ax:
                t = _tridiagonal(t, b, 2.0 / h, -1.0 / h)
            else:
                t = _tridiagonal(t, b, 4.0 * h / 6.0, h / 6.0)
        out = out + t
    return out


class _GaussWorkArea:
    """The Gauss-point arrays of one evaluation and its gradient for
    given node counts and state dimension m.

    - ``stages[k]`` is the output of :func:`_to_gauss`'s step k, with
      the Gauss axes of the last k + 1 grid axes in front; the last
      stage is ``z``, the interpolant at the Gauss points.  The earlier
      stages are scratch, so :func:`_from_gauss` writes its steps there.
    - ``tmp`` (flat, z's size) holds the one temporary of each step of
      either pass, and W's values between them.
    - ``coeff`` holds W's gradient coefficients at the Gauss points and
      ``nodal`` the nodal gradient they scatter to.
    - ``owner`` is the token of the evaluation whose z the work area
      holds: every evaluation interpolates into the same arrays.
    """

    def __init__(self, grid, m):
        n_axes, d = grid.n_axes, grid.dim
        elements = (n_axes[0] - 1,) + n_axes[1:]
        self.stages = [np.empty((3,) * (k + 1) + n_axes[:d - 1 - k]
                                + elements[d - 1 - k:] + (m,)) for k in range(d)]
        self.z = self.stages[-1]
        self.tmp = np.empty(self.z.size)
        self.coeff = np.empty_like(self.z)
        self.nodal = np.empty(n_axes + (m,))
        self.owner = None

    def scratch(self, shape):
        """A view of the temporary with the given shape."""
        return self.tmp[:math.prod(shape)].reshape(shape)


def _gauss_work_area(grid, m):
    """This thread's Gauss-point work area (:func:`grid.work_area`),
    replaced when the node counts or the state dimension change."""
    return work_area("gauss", (grid.n_axes, m), lambda: _GaussWorkArea(grid, m))


def _to_gauss(grid, values, work):
    """The multilinear interpolant of nodal values at the 3 Gauss points
    per element along every axis, interpolated one axis at a time into
    ``work.stages``: shape (3,) * d + element shape + (m,), Gauss axes
    in grid-axis order.  The normal axis has n - 1 elements, a lateral
    axis n (the last wraps)."""
    # each step puts its Gauss axis in front, so taking the grid axes
    # last to first keeps the one being replaced at array position d - 1
    drop_last, drop_first, first, last = _axis_slices(grid.dim - 1)
    z = values
    for ax, out in zip(reversed(range(grid.dim)), work.stages):
        hat = _HAT.reshape((2, 3) + (1,) * z.ndim)
        tmp = work.scratch(out.shape)
        if ax == 0:
            np.multiply(hat[0], z[drop_last], out=out)
            np.multiply(hat[1], z[drop_first], out=tmp)
        else:
            # hat[1] times z shifted by one element, wrapping
            np.multiply(hat[0], z, out=out)
            np.multiply(hat[1], z[drop_first], out=tmp[(slice(None),) + drop_last])
            np.multiply(hat[1], z[first], out=tmp[(slice(None),) + last])
        z = np.add(out, tmp, out=out)
    return z


def _from_gauss(grid, coeff, work):
    """Exact transpose of :func:`_to_gauss`: contract each Gauss axis
    with the two hat rows (one product into ``work.tmp``) and add the
    results to the element's nodes, into the scratch stages of ``work``
    and last into ``work.nodal``, which is returned."""
    drop_last, drop_first, first, last = _axis_slices(grid.dim - 1)
    interior = drop_last[:-1] + (slice(1, -1),)  # all but both end nodes
    for ax, out in enumerate(work.stages[-2::-1] + [work.nodal]):
        lo, hi = np.dot(_HAT, coeff.reshape(3, -1),
                        out=work.scratch((2, coeff.size // 3)))
        lo, hi = lo.reshape(coeff.shape[1:]), hi.reshape(coeff.shape[1:])
        if ax == 0:
            out[first] = lo[first]
            np.add(lo[drop_first], hi[drop_last], out=out[interior])
            out[last] = hi[last]
        else:
            # lo plus hi shifted by one node, wrapping
            np.add(lo[drop_first], hi[drop_last], out=out[drop_first])
            np.add(lo[first], hi[last], out=out[first])
        coeff = out
    return coeff


def _gauss_weights(grid):
    """Quadrature weights of :func:`_to_gauss`'s points, broadcastable
    over its leading Gauss and element axes: a read-only table per node
    counts (:func:`grid.cached`)."""
    def build():
        w = np.ones(())
        for ax in range(grid.dim):
            w = np.multiply.outer(w, grid.spacing(ax) * _GAUSS_W)
        w = w.reshape(w.shape + (1,) * grid.dim)
        w.setflags(write=False)
        return w
    return cached("gauss weights", grid.n_axes, build)


def _nonlocal_term(grid, values, specs, bc):
    """B_H = int |grad H|^2 for M = Psi(zeta) and its potential field
    (None when Psi vanishes)."""
    if specs.Psi.is_zero:
        return 0.0, None
    M = TensorField(grid, specs.Psi.value(values))
    return nonlocal_energy(M, bc)


def _nonlocal_gradient(grid, values, specs, pot):
    """The adjoint-exact nodal gradient 2 w (DPsi^T : grad H) of B_H,
    from the potential field (no extra linear solve)."""
    contr = np.einsum("...lNm,...lN->...m", specs.Psi.jacobian(values),
                      pot.gradH.values)
    return 2.0 * grid.node_weights()[..., None] * contr


class CellEvaluation:
    """The cell energy's parts at a profile: one stiffness product, one
    Gauss-point interpolation and one potential solve.

    The energy at scale L is L A + B / L with A = EG = <zeta, K zeta> and
    B = EW + BH, so the energy and the gradient at any scale follow from
    these parts with no further assembly or solve.

    The Gauss-point arrays live in this thread's work area
    (:class:`_GaussWorkArea`), which the latest evaluation owns; the
    gradient of an evaluation that no longer owns it interpolates its
    profile again.
    """

    def __init__(self, grid, values, specs, bc):
        BcVariant.check(bc)
        self.grid, self.values, self.specs = grid, values, specs
        self.Kz = _stiffness(grid, values)
        self.A = float(np.sum(values * self.Kz))
        self._token = object()
        work = self._interpolate()
        Wz = specs.W.value(work.z, out=work.scratch(work.z.shape[:-1]))
        self.EW = float(np.sum(np.multiply(_gauss_weights(grid), Wz, out=Wz)))
        self.BH, self.pot = _nonlocal_term(grid, values, specs, bc)
        self.B = self.EW + self.BH

    def _interpolate(self):
        """Interpolate the profile into this thread's work area and own it."""
        work = _gauss_work_area(self.grid, self.specs.m)
        _to_gauss(self.grid, self.values, work)
        work.owner = self._token
        return work

    def gradient(self, L):
        """Partial derivatives of the total energy at scale L with
        respect to interior nodal values; pinned slabs get zero rows,
        and under the sphere constraint the tangential (Riemannian)
        projection is returned.  The result is a fresh array."""
        grid, specs = self.grid, self.specs
        work = _gauss_work_area(grid, specs.m)
        if work.owner is not self._token:
            work = self._interpolate()
        coeff = specs.W.gradient(work.z, out=work.coeff)
        np.multiply(_gauss_weights(grid)[..., None], coeff, out=coeff)
        gW = _from_gauss(grid, coeff, work)
        gW /= L
        g = 2.0 * L * self.Kz
        g += gW
        if self.pot is not None:
            g += _nonlocal_gradient(grid, self.values, specs, self.pot) / L
        g[0] = 0.0
        g[-1] = 0.0
        if specs.constraint.kind == "unit_sphere":
            v = self.values
            g -= np.sum(g * v, axis=-1, keepdims=True) * v
        return g


def assemble_energy(profile, L, specs, jump, bc=BcVariant.NEUMANN):
    """Energy breakdown of an admissible profile at scale L > 0."""
    if L <= 0:
        raise DegenerateScale("scale L must be positive")
    _check_admissible(profile, jump, specs)
    ev = CellEvaluation(profile.grid, profile.values, specs, bc)
    return EnergyBreakdown.at_scale(ev.A, ev.EW, ev.BH, L)


def energy_gradient(profile, L, specs, jump, bc=BcVariant.NEUMANN):
    """Partial derivatives of the total energy with respect to interior
    nodal values; pinned slabs get zero rows, and under the sphere
    constraint the tangential (Riemannian) projection is returned."""
    if L <= 0:
        raise DegenerateScale("scale L must be positive")
    _check_admissible(profile, jump, specs)
    ev = CellEvaluation(profile.grid, profile.values, specs, bc)
    return StateField(profile.grid, ev.gradient(L))


# --- scale optimization ---------------------------------------------------

_MAX_SCALE = 2.0 ** 8  # L when A = 0, where B / L has no minimum


def optimize_scale(A, B):
    """Closed-form scale for the split E(L) = L A + B / L, capped at
    2^8.  For B = 0 the infimum 0 lies at L -> 0: that returns (0.0,
    0.0), and the caller's floor applies."""
    if A < 0 or B < 0:
        raise DegenerateScale("negative energy components")
    if B == 0.0:
        return 0.0, 0.0
    L = min(float(np.sqrt(B / A)), _MAX_SCALE) if A > 0.0 else _MAX_SCALE
    return L, float(L * A + B / L)


# --- starting profiles ----------------------------------------------------

def smoothstep(s):
    """Clamped cubic step: 0 for s <= -1, 1 for s >= 1, C1 in between."""
    s = np.clip(s, -1.0, 1.0)
    return 0.5 + 0.75 * s - 0.25 * s ** 3


def _antipodal_axes(a, specs, jump):
    """Ranked rotation axes for a 180 degree transition on the sphere.

    All great circles through +-a have the same length, but not the
    same energy: score each coordinate-aligned plane by the 1D
    transition cost 2 sqrt(W + |(Psi - Psi(phi-)).nu|^2) along the half
    circle, breaking ties (within 1e-9 relative) toward the plane with
    the smallest normal-flux excursion (zero excursion keeps div Psi =
    0, so the potential solve contributes nothing along the whole
    path).  The full ranking is returned so that the multistart can
    seed different members of the degenerate geodesic family."""
    theta = np.linspace(0.0, np.pi, 257)
    scored = []
    for k in range(a.size):
        e = np.zeros(a.size)
        e[k] = 1.0
        e = e - (e @ a) * a
        n = np.linalg.norm(e)
        if n < 1e-10:
            continue
        e /= n
        path = np.cos(theta)[:, None] * a + np.sin(theta)[:, None] * e
        w = specs.W.value(path)
        dpsi = (specs.Psi.value(path) - specs.Psi.value(a)) @ jump.nu
        pot = np.sum(np.square(dpsi), axis=-1)
        cost = np.trapezoid(2.0 * np.sqrt(np.maximum(w + pot, 0.0)), theta)
        excursion = float(np.max(pot))
        scored.append((cost, excursion, k, e))
    tie = min(s[0] for s in scored) * (1.0 + 1e-9)
    scored.sort(key=lambda s: (max(s[0], tie), s[1], s[2]))
    return [s[3] for s in scored]


def _tanh_profile(jump, specs, grid, plane_rank=0):
    t = grid.coords_normal()
    sig = smoothstep(t / 0.15)
    if specs.constraint.kind == "unit_sphere":
        # rotate along a great circle, cos(omega sig) a + sin(omega sig) e;
        # straight-line interpolation followed by normalization
        # degenerates to a step for (near-)antipodal states
        a = jump.phi_minus
        b = jump.phi_plus
        cosO = float(np.clip(a @ b, -1.0, 1.0))
        if cosO < -1.0 + 1e-10:
            # antipodal: every rotation plane through a and -a is a
            # geodesic, so score the coordinate-aligned candidates and
            # let plane_rank select a member of the degenerate family
            axes = _antipodal_axes(a, specs, jump)
            omega, e = np.pi, axes[min(plane_rank, len(axes) - 1)]
        else:
            # the angle in Kahan's form, exactly 0 when the states
            # coincide, and the unit part of b orthogonal to a, 0 when
            # there is none
            omega = 2.0 * math.atan2(np.linalg.norm(b - a), np.linalg.norm(b + a))
            e = b - cosO * a
            norm = np.linalg.norm(e)
            e = e / norm if norm > 0.0 else e
        ang = omega * sig
        v = np.cos(ang)[..., None] * a + np.sin(ang)[..., None] * e
        v[0] = a
        v[-1] = b
        return v
    return jump.phi_minus + sig[..., None] * (jump.phi_plus - jump.phi_minus)


def init_profiles(jump, specs, grid, strategy, opts=None):
    """Starting profiles for one strategy name: "one_dimensional_tanh"
    gives the tanh profile, and "random_perturbed" gives ``opts.n_random``
    perturbations of relative amplitude ``opts.amplitude`` inside the
    layer by smoothed standard normal noise, noise i drawn from the
    Philox stream (``opts.seed``, i).  Any other name raises BadStrategy."""
    opts = opts or OptimizerOptions()
    if strategy == "one_dimensional_tanh":
        return [StateField(grid, _tanh_profile(jump, specs, grid))]
    if strategy != "random_perturbed":
        raise BadStrategy(f"unknown init strategy {strategy!r}")
    # diversify: perturb around a different member of the geodesic
    # family than the deterministic start when one exists (antipodal
    # sphere data), instead of re-probing the same basin
    base = _tanh_profile(jump, specs, grid, plane_rank=1)
    t = grid.coords_normal()
    bump = np.square(np.sin(np.pi * (t + 0.5)))[..., None]
    scale = opts.amplitude * np.linalg.norm(jump.phi_plus - jump.phi_minus)
    starts = []
    for i in range(opts.n_random):
        rng = np.random.Generator(np.random.Philox(key=(opts.seed, i)))
        noise = smooth_noise(grid, rng.standard_normal(grid.shape + (specs.m,)))
        starts.append(StateField(grid, _retract(base, scale * bump * noise,
                                                specs, jump)))
    return starts


# --- minimizer ------------------------------------------------------------

def _retract(values, step, specs, jump):
    v = values + step
    if specs.constraint.kind == "unit_sphere":
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    v[0] = jump.phi_minus
    v[-1] = jump.phi_plus
    return v


def resolved_scale_floor(grid):
    """Smallest trustworthy layer scale on a grid.

    The transition width tracks L, so letting L fall below a few grid
    spacings drives the profile into an unresolved step whose discrete
    energy no longer approximates the continuum one (for constrained
    states it can collapse to zero).  The internal scale optimization
    therefore never goes below four normal spacings.
    """
    return 4.0 * grid.spacing(0)


def _normal_h1_inverse(grid, g, L):
    """Apply the inverse of the H1 inner product at scale L along the
    normal axis, 2 (L K + M / L) with the normal stiffness K and the
    lumped mass M, to a nodal gradient; pinned slabs stay zero.

    With x = t / L this is the plain H1 product of the physical layer.
    The conditioning of the Euclidean nodal gradient grows like
    (L / h)^2 across the layer, so on fine cells its steps crawl; in
    this metric it does not depend on the normal resolution.  Lateral
    axes keep the nodal metric: every lateral node column and state
    component is one right-hand side of one tridiagonal solve on the
    interior nodes (ptsv: factor, then solve).
    """
    # imported here: importing scipy.linalg takes 80 to 100 ms, which
    # every import of the package would pay, and only the optimizers
    # need it
    from scipy.linalg.lapack import dptsv
    h = grid.spacing(0)
    scale = 2.0 * grid.lateral_measure
    inner = g[1:-1]
    n = inner.shape[0]
    x = dptsv(np.full(n, scale * (2.0 * L / h + h / L)),
              np.full(n - 1, -scale * L / h),
              inner.reshape(n, -1))[2]
    p = np.zeros_like(g)
    p[1:-1] = x.reshape(inner.shape)
    return p


def _parabola_step(a, E0, slope, Ea):
    """Minimizer of the parabola through E(0) = E0 with E'(0) = slope
    and through E(a) = Ea; inf when that parabola is not convex."""
    curv = Ea - E0 - slope * a
    return -slope * a * a / (2.0 * curv) if curv > 0.0 else np.inf


def minimize_cg(x0, evaluate, precondition, retract, lmin, gtol, opts,
                on_floor=False):
    """Minimize E(x, L) = L A(x) + B(x) / L over x and the scale L >= lmin
    by preconditioned Polak-Ribiere (PR+) conjugate gradient with
    restarts and Armijo backtracking.  Returns (x, L, E, iterations,
    converged, evaluation), the last being ``evaluate``'s result at the
    returned x, so callers read the result's parts from it.

    - ``evaluate(x)`` returns an object with the parts ``A`` and ``B``
      and a method ``gradient(L)``, the partial gradient of E in x at
      scale L.  ``precondition(g, ev, L)`` returns the preconditioned
      gradient g at the evaluation ``ev`` of the current x and scale L,
      so it can read the parts of x that ``evaluate`` already computed;
      its negative is the steepest-descent direction.
      ``retract(x, step)`` maps x + step back to the admissible set.
    - Each line-search trial is one evaluation.  Its parts give the
      trial's optimal scale in closed form, so the Armijo test is on the
      scale-reduced energy min_L E(x, L), whose gradient is the partial
      gradient at the optimal scale; the accepted trial also gives the
      new scale, energy and gradient.  A run therefore makes one
      evaluation per trial plus one for the start.
    - A trial is accepted when it passes the Armijo test, or when its
      energy is at most 1e-12 |E| above E and its directional derivative
      g_try . d is at most 0.8 |slope|: near a minimum the remaining
      decrease falls below the round-off of E while the gradient is
      still above gtol (the approximate Wolfe test of Hager & Zhang,
      SIAM J. Optim. 16 (2005) 170-192).  The gradient that test
      computes is reused when the trial is accepted, so ``gradient``
      runs at most once per evaluation.
    - Backtracking steps come from the parabola through E(0), the
      slope and the trial energy, kept within [0.1, 0.5] of the
      rejected step.
    - A run converges when the largest gradient entry is at most gtol
      and the energy fell by at most ``opts.etol`` (relative) over the
      last 10 iterations, or when no descent direction is left.  It
      stops unconverged when the line search fails or after
      ``opts.max_iter`` iterations.
    - With ``on_floor`` L stays at lmin for the whole run, and the
      energy is E(x, lmin).
    - Every dot product (slope, restart, PR+) is one flat ``np.vdot``.
    """
    def scaled(ev):
        L = lmin if on_floor else max(optimize_scale(ev.A, ev.B)[0], lmin)
        return L, L * ev.A + ev.B / L

    x = x0.copy()
    ev = evaluate(x)
    L, E = scaled(ev)
    g = ev.gradient(L)
    pg = precondition(g, ev, L)
    d = -pg
    alpha = 1.0
    # the plateau test reads the energies of the last 10 iterations
    history = deque([E], maxlen=11)
    converged = False
    for it in range(1, opts.max_iter + 1):
        gmax = float(np.max(np.abs(g)))
        flat = (len(history) == 11
                and (history[0] - history[-1]) <= opts.etol * (1.0 + abs(history[-1])))
        if gmax <= gtol and flat:
            converged = True
            break
        slope = float(np.vdot(g, d))
        if slope >= 0.0:
            d = -pg
            slope = -float(np.vdot(g, pg))
            if slope == 0.0:
                converged = True
                break
        a = alpha
        for _ in range(50):
            x_try = retract(x, a * d)
            trial = evaluate(x_try)
            L_try, E_try = scaled(trial)
            g_try = None
            if E_try <= E + 1e-4 * a * slope:
                break
            if E_try <= E + 1e-12 * abs(E):
                # the energy change is at round-off, so judge the trial
                # by its directional derivative instead
                g_try = trial.gradient(L_try)
                if float(np.vdot(g_try, d)) <= -0.8 * slope:
                    break
            a = min(max(_parabola_step(a, E, slope, E_try), 0.1 * a), 0.5 * a)
        else:
            # stuck at line-search resolution: stop unconverged
            break
        x, ev, L, E = x_try, trial, L_try, E_try
        alpha = min(a * 2.0, 1e4)
        g_new = ev.gradient(L) if g_try is None else g_try
        pg_new = precondition(g_new, ev, L)
        denom = float(np.vdot(g, pg))
        beta = 0.0
        if denom > 0.0:
            beta = max(0.0, float(np.vdot(pg_new, g_new - g)) / denom)
        d = -pg_new + beta * d
        g, pg = g_new, pg_new
        history.append(E)
    return x, L, E, it, converged, ev


def multistart(starts, evaluate, precondition, retract, grid, jump_size,
               opts, on_floor=False):
    """Run :func:`minimize_cg` from every start, with the gradient
    tolerance ``opts.gtol_scale (1 + jump_size)``, the grid's
    :func:`resolved_scale_floor` and ``on_floor``, and pick the first
    start whose energy is within a relative 1e-6 of the lowest.  Returns
    that start's (x, L, E, iterations, converged, evaluation) and the start
    energies; raises BadStrategy when there is no start and NotConverged
    under ``opts.require_converged`` when the picked start did not converge."""
    if not starts:
        raise BadStrategy("no optimizer starts: the strategies give none")
    gtol = opts.gtol_scale * (1.0 + jump_size)
    lmin = resolved_scale_floor(grid)
    results = [minimize_cg(x0, evaluate, precondition, retract, lmin, gtol,
                           opts, on_floor) for x0 in starts]
    energies = [r[2] for r in results]
    best_e = min(energies)
    tie = _TIE_REL * (1.0 + abs(best_e))
    best = next(r for r, e in zip(results, energies) if e <= best_e + tie)
    if opts.require_converged and not best[4]:
        raise NotConverged("optimizer did not meet the convergence contract")
    return best, energies


def compute_cell_energy(jump, specs, grid, bc=BcVariant.NEUMANN, opts=None):
    """Multistart minimization of the cell energy; returns the best
    start with full diagnostics, deterministic for a fixed seed.  Each
    trial is one :class:`CellEvaluation`; directions are preconditioned
    by :func:`_normal_h1_inverse` and, under the sphere constraint,
    projected on the tangent space."""
    jump.check_state_length(specs.m)
    if jump.nu.shape != (specs.Psi.N,):
        raise BadParams(f"normal nu of length {jump.nu.size} does not fit a "
                        f"model with N = {specs.Psi.N}")
    check_normal(grid, jump.nu)
    opts = opts or OptimizerOptions()
    starts = [p.values for s in opts.strategies
              for p in init_profiles(jump, specs, grid, s, opts)]
    sphere = specs.constraint.kind == "unit_sphere"

    def evaluate(v):
        _check_admissible(StateField(grid, v), jump, specs)
        return CellEvaluation(grid, v, specs, bc)

    def precondition(g, ev, L):
        p = _normal_h1_inverse(grid, g, L)
        if sphere:
            v = ev.values
            p = p - np.sum(p * v, axis=-1, keepdims=True) * v
        return p

    jump_size = float(np.linalg.norm(jump.phi_plus - jump.phi_minus))
    (v, L, _, it, converged, ev), energies = multistart(
        starts, evaluate, precondition,
        lambda v, step: _retract(v, step, specs, jump), grid, jump_size, opts)
    return CellSolution(profile=StateField(grid, v), L_star=L,
                        energy=EnergyBreakdown.at_scale(ev.A, ev.EW, ev.BH, L),
                        bc=bc, iterations=it, converged=converged,
                        starts=energies, seed=opts.seed)
