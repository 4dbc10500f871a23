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

from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (BadParams, BadStrategy, DegenerateScale, InadmissibleProfile,
                     NotConverged)
from .grid import StateField, TensorField, check_normal, smooth_noise
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

def _tridiagonal(values, axis, diag, off):
    """Apply the symmetric tridiagonal stencil (off, diag, off) along one
    grid axis of a nodal array: periodic on lateral axes, with halved
    end-row diagonals on the normal axis."""
    if axis > 0:
        return diag * values + off * (np.roll(values, 1, axis=axis)
                                      + np.roll(values, -1, axis=axis))
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


def _to_gauss(grid, values):
    """The multilinear interpolant of nodal values at the 3 Gauss points
    per element along every axis, interpolated one axis at a time: shape
    (3,) * d + element shape + (m,), Gauss axes in grid-axis order.  The
    normal axis has n - 1 elements, a lateral axis n (the last wraps)."""
    # each step puts its Gauss axis in front, so taking the grid axes
    # last to first keeps the one being replaced at array position d - 1
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


def _from_gauss(grid, coeff):
    """Exact transpose of :func:`_to_gauss`: contract each Gauss axis
    with the two hat rows and add the results to the element's nodes."""
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


def _gauss_weights(grid):
    """Quadrature weights of :func:`_to_gauss`'s points, broadcastable
    over its leading Gauss and element axes."""
    w = np.ones(())
    for ax in range(grid.dim):
        w = np.multiply.outer(w, grid.spacing(ax) * _GAUSS_W)
    return w.reshape(w.shape + (1,) * grid.dim)


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
    """

    def __init__(self, grid, values, specs, bc):
        self.grid, self.values, self.specs = grid, values, specs
        self.Kz = _stiffness(grid, values)
        self.A = float(np.sum(values * self.Kz))
        self.z, self.w = _to_gauss(grid, values), _gauss_weights(grid)
        self.EW = float(np.sum(self.w * specs.W.value(self.z)))
        self.BH, self.pot = _nonlocal_term(grid, values, specs, bc)
        self.B = self.EW + self.BH

    def gradient(self, L):
        """Partial derivatives of the total energy at scale L with
        respect to interior nodal values; pinned slabs get zero rows,
        and under the sphere constraint the tangential (Riemannian)
        projection is returned."""
        grid, specs = self.grid, self.specs
        gW = _from_gauss(grid, self.w[..., None] * specs.W.gradient(self.z))
        g = 2.0 * L * self.Kz + gW / L
        if self.pot is not None:
            g = g + _nonlocal_gradient(grid, self.values, specs, self.pot) / L
        g[0] = 0.0
        g[-1] = 0.0
        if specs.constraint.kind == "unit_sphere":
            v = self.values
            g = g - np.sum(g * v, axis=-1, keepdims=True) * v
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

_LOG2_BRACKET = (-8.0, 8.0)


def optimize_scale(A, B):
    """Closed-form scale for the split E(L) = L A + B / L, clamped to
    the standard bracket."""
    if A < 0 or B < 0:
        raise DegenerateScale("negative energy components")
    if A == 0.0 and B == 0.0:
        return 1.0, 0.0
    lo, hi = 2.0 ** _LOG2_BRACKET[0], 2.0 ** _LOG2_BRACKET[1]
    if A == 0.0:
        L = hi
    elif B == 0.0:
        L = lo
    else:
        L = float(np.sqrt(B / A))
        L = min(max(L, lo), hi)
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
    circle, breaking near-ties toward the plane with the smallest
    normal-flux excursion (zero excursion keeps div Psi = 0, so the
    potential solve contributes nothing along the whole path).  The
    full ranking is returned so that the multistart can seed different
    members of the degenerate geodesic family."""
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
    scored.sort(key=lambda s: (s[0], s[1], s[2]))
    return [s[3] for s in scored]


def _tanh_profile(jump, specs, grid, width=0.15, plane_rank=0):
    t = grid.coords_normal()
    sig = smoothstep(t / width)
    if specs.constraint.kind == "unit_sphere":
        # rotate along a great circle; straight-line interpolation
        # followed by normalization degenerates to a step for
        # (near-)antipodal states
        a = jump.phi_minus
        b = jump.phi_plus
        cosO = float(np.clip(a @ b, -1.0, 1.0))
        if cosO < -1.0 + 1e-10:
            # antipodal: every rotation plane through a and -a is a
            # geodesic, so score the coordinate-aligned candidates and
            # let plane_rank select a member of the degenerate family
            axes = _antipodal_axes(a, specs, jump)
            e = axes[min(plane_rank, len(axes) - 1)]
            ang = np.pi * sig
            v = np.cos(ang)[..., None] * a + np.sin(ang)[..., None] * e
        else:
            omega = np.arccos(cosO)
            so = np.sin(omega)
            v = (np.sin((1.0 - sig) * omega)[..., None] * a
                 + np.sin(sig * omega)[..., None] * b) / so
        v[0] = a
        v[-1] = b
        return v
    return jump.phi_minus + sig[..., None] * (jump.phi_plus - jump.phi_minus)


def strategy_starts(strategy, grid, shape, opts, unperturbed, perturb):
    """The starts of one strategy name, for the cell and the shock alike:
    "one_dimensional_tanh" gives the deterministic ``unperturbed()``,
    and "random_perturbed" gives ``perturb(noise)`` for ``opts.n_random``
    smoothed standard normal noise arrays of shape ``grid.shape +
    shape``, array i drawn from the Philox stream (``opts.seed``, i).
    Any other name raises BadStrategy."""
    if strategy == "one_dimensional_tanh":
        return [unperturbed()]
    if strategy == "random_perturbed":
        starts = []
        for i in range(opts.n_random):
            rng = np.random.Generator(np.random.Philox(key=(opts.seed, i)))
            noise = smooth_noise(grid, rng.standard_normal(grid.shape + shape))
            starts.append(perturb(noise))
        return starts
    raise BadStrategy(f"unknown init strategy {strategy!r}")


def init_profiles(jump, specs, grid, strategy, opts=None):
    """Starting profiles for one strategy of :func:`strategy_starts`:
    the tanh profile, or perturbations of relative amplitude
    ``opts.amplitude`` inside the layer."""
    opts = opts or OptimizerOptions()

    def perturb(noise):
        # diversify: perturb around a different member of the geodesic
        # family than the deterministic start when one exists (antipodal
        # sphere data), instead of re-probing the same basin
        base = _tanh_profile(jump, specs, grid, plane_rank=1)
        t = grid.coords_normal()
        bump = np.square(np.sin(np.pi * (t + 0.5)))[..., None]
        jump_size = np.linalg.norm(jump.phi_plus - jump.phi_minus)
        return _retract(base, opts.amplitude * jump_size * bump * noise,
                        specs, jump)

    values = strategy_starts(strategy, grid, (specs.m,), opts,
                             lambda: _tanh_profile(jump, specs, grid), perturb)
    return [StateField(grid, v) for v in values]


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


def normal_tridiagonal_inverse(g, matrices, margin):
    """Apply the inverses of symmetric positive definite tridiagonal
    matrices, one (diagonal, off-diagonal) pair of constants each,
    in turn along the normal axis of a nodal array g.  They act on the
    nodes between the ``margin`` pinned slabs at each end; those slabs
    stay zero.  Every lateral node column and state component is one
    right-hand side of the same solve (ptsv: factor, then solve).
    """
    # imported here: importing scipy.linalg takes 80 to 100 ms, which
    # every import of the package would pay, and only the optimizers
    # need it
    from scipy.linalg.lapack import dptsv
    inner = g[margin:-margin]
    x = inner.reshape(inner.shape[0], -1)
    n = x.shape[0]
    for diag, off in matrices:
        x = dptsv(np.full(n, diag), np.full(n - 1, off), x)[2]
    p = np.zeros_like(g)
    p[margin:-margin] = x.reshape(inner.shape)
    return p


def _normal_h1_inverse(grid, g, L):
    """Apply the inverse of the H1 inner product at scale L along the
    normal axis, 2 (L K + M / L) with the normal stiffness K and the
    lumped mass M, to a nodal gradient; pinned slabs stay zero.

    With x = t / L this is the plain H1 product of the physical layer.
    The conditioning of the Euclidean nodal gradient grows like
    (L / h)^2 across the layer, so on fine cells its steps crawl; in
    this metric it does not depend on the normal resolution.  Lateral
    axes keep the nodal metric: each lateral node column is one
    right-hand side of one tridiagonal solve on the interior nodes, by
    :func:`normal_tridiagonal_inverse`.
    """
    h = grid.spacing(0)
    cross = float(np.prod([grid.spacing(ax) for ax in range(1, grid.dim)]))
    scale = 2.0 * cross
    return normal_tridiagonal_inverse(
        g, [(scale * (2.0 * L / h + h / L), -scale * L / h)], 1)


def _parabola_step(a, E0, slope, Ea):
    """Minimizer of the parabola through E(0) = E0 with E'(0) = slope
    and through E(a) = Ea; inf when that parabola is not convex."""
    curv = Ea - E0 - slope * a
    return -slope * a * a / (2.0 * curv) if curv > 0.0 else np.inf


def minimize_cg(x0, evaluate, precondition, retract, lmin, gtol, opts):
    """Minimize E(x, L) = L A(x) + B(x) / L over x and the scale L >= lmin
    by preconditioned Polak-Ribiere (PR+) conjugate gradient with
    restarts and Armijo backtracking.  Returns (x, L, E, iterations,
    converged, evaluation), the last being ``evaluate``'s result at the
    returned x, so callers read the result's parts from it.

    - ``evaluate(x)`` returns an object with the parts ``A`` and ``B``
      and a method ``gradient(L)``, the partial gradient of E in x at
      scale L.  ``precondition(g, x, L)`` returns the preconditioned
      gradient, whose negative is the steepest-descent direction, and
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
    - Every dot product (slope, restart, PR+) is one flat ``np.vdot``.
    """
    def scaled(ev):
        L = max(optimize_scale(ev.A, ev.B)[0], lmin)
        return L, L * ev.A + ev.B / L

    x = x0.copy()
    ev = evaluate(x)
    L, E = scaled(ev)
    g = ev.gradient(L)
    pg = precondition(g, x, L)
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
        pg_new = precondition(g_new, x, L)
        denom = float(np.vdot(g, pg))
        beta = 0.0
        if denom > 0.0:
            beta = max(0.0, float(np.vdot(pg_new, g_new - g)) / denom)
        d = -pg_new + beta * d
        g, pg = g_new, pg_new
        history.append(E)
    return x, L, E, it, converged, ev


def multistart(starts, evaluate, precondition, retract, grid, jump_size,
               opts):
    """Run :func:`minimize_cg` from every start, with the gradient
    tolerance ``opts.gtol_scale (1 + jump_size)`` and the grid's
    :func:`resolved_scale_floor`, and pick the first start whose energy
    is within a relative 1e-6 of the lowest.  Returns that start's (x,
    L, E, iterations, converged, evaluation) and the start energies;
    raises BadStrategy when there is no start and NotConverged under
    ``opts.require_converged`` when the picked start did not converge."""
    if not starts:
        raise BadStrategy("no optimizer starts: the strategies give none")
    gtol = opts.gtol_scale * (1.0 + jump_size)
    lmin = resolved_scale_floor(grid)
    results = [minimize_cg(x0, evaluate, precondition, retract, lmin, gtol,
                           opts) for x0 in starts]
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
    check_normal(grid, jump.nu)
    opts = opts or OptimizerOptions()
    starts = [p.values for s in opts.strategies
              for p in init_profiles(jump, specs, grid, s, opts)]
    sphere = specs.constraint.kind == "unit_sphere"

    def evaluate(v):
        _check_admissible(StateField(grid, v), jump, specs)
        return CellEvaluation(grid, v, specs, bc)

    def precondition(g, v, L):
        p = _normal_h1_inverse(grid, g, L)
        if sphere:
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
