"""Discrete cell energy: assembly, analytic gradient, and minimization
over profiles, the scale L, and the constraint set.

Assembly convention: the local terms G and W are integrated exactly for
the multilinear interpolant of the nodal profile (tensor-product Gauss
quadrature, 3 points per axis, exact through degree 5 per axis, which
covers every catalog integrand).  The discrete energy therefore IS the
continuum energy of an admissible profile, so continuum lower bounds
(e.g. the equal-partition bound int 2 sqrt(W) for the scalar double
well) hold for the computed minima by construction.  The nonlocal term
|grad H|^2 lives on the nodal grid calculus of the poisson module,
whose variational structure makes its adjoint gradient formula exact.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.fft import dst, idst

from .errors import (BadParams, BadStrategy, DegenerateScale, InadmissibleProfile,
                     NotConverged)
from .grid import StateField, TensorField, cached_per_grid, smooth_noise
from .poisson import BcVariant, nonlocal_energy

_GAUSS_X = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0


# --- results --------------------------------------------------------------

@dataclass
class EnergyBreakdown:
    grad_term: float       # int G(grad zeta)
    potential_term: float  # int W(zeta)
    nonlocal_term: float   # int |grad H|^2
    L: float
    total: float

    def to_dict(self):
        return {
            "grad_term": self.grad_term,
            "potential_term": self.potential_term,
            "nonlocal_term": self.nonlocal_term,
            "L": self.L,
            "total": self.total,
        }


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
    strategies: Optional[list] = None
    require_converged: bool = False

    def __post_init__(self):
        for name in ("etol", "gtol_scale", "amplitude"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise BadParams(f"optimizer {name} must be finite and >= 0, got {value!r}")
        if self.max_iter < 1:
            raise BadParams(f"optimizer max_iter must be >= 1, got {self.max_iter!r}")
        if self.n_random < 0:
            raise BadParams(f"optimizer n_random must be >= 0, got {self.n_random!r}")


# starts whose energy is within this relative tie of the lowest count as
# equal, so the multistart picks the first of them
_TIE_REL = 1e-6


# --- multilinear element assembler ----------------------------------------

class _LocalAssembler:
    """Exact quadrature of local integrands over multilinear elements.

    Precomputes shape-function tables and scatter indices for one grid;
    instances are cached per grid object.
    """

    def __init__(self, grid):
        self.grid = grid
        d = grid.dim
        self.d = d
        self.n_corners = 1 << d
        self.nq = 3 ** d
        # element base indices per axis: normal axis has n-1 elements,
        # periodic axes have n (the last one wraps)
        el_shape = (grid.n_axes[0] - 1,) + tuple(grid.n_axes[1:])
        self.el_shape = el_shape
        self.vol = float(np.prod([grid.spacing(ax) for ax in range(d)]))
        self.h = [grid.spacing(ax) for ax in range(d)]

        # 1d tables: value and derivative of the two hat functions at
        # the gauss points
        xq = _GAUSS_X
        self.s1 = np.stack([1.0 - xq, xq])        # (2, 3)
        self.ds1 = np.stack([-np.ones(3), np.ones(3)])

        # tensor tables: S[q, c], dS[q, c, ax] with q and c flattened
        S = np.ones((self.nq, self.n_corners))
        dS = np.ones((self.nq, self.n_corners, d))
        for q in range(self.nq):
            qi = np.unravel_index(q, (3,) * d)
            for c in range(self.n_corners):
                for ax in range(d):
                    bit = (c >> ax) & 1
                    S[q, c] *= self.s1[bit, qi[ax]]
                    for gax in range(d):
                        t = self.ds1[bit, qi[ax]] if ax == gax else self.s1[bit, qi[ax]]
                        dS[q, c, gax] *= t
        self.S = S
        self.dS = dS
        wq = np.ones(self.nq)
        for q in range(self.nq):
            qi = np.unravel_index(q, (3,) * d)
            for ax in range(d):
                wq[q] *= _GAUSS_W[qi[ax]]
        self.wq = wq

        # corner index tuples for gather/scatter
        base = np.meshgrid(*[np.arange(n) for n in el_shape], indexing="ij")
        self.corner_idx = []
        for c in range(self.n_corners):
            idx = []
            for ax in range(d):
                bit = (c >> ax) & 1
                i = base[ax] + bit
                if ax > 0:
                    i = i % grid.n_axes[ax]
                idx.append(i)
            self.corner_idx.append(tuple(idx))

        # stacked interpolation tables so one BLAS product yields the
        # values and all frame-coordinate derivatives at once
        self._interp = np.concatenate(
            [S] + [dS[:, :, ax] / self.h[ax] for ax in range(d)])
        self._w_s = wq[:, None] * S
        self._w_d = [wq[:, None] * dS[:, :, ax] / self.h[ax] for ax in range(d)]

    def gauss_states(self, values):
        """Interpolated states z and frame-coordinate derivatives dz at
        every gauss point: z (nq, el, m), dz (nq, el, m, d)."""
        corners = np.stack([values[idx] for idx in self.corner_idx])  # (C, el, m)
        flat = corners.reshape(self.n_corners, -1)
        out = (self._interp @ flat).reshape(
            (1 + self.d, self.nq) + corners.shape[1:])
        z = out[0]
        dz = np.moveaxis(out[1:], 0, -1)
        return z, dz

    def jets(self, dz):
        """Physical-coordinate jets: A[..., m, N] = sum_ax dz_ax b_ax."""
        return dz @ self.grid.frame.basis

    def integrate_q(self, density):
        """Integrate a per-gauss-point scalar density over the cell."""
        w = self.wq.reshape((-1,) + (1,) * (density.ndim - 1))
        return self.vol * float(np.sum(w * density))

    def scatter(self, coeff_s, coeff_d):
        """Nodal gradient from per-gauss-point integrand derivatives.

        coeff_s: (nq, el, m) multiplies the shape value (dW term);
        coeff_d: (nq, el, m, d) multiplies the shape derivative in frame
        coordinates (dG term), already divided by nothing (we divide by
        h here).  Either may be None.
        """
        out = np.zeros(self.grid.shape + (coeff_s.shape[-1] if coeff_s is not None
                                          else coeff_d.shape[-2],))
        contrib = 0.0
        if coeff_s is not None:
            contrib = contrib + np.tensordot(self._w_s, coeff_s, axes=(0, 0))
        if coeff_d is not None:
            for ax in range(self.d):
                contrib = contrib + np.tensordot(self._w_d[ax],
                                                 coeff_d[..., ax], axes=(0, 0))
        # each corner's index tuple maps the elements to distinct nodes
        for c in range(self.n_corners):
            out[self.corner_idx[c]] += self.vol * contrib[c]
        return out


_assemblers = {}


def _assembler(grid):
    return cached_per_grid(_assemblers, id(grid), lambda: _LocalAssembler(grid))


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

def _local_values(grid, values, specs):
    """One local assembly: int G(grad zeta) and int W(zeta), with the
    Gauss-point states z and the jets that :func:`_local_gradient`
    needs."""
    asm = _assembler(grid)
    z, dz = asm.gauss_states(values)
    jet = asm.jets(dz)
    return (asm.integrate_q(specs.G.value(jet)),
            asm.integrate_q(specs.W.value(z)), z, jet)


def local_integrals(grid, values, specs):
    """(int G(grad zeta), int W(zeta)) for the multilinear interpolant
    of the nodal values, by the exact element quadrature."""
    return _local_values(grid, values, specs)[:2]


def _local_gradient(grid, specs, z, jet):
    """Nodal gradients gG, gW of the two local integrals."""
    asm = _assembler(grid)
    coeff_d = np.einsum("q...mN,aN->q...ma", specs.G.gradient(jet),
                        grid.frame.basis)
    return asm.scatter(None, coeff_d), asm.scatter(specs.W.gradient(z), None)


def _nonlocal_term(grid, values, specs, bc):
    """B_H = int |grad H|^2 for M = Psi(zeta) and its potential field
    (None when Psi vanishes)."""
    if specs.Psi.is_zero:
        return 0.0, None
    M = TensorField(grid, specs.Psi.value(values))
    check = bc == BcVariant.NEUMANN
    return nonlocal_energy(M, bc, check_compat=check)


def _nonlocal_gradient(grid, values, specs, pot):
    """The adjoint-exact nodal gradient 2 w (DPsi^T : grad H) of B_H,
    from the potential field (no extra linear solve)."""
    contr = np.einsum("...lNm,...lN->...m", specs.Psi.jacobian(values),
                      pot.gradH.values)
    return 2.0 * grid.node_weights()[..., None] * contr


class _Evaluation:
    """One local assembly and one potential solve at a profile.

    G is homogeneous quadratic, so the energy at scale L is
    L A + B / L with A = EG = int G(grad zeta) and B = EW + BH, and the
    energy and the gradient at any scale follow from these parts with no
    further assembly or solve.
    """

    def __init__(self, grid, values, specs, bc):
        self.grid, self.values, self.specs = grid, values, specs
        self.A, self.EW, self.z, self.jet = _local_values(grid, values, specs)
        self.BH, self.pot = _nonlocal_term(grid, values, specs, bc)
        self.B = self.EW + self.BH

    def gradient(self, L):
        """Partial derivatives of the total energy at scale L with
        respect to interior nodal values; pinned slabs get zero rows,
        and under the sphere constraint the tangential (Riemannian)
        projection is returned."""
        grid, specs = self.grid, self.specs
        gG, gW = _local_gradient(grid, specs, self.z, self.jet)
        g = L * gG + gW / L
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
    ev = _Evaluation(profile.grid, profile.values, specs, bc)
    return EnergyBreakdown(grad_term=ev.A, potential_term=ev.EW,
                           nonlocal_term=float(ev.BH), L=float(L),
                           total=float(L * ev.A + ev.B / L))


def energy_gradient(profile, L, specs, jump, bc=BcVariant.NEUMANN):
    """Partial derivatives of the total energy with respect to interior
    nodal values; pinned slabs get zero rows, and under the sphere
    constraint the tangential (Riemannian) projection is returned."""
    if L <= 0:
        raise DegenerateScale("scale L must be positive")
    _check_admissible(profile, jump, specs)
    ev = _Evaluation(profile.grid, profile.values, specs, bc)
    return StateField(profile.grid, ev.gradient(L))


# --- scale optimization ---------------------------------------------------

_LOG2_BRACKET = (-8.0, 8.0)


def optimize_scale(A, B):
    """Closed-form scale for the homogeneous-quadratic split
    E(L) = L A + B / L, clamped to the standard bracket."""
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


def _sphere_project(values):
    return values / np.linalg.norm(values, axis=-1, keepdims=True)


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


def _geodesic_profile(jump, specs, grid, width=0.3):
    from .oracle import geodesic_path_1d
    states = geodesic_path_1d(jump, specs)
    seg = np.linalg.norm(np.diff(states, axis=0), axis=-1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    if arc[-1] <= 0:
        return _tanh_profile(jump, specs, grid)
    arc = arc / arc[-1]
    t = grid.coords_normal()
    s = smoothstep(t / width)
    v = np.empty(grid.shape + (specs.m,))
    for a in range(specs.m):
        v[..., a] = np.interp(s, arc, states[:, a])
    v[0] = jump.phi_minus
    v[-1] = jump.phi_plus
    if specs.constraint.kind == "unit_sphere":
        v = _sphere_project(v)
        v[0] = jump.phi_minus
        v[-1] = jump.phi_plus
    return v


def _random_profile(jump, specs, grid, index, amplitude, seed):
    rng = np.random.Generator(np.random.Philox(key=(seed, index)))
    # diversify: perturb around a different member of the geodesic
    # family than the deterministic start when one exists (antipodal
    # sphere data), instead of re-probing the same basin
    base = _tanh_profile(jump, specs, grid, plane_rank=1)
    noise = smooth_noise(grid, rng.standard_normal(grid.shape + (specs.m,)))
    t = grid.coords_normal()
    bump = np.square(np.sin(np.pi * (t + 0.5)))[..., None]
    jump_size = np.linalg.norm(jump.phi_plus - jump.phi_minus)
    v = base + amplitude * jump_size * bump * noise
    v[0] = jump.phi_minus
    v[-1] = jump.phi_plus
    if specs.constraint.kind == "unit_sphere":
        v = _sphere_project(v)
        v[0] = jump.phi_minus
        v[-1] = jump.phi_plus
    return v


def init_profiles(jump, specs, grid, strategy, seed=0):
    """Starting profiles for one strategy.

    strategy is "one_dimensional_tanh", "geodesic_sweep", or the tuple
    ("random_perturbed", k, amplitude) producing k perturbed starts.
    """
    if strategy == "one_dimensional_tanh":
        return [StateField(grid, _tanh_profile(jump, specs, grid))]
    if strategy == "geodesic_sweep":
        return [StateField(grid, _geodesic_profile(jump, specs, grid))]
    if (isinstance(strategy, (tuple, list)) and len(strategy) == 3
            and strategy[0] == "random_perturbed"):
        k, amplitude = int(strategy[1]), float(strategy[2])
        if k < 0 or amplitude < 0:
            raise BadStrategy("random_perturbed needs k >= 0, amplitude >= 0")
        return [StateField(grid, _random_profile(jump, specs, grid, i, amplitude, seed))
                for i in range(k)]
    raise BadStrategy(f"unknown init strategy {strategy!r}")


# --- minimizer ------------------------------------------------------------

def _retract(values, step, specs, jump):
    v = values + step
    if specs.constraint.kind == "unit_sphere":
        v = _sphere_project(v)
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
    axes keep the nodal metric: each lateral node column is solved
    separately, in the sine basis that diagonalizes K on the interior
    nodes.
    """
    h = grid.spacing(0)
    cross = float(np.prod([grid.spacing(ax) for ax in range(1, grid.dim)]))
    n = g.shape[0] - 2
    k_eig = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / h
    eig = 2.0 * cross * (L * k_eig + h / L)
    p = np.zeros_like(g)
    p[1:-1] = idst(dst(g[1:-1], type=1, axis=0)
                   / eig.reshape((n,) + (1,) * (g.ndim - 1)), type=1, axis=0)
    return p


def _parabola_step(a, E0, slope, Ea):
    """Minimizer of the parabola through E(0) = E0 with E'(0) = slope
    and through E(a) = Ea; inf when that parabola is not convex."""
    curv = Ea - E0 - slope * a
    return -slope * a * a / (2.0 * curv) if curv > 0.0 else np.inf


def minimize_cg(x0, evaluate, precondition, retract, lmin, gtol, opts):
    """Minimize E(x, L) = L A(x) + B(x) / L over x and the scale L >= lmin
    by preconditioned Polak-Ribiere (PR+) conjugate gradient with
    restarts and Armijo backtracking.  Returns (x, L, E, iterations,
    converged).

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
    - Backtracking steps come from the parabola through E(0), the
      slope and the trial energy, kept within [0.1, 0.5] of the
      rejected step.
    - A run converges when the largest gradient entry is at most gtol
      and the energy fell by at most ``opts.etol`` (relative) over the
      last 10 iterations, or when no descent direction is left.  It
      stops unconverged when the line search fails or after
      ``opts.max_iter`` iterations.
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
    history = [E]
    converged = False
    for it in range(1, opts.max_iter + 1):
        gmax = float(np.max(np.abs(g)))
        flat = (len(history) > 10
                and (history[-11] - history[-1]) <= opts.etol * (1.0 + abs(history[-1])))
        if gmax <= gtol and flat:
            converged = True
            break
        slope = float(np.sum(g * d))
        if slope >= 0.0:
            d = -pg
            slope = -float(np.sum(g * pg))
            if slope == 0.0:
                converged = True
                break
        a = alpha
        for _ in range(50):
            x_try = retract(x, a * d)
            trial = evaluate(x_try)
            L_try, E_try = scaled(trial)
            if E_try <= E + 1e-4 * a * slope:
                break
            a = min(max(_parabola_step(a, E, slope, E_try), 0.1 * a), 0.5 * a)
        else:
            # stuck at line-search resolution: stop unconverged
            break
        x, ev, L, E = x_try, trial, L_try, E_try
        alpha = min(a * 2.0, 1e4)
        g_new = ev.gradient(L)
        pg_new = precondition(g_new, x, L)
        denom = float(np.sum(g * pg))
        beta = 0.0
        if denom > 0.0:
            beta = max(0.0, float(np.sum(pg_new * (g_new - g))) / denom)
        d = -pg_new + beta * d
        g, pg = g_new, pg_new
        history.append(E)
        if len(history) > 64:
            history = history[-32:]
    return x, L, E, it, converged


def _minimize_start(values, specs, jump, grid, bc, opts):
    """One start of the cell minimization by :func:`minimize_cg`: each
    trial is one :class:`_Evaluation` (one local assembly, one
    potential solve), directions are preconditioned by
    :func:`_normal_h1_inverse` and, under the sphere constraint,
    projected on the tangent space."""
    sphere = specs.constraint.kind == "unit_sphere"

    def evaluate(v):
        _check_admissible(StateField(grid, v), jump, specs)
        return _Evaluation(grid, v, specs, bc)

    def precondition(g, v, L):
        p = _normal_h1_inverse(grid, g, L)
        if sphere:
            p = p - np.sum(p * v, axis=-1, keepdims=True) * v
        return p

    gtol = opts.gtol_scale * (1.0 + float(np.linalg.norm(jump.phi_plus - jump.phi_minus)))
    return minimize_cg(values, evaluate, precondition,
                       lambda v, step: _retract(v, step, specs, jump),
                       resolved_scale_floor(grid), gtol, opts)


def multistart(starts, minimize, opts):
    """Run ``minimize`` from every start and pick the first start whose
    energy is within a relative 1e-6 of the lowest.  Returns that
    start's (x, L, E, iterations, converged) and the list of start
    energies; raises NotConverged under ``opts.require_converged`` when
    the picked start did not converge."""
    results = [minimize(s) for s in starts]
    energies = [r[2] for r in results]
    best_e = min(energies)
    tie = _TIE_REL * (1.0 + abs(best_e))
    best = next(r for r, e in zip(results, energies) if e <= best_e + tie)
    if opts.require_converged and not best[4]:
        raise NotConverged("optimizer did not meet the convergence contract")
    return best, energies


def compute_cell_energy(jump, specs, grid, bc=BcVariant.NEUMANN, opts=None):
    """Multistart minimization of the cell energy; returns the best
    start with full diagnostics, deterministic for a fixed seed."""
    jump.check_state_length(specs.m)
    opts = opts or OptimizerOptions()
    strategies = opts.strategies
    if strategies is None:
        strategies = ["one_dimensional_tanh", "geodesic_sweep",
                      ("random_perturbed", opts.n_random, opts.amplitude)]
    starts = []
    for s in strategies:
        starts.extend(init_profiles(jump, specs, grid, s, seed=opts.seed))

    def run(start):
        return _minimize_start(start.values, specs, jump, grid, bc, opts)

    (v, L, _, it, converged), energies = multistart(starts, run, opts)
    profile = StateField(grid, v)
    breakdown = assemble_energy(profile, L, specs, jump, bc)
    return CellSolution(profile=profile, L_star=L, energy=breakdown, bc=bc,
                        iterations=it, converged=converged,
                        starts=energies, seed=opts.seed)
