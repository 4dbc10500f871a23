"""Auxiliary potential solves on the unit cell and the discrete
Helmholtz-Leray projection.

The potential H minimizes the quadratic sum_nodes w |grad H - M|^2 over
the boundary-condition class, so its normal equations are exactly
div(grad H - M) = 0 under the adjoint-divergence convention of the grid
module.  That makes the duality identities (projection orthogonality,
energy identity, Dirichlet <= Neumann) hold to round-off rather than to
truncation order.

Method: real FFT along the lateral periodic axes; per lateral mode k the
normal operator is A0 + mu_k W, with A0 = D^T W D, D the one-sided-closed
normal derivative stencil and W the normal quadrature weights.  All modes
are solved at once by fast diagonalization (Lynch, Rice & Thomas, Numer.
Math. 6 (1964) 185-199): the generalized eigenbasis A0 V = W V diag(lam),
V^T W V = I, on the solved rows (all nodes for Neumann, the interior for
Dirichlet) is computed once per (grid, bc) and cached, and each solve is
H = V diag(1/(lam + mu_k)) V^T b, two matrix products for every mode.
D annihilates exactly the constants, so the Neumann operator is singular
in the lateral modes with mu = 0 (the zero mode and, on even axes, pure
Nyquist modes).  There the constant eigenvector gets 1/(lam + mu) := 0:
the pseudo-inverse solution, which is the Neumann gauge, H W-orthogonal
to the constants in every kernel mode (to round-off times the condition
of A0, about 1e-11 relative at 256 normal nodes).  The right-hand sides of those
modes are compatible by construction: 1^T D^T(w m) = 0 identically.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import NeumannIncompatible, ShapeMismatch, SolverDiverged
from .grid import (StateField, TensorField, cached_per_grid, gradient,
                   integrate, normal_diff_matrix)


class BcVariant:
    NEUMANN = "neumann_normal_periodic_lateral"
    DIRICHLET = "dirichlet_cell"

    CELL_KINDS = (NEUMANN, DIRICHLET)


@dataclass
class PotentialField:
    H: StateField
    gradH: TensorField
    residual_norm: float
    bc: str


@dataclass
class DualityReport:
    J0_projection: float
    nonlocal_energy: float
    gap: float


RESIDUAL_TOL = 1e-10
_MU_TOL = 1e-12


class _CellSolverData:
    """Per-(grid, bc) spectral data: lateral symbols and the generalized
    eigenbasis of the normal operator on the solved rows."""

    def __init__(self, grid, bc):
        self.grid = grid
        self.bc = bc
        n0 = grid.n_axes[0]
        h0 = grid.spacing(0)
        lat_shape = grid.n_axes[1:]
        freq_shape = tuple(lat_shape[:-1]) + (lat_shape[-1] // 2 + 1,)
        self.lat_shape = lat_shape
        self.freq_shape = freq_shape
        self.n_modes = int(np.prod(freq_shape))

        # central-difference symbol per lateral axis: D_lat <-> i sigma
        self.sigma = []
        mu = np.zeros(freq_shape)
        for i, n in enumerate(lat_shape):
            h = grid.spacing(i + 1)
            if i == len(lat_shape) - 1:
                k = np.arange(n // 2 + 1, dtype=np.float64)
            else:
                k = np.fft.fftfreq(n) * n
            s = np.sin(2.0 * np.pi * k / n) / h
            shape = [1] * len(freq_shape)
            shape[i] = -1
            sb = (s.reshape(shape) * np.ones(freq_shape)).reshape(self.n_modes)
            self.sigma.append(sb)
            mu = mu + sb.reshape(mu.shape) ** 2
        self.mu = mu.reshape(self.n_modes)

        # the lateral cell measure folds into the normal weight vector
        c_lat = 1.0
        for i in range(1, grid.dim):
            c_lat *= grid.spacing(i)
        self.w_nu = grid.axis_weights(0) * c_lat
        self.D = normal_diff_matrix(n0, h0)
        self.A0 = self.D.T @ (self.w_nu[:, None] * self.D)

        # V = W^-1/2 U from eigh(W^-1/2 A0 W^-1/2) on the solved rows
        # (Dirichlet pins the end slabs): A0 V = W V diag(lam), V^T W V = I
        self.rows = slice(1, n0 - 1) if bc == BcVariant.DIRICHLET else slice(None)
        s = 1.0 / np.sqrt(self.w_nu[self.rows])
        lam, u = np.linalg.eigh(s[:, None] * self.A0[self.rows, self.rows] * s)
        self.V = s[:, None] * u
        denom = lam[:, None] + self.mu
        if bc == BcVariant.NEUMANN:
            # the constants: smallest lam, zero up to round-off
            denom[0, self.mu <= _MU_TOL] = np.inf
        self.inv = 1.0 / denom


_cache = {}


def _solver_data(grid, bc):
    return cached_per_grid(_cache, (id(grid), bc),
                           lambda: _CellSolverData(grid, bc))


def _end_fluxes(grid, values):
    """Lateral means of M.nu on the two pinned normal slabs, one per
    row: (bottom, top)."""
    m_nu = values @ grid.frame.nu  # (..., l)
    lat_axes = tuple(range(grid.dim - 1))
    return m_nu[0].mean(axis=lat_axes), m_nu[-1].mean(axis=lat_axes)


def _check_compat(grid, values):
    """Discrete flux balance: the lateral means of M.nu on the two
    pinned normal slabs must agree (the discrete (Psi+ - Psi-).nu = 0)."""
    bot, top = _end_fluxes(grid, values)
    imbalance = float(np.max(np.abs(top - bot)))
    eps = 1e-8 * (1.0 + float(np.max(np.abs(values))))
    if imbalance > eps:
        raise NeumannIncompatible(
            f"normal flux imbalance {imbalance:.3e} exceeds {eps:.3e}; "
            "the Neumann cell problem requires (Psi(phi+) - Psi(phi-)).nu = 0")


def solve_cell_poisson(M, bc, check_compat=True, shift_mean_flux=True):
    """Solve the cell potential problem for the flux field M.

    Returns the PotentialField with H, its gradient, and the relative
    residual of the discrete normal equations.

    H minimizes sum w |grad H - M'|^2 over the bc class, where M' is M
    with the mean end-slab normal flux c (per row) removed along nu.
    The shift realizes the forced condition dH/dnu = 0: the natural
    boundary condition of the quadratic is (grad H - M').nu = 0, and on
    flux-balanced data M'.nu vanishes on the end slabs.  The constant
    tensor c x nu is divergence-free, so the continuum problems are
    unchanged; discretely the shift makes "constant flux gives H = 0"
    exact for both variants and preserves Dirichlet <= Neumann to
    round-off (same shifted flux, nested classes).

    Projection callers (Helmholtz-Leray duality) disable both the shift
    and the compatibility check: the decomposition needs neither.

    The cell needs at least one lateral axis.
    """
    if bc not in BcVariant.CELL_KINDS:
        raise ShapeMismatch(f"unknown cell bc variant {bc!r}")
    grid = M.grid
    if grid.dim < 2:
        raise ShapeMismatch("the cell potential solve needs a lateral axis")
    if bc == BcVariant.NEUMANN and check_compat:
        _check_compat(grid, M.values)
    data = _solver_data(grid, bc)
    n0 = grid.n_axes[0]
    l = M.rows
    lat_axes = tuple(range(1, grid.dim))

    values = M.values
    if shift_mean_flux:
        bot, top = _end_fluxes(grid, values)
        values = values - (0.5 * (top + bot))[..., None] * grid.frame.nu
    comps = [values @ grid.frame.basis[ax] for ax in range(grid.dim)]
    hats = [scipy.fft.rfftn(c, axes=lat_axes).reshape(n0, data.n_modes, l)
            for c in comps]

    # variational rhs per mode: D^T(w m_nu) - w sum_ax (i sigma_ax) m_ax
    wn = data.w_nu[:, None, None]
    rhs = np.tensordot(data.D, wn * hats[0], axes=(0, 0))
    for i, s in enumerate(data.sigma):
        rhs = rhs - wn * (1j * s)[None, :, None] * hats[i + 1]

    rows = data.rows
    Hhat = np.zeros((n0, data.n_modes, l), dtype=np.complex128)
    coef = np.tensordot(data.V, rhs[rows], axes=(0, 0)) * data.inv[:, :, None]
    Hhat[rows] = np.tensordot(data.V, coef, axes=(1, 0))

    # relative residual of the normal equations over the solved rows
    # (Dirichlet pins the end slabs, so the end rows are not equations)
    op = (np.tensordot(data.A0, Hhat, axes=(1, 0))
          + data.mu[None, :, None] * (wn * Hhat))
    num = np.linalg.norm((op - rhs)[rows])
    a_norm = (np.max(np.sum(np.abs(data.A0), axis=1))
              + float(np.max(data.mu)) * float(np.max(data.w_nu)))
    # backward-error scale: the rhs is assembled from the flux by one
    # application of the stencils, so its own round-off floor is set by
    # the flux magnitude, not by |rhs| (which may cancel to zero for
    # divergence-free inputs)
    d_norm = np.max(np.sum(np.abs(data.D), axis=0))
    sig_max = max(float(np.max(np.abs(s))) for s in data.sigma)
    b_scale = ((d_norm + sig_max) * float(np.max(data.w_nu))
               * sum(np.linalg.norm(h) for h in hats))
    den = (np.linalg.norm(rhs[rows]) + a_norm * np.linalg.norm(Hhat)
           + b_scale + 1e-300)
    residual = float(num / den)
    if residual > RESIDUAL_TOL:
        raise SolverDiverged(f"relative residual {residual:.3e} above target")

    H = scipy.fft.irfftn(Hhat.reshape((n0,) + data.freq_shape + (l,)),
                         s=data.lat_shape, axes=lat_axes)
    Hf = StateField(grid, H)
    return PotentialField(H=Hf, gradH=gradient(Hf), residual_norm=residual, bc=bc)


def nonlocal_energy(M, bc, check_compat=True):
    """The stray-field energy int |grad H|^2 for flux M, plus the field."""
    pot = solve_cell_poisson(M, bc, check_compat=check_compat)
    e = integrate(M.grid, np.sum(np.square(pot.gradH.values), axis=(-2, -1)))
    return e, pot


def leray_project(V, bc, check_compat=False):
    """Divergence-free part V - grad H of a tensor field.

    Idempotent, and exactly orthogonal to discrete gradients of the bc
    class under the quadrature inner product.
    """
    pot = solve_cell_poisson(V, bc, check_compat=check_compat,
                             shift_mean_flux=False)
    return TensorField(V.grid, V.values - pot.gradH.values)


def duality_gap(M, bc):
    """Both sides of the projection duality: the minimum of
    int |L + M|^2 over divergence-free L, attained at L0 = grad H - M,
    against the directly assembled int |grad H|^2."""
    pot = solve_cell_poisson(M, bc, check_compat=False, shift_mean_flux=False)
    L0 = pot.gradH.values - M.values
    j0 = integrate(M.grid, np.sum(np.square(L0 + M.values), axis=(-2, -1)))
    e = integrate(M.grid, np.sum(np.square(pot.gradH.values), axis=(-2, -1)))
    return DualityReport(J0_projection=j0, nonlocal_energy=e, gap=abs(j0 - e))


# --- padded-box whole-space surrogate -------------------------------------

def padded_box_nonlocal_energy(M_values, spacings, pad_factor=4):
    """Whole-space stray-field energy surrogate for a compactly
    supported flux on a uniform box grid.

    Embeds the flux in a box enlarged by ``pad_factor`` per axis with
    homogeneous Dirichlet closure, solves the compact-stencil Laplace
    problem by fast sine transforms, and evaluates int |grad H|^2 by
    central differences.  Percent-level accuracy by construction; the
    caller monitors adequacy by doubling the padding.
    """
    M_values = np.asarray(M_values, dtype=np.float64)
    box_shape = M_values.shape[:-2]
    ndim = len(box_shape)
    l = M_values.shape[-2]
    if M_values.shape[-1] != ndim:
        raise ShapeMismatch("flux components must match box dimension")
    spacings = np.broadcast_to(np.asarray(spacings, dtype=np.float64), (ndim,))

    pad_shape = tuple(int(pad_factor * n) for n in box_shape)
    big = np.zeros(pad_shape + (l, ndim))
    offs = tuple((p - n) // 2 for p, n in zip(pad_shape, box_shape))
    sl = tuple(slice(o, o + n) for o, n in zip(offs, box_shape))
    big[sl] = M_values

    # rhs = div M by central differences (flux vanishes near the edges)
    rhs = np.zeros(pad_shape + (l,))
    for ax in range(ndim):
        comp = big[..., ax]
        rhs += (np.roll(comp, -1, axis=ax) - np.roll(comp, 1, axis=ax)) / (2.0 * spacings[ax])

    # Dirichlet eigenvalues of the compact 3-point Laplacian per axis
    lam = np.zeros(pad_shape)
    for ax, n in enumerate(pad_shape):
        j = np.arange(1, n + 1, dtype=np.float64)
        lax = (2.0 - 2.0 * np.cos(np.pi * j / (n + 1))) / spacings[ax] ** 2
        shape = [1] * ndim
        shape[ax] = -1
        lam = lam + lax.reshape(shape)

    axes = tuple(range(ndim))
    rhat = scipy.fft.dstn(rhs, type=1, axes=axes)
    Hhat = -rhat / lam[..., None]
    H = scipy.fft.idstn(Hhat, type=1, axes=axes)

    cell = float(np.prod(spacings))
    energy = 0.0
    for ax in range(ndim):
        g = (np.roll(H, -1, axis=ax) - np.roll(H, 1, axis=ax)) / (2.0 * spacings[ax])
        energy += cell * float(np.sum(np.square(g)))
    return energy, H
