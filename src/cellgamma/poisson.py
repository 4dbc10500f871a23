"""Auxiliary potential solves on the unit cell and the discrete
Helmholtz-Leray projection.

The potential H minimizes the quadratic sum_nodes w |grad H - M|^2 over
the boundary-condition class, so its normal equations are exactly
div(grad H - M) = 0 under the adjoint-divergence convention of the grid
module.  That makes the duality identities (projection orthogonality,
energy identity, Dirichlet <= Neumann) hold to round-off rather than to
truncation order.

Method: real FFT along the lateral periodic axes; per lateral mode k the
normal operator is A0 + mu_k W, with A0 = D^T W D, D the grid's normal
derivative matrix (one-sided-closed, :func:`grid.derivatives`) and W the
normal quadrature weights.  All modes are solved at once by fast
diagonalization (Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185-199):
the generalized eigenbasis A0 V = W V diag(lam),
V^T W V = I, on the solved rows (all nodes for Neumann, the interior for
Dirichlet) is computed once per (node counts, bc) and cached, and each
solve is H = V diag(1/(lam + mu_k)) V^T b.  V is real, so its two
products act on the float64 view of the complex mode array, (n0, 2 modes
l): two real matrix products for all modes and rows.  The sparse D^T (the
right-hand side) and A0, one CSR matrix (the residual check), act on the
same view.
D annihilates exactly the constants, so the Neumann operator is singular
in the lateral modes with mu = 0 (the zero mode and, on even axes, pure
Nyquist modes).  There the constant eigenvector gets 1/(lam + mu) := 0:
the pseudo-inverse solution, which is the Neumann gauge, H W-orthogonal
to the constants in every kernel mode (to round-off times the condition
of A0, about 1e-11 relative at 256 normal nodes).  The right-hand sides of those
modes are compatible by construction: 1^T D^T(w m) = 0 identically.

Memory: the frame components, the eigenbasis coefficients and H-hat of a
solve are written into one work area per thread, kept while the node
counts and flux rows stay the same and shared by both bcs.  The
right-hand side and the residual are fresh mode arrays, dropped before
the gradient; the returned H and grad H are fresh arrays too, so a
caller may keep them across later solves.
"""

import threading
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import NeumannIncompatible, ShapeMismatch, SolverDiverged
from .grid import (StateField, TensorField, apply_nodal, cached, derivatives,
                   frame_components, gradient, inner)


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
    """Per-(node counts, bc) data of a solve: lateral symbols, the
    generalized eigenbasis of the normal operator on the solved rows, and
    the operator scales of the residual check."""

    def __init__(self, grid, bc):
        n0 = grid.n_axes[0]
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
        # the normal derivative: its transpose assembles the rhs, and
        # A0 = D^T W D applies the normal operator in the residual check
        import scipy.sparse as sp  # loaded already by derivatives()
        d1 = derivatives(grid).axes[0]
        self.DT = d1.T.tocsr()
        D = d1.toarray()
        A0 = D.T @ (self.w_nu[:, None] * D)
        self.A0 = sp.csr_array(A0)

        # V = W^-1/2 U from eigh(W^-1/2 A0 W^-1/2) on the solved rows
        # (Dirichlet pins the end slabs): A0 V = W V diag(lam), V^T W V = I
        self.rows = slice(1, n0 - 1) if bc == BcVariant.DIRICHLET else slice(None)
        s = 1.0 / np.sqrt(self.w_nu[self.rows])
        lam, u = np.linalg.eigh(s[:, None] * A0[self.rows, self.rows] * s)
        self.V = s[:, None] * u
        self.VT = np.ascontiguousarray(self.V.T)
        denom = lam[:, None] + self.mu
        if bc == BcVariant.NEUMANN:
            # the constants: smallest lam, zero up to round-off
            denom[0, self.mu <= _MU_TOL] = np.inf
        self.inv = 1.0 / denom
        # the lateral part of the operator, w_nu mu, on the mode array
        self.w_mu = self.w_nu[:, None, None] * self.mu[:, None]

        # residual scales: the norm of the full operator, and the largest
        # column sum of |D| with the largest lateral symbol (the rhs is one
        # application of the derivatives to the flux)
        self.a_norm = (np.max(np.sum(np.abs(A0), axis=1))
                       + float(np.max(self.mu)) * float(np.max(self.w_nu)))
        self.d_norm = np.max(np.sum(np.abs(D), axis=0))
        self.sig_max = max(float(np.max(np.abs(s))) for s in self.sigma)


_cache = {}


def _solver_data(grid, bc):
    """The solver data of a grid's node counts and bc, built on a miss
    and kept in a bounded cache (:func:`grid.cached`).

    The data depend on the grid only through its node counts, so
    straight and tilted grids of one shape share an entry.
    """
    return cached(_cache, (grid.n_axes, bc), lambda: _CellSolverData(grid, bc))


class _WorkArea:
    """The intermediates of one solve for given node counts and flux
    rows, shared by both boundary conditions: the frame components, the
    eigenbasis coefficients and H-hat."""

    def __init__(self, n_axes, rows, n_modes):
        n0 = n_axes[0]
        self.key = (n_axes, rows)
        self.comps = np.empty((len(n_axes),) + n_axes + (rows,))
        self.coef = np.empty((n0, n_modes * 2 * rows))
        self.Hhat = np.empty((n0, n_modes, rows), dtype=np.complex128)


_local = threading.local()


def _work_area(grid, rows, n_modes):
    """This thread's work area, replaced when the shape changes."""
    key = (grid.n_axes, rows)
    work = getattr(_local, "work", None)
    if work is None or work.key != key:
        work = _local.work = _WorkArea(grid.n_axes, rows, n_modes)
    return work


def _normal_product(mat, modes):
    """A normal-axis matrix applied to a complex mode array, as real
    products on its float64 view; a fresh mode array."""
    return apply_nodal(mat, modes.view(np.float64)).view(np.complex128)


def _end_fluxes(grid, values):
    """Lateral means of M.nu on the two pinned normal slabs, one per
    row: (bottom, top)."""
    m_nu = values[[0, -1]] @ grid.frame.nu  # (2, ..., l)
    lat_axes = tuple(range(grid.dim - 1))
    return m_nu[0].mean(axis=lat_axes), m_nu[1].mean(axis=lat_axes)


def _check_compat(values, bot, top):
    """Discrete flux balance: the lateral means of M.nu on the two
    pinned normal slabs, ``bot`` and ``top`` from :func:`_end_fluxes`,
    must agree (the discrete (Psi+ - Psi-).nu = 0)."""
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
    check_compat = check_compat and bc == BcVariant.NEUMANN
    if check_compat or shift_mean_flux:
        bot, top = _end_fluxes(grid, M.values)
    if check_compat:
        _check_compat(M.values, bot, top)
    data = _solver_data(grid, bc)
    n0 = grid.n_axes[0]
    l = M.rows
    lat_axes = tuple(range(1, grid.dim))
    work = _work_area(grid, l, data.n_modes)

    comps = frame_components(grid, M.values, out=work.comps)
    if shift_mean_flux:
        # M - c x nu, c = (bot + top) / 2, has the frame components
        # comps[ax] - c (nu . b_ax)
        c = np.multiply.outer(grid.frame.basis @ grid.frame.nu, 0.5 * (top + bot))
        comps -= c.reshape((grid.dim,) + (1,) * grid.dim + (l,))
    # the frame components lead, so the lateral axes move up by one
    hats = scipy.fft.rfftn(comps, axes=[ax + 1 for ax in lat_axes])
    hats = hats.reshape(grid.dim, n0, data.n_modes, l)
    flux_norm = sum(np.linalg.norm(h) for h in hats)  # for the residual scale

    # variational rhs per mode: D^T(w m_nu) - w sum_ax (i sigma_ax) m_ax
    hats *= data.w_nu[:, None, None]
    rhs = _normal_product(data.DT, hats[0])
    for i, s in enumerate(data.sigma):
        np.multiply((1j * s)[:, None], hats[i + 1], out=hats[i + 1])
        rhs -= hats[i + 1]
    del hats  # the one fresh transform is not needed past the rhs

    # the two eigenbasis products, real, on the float view of the modes
    rows = data.rows
    n_rows = data.V.shape[0]
    coef = work.coef[:n_rows]
    np.matmul(data.VT, rhs[rows].reshape(n_rows, -1).view(np.float64), out=coef)
    coef3 = coef.reshape(n_rows, data.n_modes, 2 * l)
    coef3 *= data.inv[:, :, None]
    Hhat = work.Hhat
    if bc == BcVariant.DIRICHLET:
        # the pinned end slabs; a Neumann solve of this shape wrote them
        Hhat[[0, -1]] = 0.0
    np.matmul(data.V, coef, out=Hhat.reshape(n0, -1).view(np.float64)[rows])

    # relative residual of the normal equations over the solved rows
    # (Dirichlet pins the end slabs, so the end rows are not equations)
    op = _normal_product(data.A0, Hhat)
    op += data.w_mu * Hhat
    op -= rhs
    num = np.linalg.norm(op[rows])
    # backward-error scale: the rhs is assembled from the flux by one
    # application of the derivatives, so its own round-off floor is set by
    # the flux magnitude, not by |rhs| (which may cancel to zero for
    # divergence-free inputs)
    b_scale = (data.d_norm + data.sig_max) * float(np.max(data.w_nu)) * flux_norm
    den = (np.linalg.norm(rhs[rows]) + data.a_norm * np.linalg.norm(Hhat)
           + b_scale + 1e-300)
    residual = float(num / den)
    if not residual <= RESIDUAL_TOL:  # also catches NaN
        raise SolverDiverged(f"relative residual {residual:.3e} above target")
    del rhs, op  # fresh mode arrays, not needed past the check

    H = scipy.fft.irfftn(Hhat.reshape((n0,) + data.freq_shape + (l,)),
                         s=data.lat_shape, axes=lat_axes)
    Hf = StateField(grid, H)
    return PotentialField(H=Hf, gradH=gradient(Hf), residual_norm=residual, bc=bc)


def nonlocal_energy(M, bc, check_compat=True):
    """The stray-field energy int |grad H|^2 for flux M, plus the field."""
    pot = solve_cell_poisson(M, bc, check_compat=check_compat)
    return inner(M.grid, pot.gradH.values, pot.gradH.values), pot


def leray_project(V, bc):
    """Divergence-free part V - grad H of a tensor field.

    Idempotent, and exactly orthogonal to discrete gradients of the bc
    class under the quadrature inner product.
    """
    pot = solve_cell_poisson(V, bc, check_compat=False, shift_mean_flux=False)
    return TensorField(V.grid, V.values - pot.gradH.values)


def duality_gap(M, bc):
    """Both sides of the energy identity of the projection: int M . grad H
    against the directly assembled int |grad H|^2.

    They agree when grad H - M is orthogonal to the gradients of the bc
    class, grad H itself among them, which is what makes H the
    minimizer; both then equal the projection minimum of int |L + M|^2
    over divergence-free L, attained at L0 = grad H - M.
    """
    pot = solve_cell_poisson(M, bc, check_compat=False, shift_mean_flux=False)
    gradH = pot.gradH.values
    j0 = inner(M.grid, M.values, gradH)
    e = inner(M.grid, gradH, gradH)
    return DualityReport(J0_projection=j0, nonlocal_energy=e, gap=abs(j0 - e))
