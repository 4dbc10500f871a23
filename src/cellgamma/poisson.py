"""Auxiliary potential solves on the unit cell and the discrete
Helmholtz-Leray projection.

The potential H minimizes the quadratic sum_nodes w |grad H - M|^2 over
the boundary-condition class, so its normal equations are exactly
div(grad H - M) = 0 under the adjoint-divergence convention of the grid
module.  That makes the duality identities (projection orthogonality,
energy identity, Dirichlet <= Neumann) hold to round-off rather than to
truncation order.

Method: the right-hand side grad^T W M' of the normal equations, M' the
flux less the mean-flux shift, is one sparse product
(:func:`grid.gradient_adjoint`) and one real FFT along the lateral
periodic axes.  The shift goes on the flux, not on the zero mode of the
rhs: subtracted there, its round-off (eps |M|, not eps |M'|) would fall
in the Neumann kernel and fail the residual check of a near-constant
normal flux.  Per lateral mode k of :func:`grid.lateral_modes` the
normal operator is A0 + mu_k W, with mu_k = |sigma_k|^2 for the mode's
central-difference symbols, A0 = D^T W D, D the grid's normal derivative
matrix (one-sided-closed, :func:`grid.derivatives`) and W the normal
quadrature weights (times the lateral measure).  All modes are solved at
once by fast diagonalization
(Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185-199): the generalized
eigenbasis A0 V = W V diag(lam), V^T W V = I, on the solved rows (all
nodes for Neumann, the interior for Dirichlet) is computed once per
(node counts, bc) and cached, and each solve is H = V diag(1/(lam +
mu_k)) V^T b.  D changes sign and W stays under the reversal J of the
normal axis, so A0 commutes with J and V splits into even vectors [y;
(y_mid); J y] and odd vectors [y; 0; -J y] (Cantoni & Butler, Linear
Algebra Appl. 13 (1976) 275-288): two half-size eigenbases G[0], G[1].
A solve folds b to f = b_top + J b_bot (with b_mid) and g = b_top - J
b_bot, applies G^T, the inverse table and G per half, and unfolds to
H_top = u + v, J H_bot = u - v: two half-size products per direction,
half the flops of V.  The bases are real, so the products act on the
float64 view of the complex mode array, (rows, 2 modes l), for all
modes at once, as does A0, one CSR matrix, in the residual check.
D annihilates exactly the constants, so the Neumann operator is singular
in the lateral modes with mu = 0 (the zero mode and, on even axes, pure
Nyquist modes).  There the constant eigenvector gets 1/(lam + mu) := 0:
the pseudo-inverse solution, which is the Neumann gauge, H W-orthogonal
to the constants in every kernel mode (to round-off times the condition
of A0, about 1e-11 relative at 256 normal nodes).  The right-hand sides of those
modes are compatible by construction: 1^T D^T(w m) = 0 identically.

Memory: the shifted flux M', the folded right-hand side and solution
(the fold buffer, which then takes the lateral term of the residual),
the eigenbasis coefficients and H-hat of a solve go to one work area
per thread (:func:`grid.work_area`), kept while the node counts and
flux rows stay the same and shared by both bcs.  The product grad^T W
M', its transform (the right-hand side) and the residual are fresh,
dropped before the gradient; the returned H and grad H are fresh too,
so a caller may keep them across later solves.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import NeumannIncompatible, ShapeMismatch, SolverDiverged
from .grid import (StateField, TensorField, apply_nodal, cached, derivatives,
                   gradient, gradient_adjoint, inner, lateral_modes,
                   work_area)


class BcVariant:
    NEUMANN = "neumann_normal_periodic_lateral"
    DIRICHLET = "dirichlet_cell"

    CELL_KINDS = (NEUMANN, DIRICHLET)

    @classmethod
    def check(cls, bc):
        """Raise ShapeMismatch unless bc is one of the cell kinds."""
        if bc not in cls.CELL_KINDS:
            raise ShapeMismatch(f"unknown cell bc variant {bc!r}")


@dataclass
class PotentialField:
    H: StateField
    gradH: TensorField
    residual_norm: float


@dataclass
class DualityReport:
    J0_projection: float
    nonlocal_energy: float
    gap: float


RESIDUAL_TOL = 1e-10
_MU_TOL = 1e-12


class _CellSolverData:
    """Per-(node counts, bc) data of a solve: the lateral symbols, the
    parity-folded generalized eigenbasis of the normal operator on the
    solved rows, and the operator scales of the residual check."""

    def __init__(self, grid, bc):
        n0 = grid.n_axes[0]
        self.lat_shape = grid.n_axes[1:]
        self.freq_shape, _, sigma = lateral_modes(grid)
        self.n_modes = sigma.shape[1]
        # the lateral cell measure folds into the normal weight vector
        self.w_nu = grid.axis_weights(0) * grid.lateral_measure
        # D_lat <-> i sigma per lateral axis, mu = |sigma|^2
        self.mu = sum(s ** 2 for s in sigma)
        # A0 = D^T W D applies the normal operator in the residual check
        import scipy.sparse as sp  # loaded already by derivatives()
        D = derivatives(grid).axes[0].toarray()
        A0 = (D.T * self.w_nu) @ D
        self.A0 = sp.csr_array(A0)

        # the generalized eigenbasis A0 V = W V diag(lam), V^T W V = I, on
        # the solved rows (Dirichlet pins the end slabs), in two halves:
        # A0 commutes with the reversal J, so V = P diag(G[0], G[1]) for
        # the folding P of even vectors [y; (y_mid); J y] (the middle row
        # of an odd count is even) and odd vectors [y; 0; -J y]
        self.rows = slice(1, n0 - 1) if bc == BcVariant.DIRICHLET else slice(None)
        w = self.w_nu[self.rows]
        n = w.size
        self.half = half = n // 2
        i = np.arange(half)
        P = np.zeros((n, n))
        P[i, i] = P[n - 1 - i, i] = P[i, n - half + i] = 1.0
        P[n - 1 - i, n - half + i] = -1.0
        if n % 2:
            P[half, half] = 1.0
        PAP = P.T @ A0[self.rows, self.rows] @ P  # block diagonal
        wf = np.square(P).T @ w  # P^T W P, diagonal: 2 w_top, w_mid
        # each half by G = S U from eigh(S PAP S), S = (P^T W P)^-1/2,
        # so that G holds the 1/sqrt(2) of the folding
        self.G, lams = [], []
        for part in (slice(None, n - half), slice(n - half, None)):
            s = 1.0 / np.sqrt(wf[part])
            lam, u = np.linalg.eigh(s[:, None] * PAP[part, part] * s)
            self.G.append(s[:, None] * u)
            lams.append(lam)
        # one inverse table, even rows first
        denom = np.concatenate(lams)[:, None] + self.mu
        if bc == BcVariant.NEUMANN:
            # the constants: even, smallest lam, zero up to round-off
            denom[0, self.mu <= _MU_TOL] = np.inf
        self.inv = 1.0 / denom
        # the lateral part of the operator, w_nu mu, on the mode array
        self.w_mu = self.w_nu[:, None, None] * self.mu[:, None]

        # residual scales: the norm of the full operator, and the rhs's
        # round-off floor per unit of |M'| (|rhs| may cancel to 0): the
        # largest column sum of |D| plus the largest lateral symbol, times
        # sqrt(n_lat / 2), the least 2-norm gain of a lateral rfftn
        self.a_norm = (np.max(np.sum(np.abs(A0), axis=1))
                       + float(np.max(self.mu)) * float(np.max(self.w_nu)))
        sig_max = max(float(np.max(np.abs(s))) for s in sigma)
        self.b_norm = ((np.max(np.sum(np.abs(D), axis=0)) + sig_max)
                       * float(np.max(self.w_nu))
                       * math.sqrt(0.5 * math.prod(self.lat_shape)))


def _solver_data(grid, bc):
    """The solver data of a grid's node counts and bc, built on a miss
    and kept in a bounded store (:func:`grid.cached`).

    The data depend on the grid only through its node counts, so
    straight and tilted grids of one shape share an entry.
    """
    return cached("poisson solver", (grid.n_axes, bc),
                  lambda: _CellSolverData(grid, bc))


class _WorkArea:
    """The intermediates of one solve for given node counts and flux
    rows, shared by both boundary conditions: the shifted flux, the
    folded rhs and solution, the eigenbasis coefficients and H-hat."""

    def __init__(self, n_axes, rows, n_modes):
        n0 = n_axes[0]
        self.flux = np.empty(n_axes + (rows, len(n_axes)))
        self.fold = np.empty((n0, n_modes * 2 * rows))
        self.coef = np.empty((n0, n_modes * 2 * rows))
        self.Hhat = np.empty((n0, n_modes, rows), dtype=np.complex128)


def _normal_product(mat, modes):
    """A normal-axis matrix applied to a complex mode array, as real
    products on its float64 view; a fresh mode array."""
    return apply_nodal(mat, modes.view(np.float64)).view(np.complex128)


def _norm(a):
    """The 2-norm of an array, as the square root of one dot."""
    return math.sqrt(np.vdot(a, a).real)


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
    BcVariant.check(bc)
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
    work = work_area("poisson", (grid.n_axes, l),
                     lambda: _WorkArea(grid.n_axes, l, data.n_modes))

    # variational rhs grad^T W M', M' = M - c x nu with c = (bot + top) / 2:
    # one product and one lateral transform
    flux = M.values
    if shift_mean_flux:
        # one strided pass per (row, component): broadcasting the (rows,
        # dim) shift over the nodes runs a 2-element inner loop, 4x slower
        flux = work.flux
        shift = np.multiply.outer(0.5 * (top + bot), grid.frame.nu)
        for (a, j), s in np.ndenumerate(shift):
            np.subtract(M.values[..., a, j], s, out=flux[..., a, j])
    rhs = scipy.fft.rfftn(gradient_adjoint(grid, flux), axes=lat_axes)
    rhs = rhs.reshape(n0, data.n_modes, l)

    # the eigenbasis products, real, on the float view of the modes, per
    # half: fold the rhs to f = b_top + J b_bot (and b_mid), g = b_top -
    # J b_bot, solve, and unfold u, v to H_top = u + v, J H_bot = u - v
    rows, half = data.rows, data.half
    n = data.inv.shape[0]
    b = rhs[rows].reshape(n, -1).view(np.float64)
    even, odd = slice(None, n - half), slice(n - half, n)
    mid = slice(half, n - half)  # the middle row of an odd count
    fold, coef = work.fold[:n], work.coef[:n]
    np.add(b[:half], b[::-1][:half], out=fold[:half])
    np.subtract(b[:half], b[::-1][:half], out=fold[odd])
    fold[mid] = b[mid]
    for part, G in zip((even, odd), data.G):
        np.matmul(G.T, fold[part], out=coef[part])
    coefz = coef.view(np.complex128).reshape(n, data.n_modes, l)
    coefz *= data.inv[:, :, None]
    for part, G in zip((even, odd), data.G):
        np.matmul(G, coef[part], out=fold[part])
    Hhat = work.Hhat
    if bc == BcVariant.DIRICHLET:
        # the pinned end slabs; a Neumann solve of this shape wrote them
        Hhat[[0, -1]] = 0.0
    out = Hhat.reshape(n0, -1).view(np.float64)[rows]
    np.add(fold[:half], fold[odd], out=out[:half])
    np.subtract(fold[:half], fold[odd], out=out[::-1][:half])
    out[mid] = fold[mid]

    # relative residual of the normal equations over the solved rows
    # (Dirichlet pins the end slabs, so the end rows are not equations)
    op = _normal_product(data.A0, Hhat)
    op += np.multiply(data.w_mu, Hhat,  # into the fold buffer, now free
                      out=work.fold.view(np.complex128).reshape(Hhat.shape))
    op -= rhs
    num = _norm(op[rows])
    den = (_norm(rhs[rows]) + data.a_norm * _norm(Hhat)
           + data.b_norm * _norm(flux) + 1e-300)
    residual = float(num / den)
    if not residual <= RESIDUAL_TOL:  # also catches NaN
        raise SolverDiverged(f"relative residual {residual:.3e} above target")
    del rhs, op  # fresh mode arrays, not needed past the check

    H = scipy.fft.irfftn(Hhat.reshape((n0,) + data.freq_shape + (l,)),
                         s=data.lat_shape, axes=lat_axes)
    Hf = StateField(grid, H)
    return PotentialField(H=Hf, gradH=gradient(Hf), residual_norm=residual)


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
