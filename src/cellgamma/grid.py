"""Orthonormal frames, unit-cell grids, and discrete differential operators.

The cell lives in the coordinates of an orthonormal frame whose first
vector is the jump normal.  The normal axis spans [-1/2, 1/2] with both
end slabs included (they carry the pinned states), lateral axes span the
half-open periodic interval [-1/2, 1/2).

Discrete calculus convention: per-axis derivatives are second-order
central stencils (one-sided second-order rows at the normal ends), and
the divergence is defined as the exact negative weighted adjoint of the
gradient.  This makes summation by parts, the Leray projection, and the
composition laplacian = div(grad) hold to round-off, not just to
truncation order.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonUnitNormal, ShapeMismatch


# --- frame ----------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """Orthonormal basis of R^N with basis[0] equal to the jump normal."""

    basis: np.ndarray  # (N, N), rows are the basis vectors

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def nu(self):
        return self.basis[0]

    def gram_residual(self):
        g = self.basis @ self.basis.T
        return float(np.max(np.abs(g - np.eye(self.dim))))


def build_frame(nu):
    """Complete a unit normal to an orthonormal frame, deterministically.

    Uses the Householder reflection mapping e_1 to nu: the images of the
    remaining standard basis vectors supply the lateral directions.  The
    first basis vector is set to nu exactly (not its reflected image), so
    round-off never perturbs the normal itself.
    """
    nu = np.asarray(nu, dtype=np.float64)
    if nu.ndim != 1 or nu.size < 1:
        raise NonUnitNormal("normal must be a 1d vector")
    n = nu.size
    norm = np.linalg.norm(nu)
    if abs(norm - 1.0) > 1e-10:
        raise NonUnitNormal(f"|nu| = {norm!r} deviates from 1 beyond 1e-10")
    basis = np.empty((n, n), dtype=np.float64)
    basis[0] = nu
    if n > 1:
        # reflect about the bisector of e_1 and +/-nu; the sign choice
        # keeps the reflection vector away from zero: |nu - s e_1|^2 =
        # 2 + 2 |nu_0| >= 2
        e1 = np.zeros(n)
        e1[0] = 1.0
        s = -1.0 if nu[0] > 0.0 else 1.0
        v = nu - s * e1
        v = v / np.linalg.norm(v)
        for j in range(1, n):
            ej = np.zeros(n)
            ej[j] = 1.0
            basis[j] = -s * (ej - 2.0 * v[j] * v)
    basis.setflags(write=False)
    return Frame(basis=basis)


# --- grid -----------------------------------------------------------------

@dataclass(frozen=True)
class CellGrid:
    """Uniform node grid on the unit cell of a frame.

    Axis 0 runs along the normal with n_normal nodes on [-1/2, 1/2]
    inclusive (spacing 1/(n-1)); the remaining axes are lateral-periodic
    with spacing 1/n.  ``n_axes`` overrides per-axis node counts, which
    is how anisotropic cells (e.g. a fine normal axis with a coarse
    time-like axis) are built.
    """

    frame: Frame
    n_axes: tuple
    axis_bc: tuple = field(init=False)

    def __post_init__(self):
        n_axes = tuple(int(n) for n in self.n_axes)
        if len(n_axes) != self.frame.dim:
            raise ShapeMismatch("one node count per frame axis required")
        if n_axes[0] < 8:
            raise ShapeMismatch("normal axis needs at least 8 nodes")
        for n in n_axes[1:]:
            if n < 1:
                raise ShapeMismatch("lateral axes need at least 1 node")
        object.__setattr__(self, "n_axes", n_axes)
        bc = ("pinned_normal",) + ("periodic",) * (len(n_axes) - 1)
        object.__setattr__(self, "axis_bc", bc)

    @property
    def dim(self):
        return self.frame.dim

    @property
    def shape(self):
        return self.n_axes

    def spacing(self, axis):
        n = self.n_axes[axis]
        if axis == 0:
            return 1.0 / (n - 1)
        return 1.0 / n

    def axis_coords(self, axis):
        n = self.n_axes[axis]
        if axis == 0:
            return np.linspace(-0.5, 0.5, n)
        return -0.5 + self.spacing(axis) * np.arange(n)

    def axis_weights(self, axis):
        """Quadrature weights: trapezoid on the normal axis, uniform
        (exact for periodic trigonometric polynomials) laterally."""
        n = self.n_axes[axis]
        h = self.spacing(axis)
        if axis == 0:
            w = np.full(n, h)
            w[0] = w[-1] = 0.5 * h
            return w
        return np.full(n, h)

    def node_weights(self):
        w = self.axis_weights(0)
        for ax in range(1, self.dim):
            w = np.multiply.outer(w, self.axis_weights(ax))
        return w

    def coords_normal(self):
        """Normal coordinate y.nu broadcast over the full grid."""
        t = self.axis_coords(0)
        return t.reshape((-1,) + (1,) * (self.dim - 1)) * np.ones(self.shape)


def build_cell_grid(frame, n_normal, n_lateral=None, n_axes=None):
    """Standard constructor: one normal count plus a shared lateral count."""
    if n_axes is not None:
        return CellGrid(frame=frame, n_axes=tuple(n_axes))
    if frame.dim > 1:
        if n_lateral is None or n_lateral < 4:
            raise ShapeMismatch("lateral axes need at least 4 nodes")
        return CellGrid(frame=frame, n_axes=(n_normal,) + (n_lateral,) * (frame.dim - 1))
    return CellGrid(frame=frame, n_axes=(n_normal,))


GRID_CACHE_SIZE = 8


def cached_per_grid(cache, key, build):
    """``cache[key]``, made by ``build()`` on a miss.

    ``key`` starts with ``id(grid)`` and the built value keeps a
    reference to its grid, so no other grid can share the id while the
    entry lives.  Above GRID_CACHE_SIZE entries the oldest is evicted:
    a sweep that builds a grid per step neither grows the cache nor
    keeps every grid alive.
    """
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
        if len(cache) > GRID_CACHE_SIZE:
            cache.pop(next(iter(cache)), None)
    return value


# --- fields ---------------------------------------------------------------

@dataclass
class StateField:
    """Grid function with values in R^m (trailing axis of length m)."""

    grid: CellGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape[:-1] != self.grid.shape or self.values.ndim != self.grid.dim + 1:
            raise ShapeMismatch(
                f"state values {self.values.shape} do not fit grid {self.grid.shape}")

    @property
    def m(self):
        return self.values.shape[-1]


@dataclass
class TensorField:
    """Grid function with values in R^{l x N}, components in physical
    coordinates (trailing axis indexes the ambient space).  On a
    space-time cell the trailing axis may instead index the spatial
    coordinates only, one fewer than the grid dimension."""

    grid: CellGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        ok = (self.values.ndim == self.grid.dim + 2
              and self.values.shape[:-2] == self.grid.shape
              and self.values.shape[-1] in (self.grid.dim, self.grid.dim - 1))
        if not ok:
            raise ShapeMismatch(
                f"tensor values {self.values.shape} do not fit grid {self.grid.shape}")

    @property
    def rows(self):
        return self.values.shape[-2]


# --- per-axis derivatives -------------------------------------------------

def diff_axis(grid, values, axis):
    """Second-order derivative of nodal values along one grid axis.

    Central stencils everywhere; the pinned normal axis closes with
    one-sided second-order rows, periodic axes wrap.  ``values`` may
    carry trailing component axes.
    """
    h = grid.spacing(axis)
    n = grid.n_axes[axis]
    if values.shape[axis] != n:
        raise ShapeMismatch("field does not match grid along axis")
    if grid.axis_bc[axis] == "periodic":
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)
    out = np.empty_like(values)
    sl = [slice(None)] * values.ndim

    def at(i):
        s = list(sl)
        s[axis] = i
        return tuple(s)

    out[at(slice(1, n - 1))] = (values[at(slice(2, n))] - values[at(slice(0, n - 2))]) / (2.0 * h)
    out[at(0)] = (-3.0 * values[at(0)] + 4.0 * values[at(1)] - values[at(2)]) / (2.0 * h)
    out[at(n - 1)] = (3.0 * values[at(n - 1)] - 4.0 * values[at(n - 2)] + values[at(n - 3)]) / (2.0 * h)
    return out


def diff_axis_transpose(grid, values, axis):
    """Exact transpose of :func:`diff_axis` as a linear map on nodal values."""
    h = grid.spacing(axis)
    n = grid.n_axes[axis]
    if values.shape[axis] != n:
        raise ShapeMismatch("field does not match grid along axis")
    if grid.axis_bc[axis] == "periodic":
        # transpose of the circulant central stencil is its negative
        return (np.roll(values, 1, axis=axis) - np.roll(values, -1, axis=axis)) / (2.0 * h)
    out = np.zeros_like(values)
    sl = [slice(None)] * values.ndim

    def at(i):
        s = list(sl)
        s[axis] = i
        return tuple(s)

    # interior central rows scatter to their neighbours
    out[at(slice(2, n))] += values[at(slice(1, n - 1))] / (2.0 * h)
    out[at(slice(0, n - 2))] -= values[at(slice(1, n - 1))] / (2.0 * h)
    # one-sided end rows
    out[at(0)] += -3.0 * values[at(0)] / (2.0 * h)
    out[at(1)] += 4.0 * values[at(0)] / (2.0 * h)
    out[at(2)] += -values[at(0)] / (2.0 * h)
    out[at(n - 1)] += 3.0 * values[at(n - 1)] / (2.0 * h)
    out[at(n - 2)] += -4.0 * values[at(n - 1)] / (2.0 * h)
    out[at(n - 3)] += values[at(n - 1)] / (2.0 * h)
    return out


def normal_diff_matrix(n, h):
    """Dense (n, n) matrix of the pinned-normal-axis derivative stencil."""
    d = np.zeros((n, n))
    for j in range(1, n - 1):
        d[j, j - 1] = -1.0 / (2.0 * h)
        d[j, j + 1] = 1.0 / (2.0 * h)
    d[0, 0], d[0, 1], d[0, 2] = -3.0 / (2.0 * h), 4.0 / (2.0 * h), -1.0 / (2.0 * h)
    d[n - 1, n - 1], d[n - 1, n - 2], d[n - 1, n - 3] = (
        3.0 / (2.0 * h), -4.0 / (2.0 * h), 1.0 / (2.0 * h))
    return d


# --- gradient / divergence / laplacian ------------------------------------

def gradient(f):
    """Gradient of a StateField, in physical components.

    Returns a TensorField with values[..., a, p] = sum_ax (D_ax f_a) b_ax[p]
    where b_ax are the frame vectors.
    """
    grid = f.grid
    out = np.zeros(grid.shape + (f.m, grid.dim))
    for ax in range(grid.dim):
        d = diff_axis(grid, f.values, ax)
        out += d[..., :, None] * grid.frame.basis[ax]
    return TensorField(grid, out)


def divergence(v):
    """Divergence of a TensorField, defined as the exact negative weighted
    adjoint of :func:`gradient` under the quadrature inner product.

    With this definition <grad u, V>_w = -<u, div V>_w holds to round-off
    for all fields, which is what makes the Poisson solve variational and
    the duality identities exact discretely.
    """
    grid = v.grid
    w = grid.node_weights()
    out = np.zeros(grid.shape + (v.rows,))
    for ax in range(grid.dim):
        comp = v.values @ grid.frame.basis[ax]  # (..., rows)
        out -= diff_axis_transpose(grid, w[..., None] * comp, ax)
    return StateField(grid, out / w[..., None])


def laplacian(f):
    """Discrete Laplacian as the exact composition div(grad)."""
    return divergence(gradient(f))


def inner(grid, a, b):
    """Quadrature inner product of two nodal arrays (components summed)."""
    w = grid.node_weights()
    extra = a.ndim - w.ndim
    return float(np.sum(w.reshape(w.shape + (1,) * extra) * a * b))


def integrate(grid, density):
    """Quadrature of a scalar nodal density over the cell."""
    return float(np.sum(grid.node_weights() * density))


def smooth_noise(grid, noise):
    """Two passes of the three-point average along every grid axis of a
    nodal array (periodic axes wrap; the normal axis keeps its end
    slabs), so that random starts are not hopeless for line searches."""
    for _ in range(2):
        for ax in range(grid.dim):
            if grid.axis_bc[ax] == "periodic":
                noise = (noise + np.roll(noise, 1, axis=ax)
                         + np.roll(noise, -1, axis=ax)) / 3.0
            else:
                sm = noise.copy()
                sm[1:-1] = (noise[:-2] + noise[1:-1] + noise[2:]) / 3.0
                noise = sm
    return noise
