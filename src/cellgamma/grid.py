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

from dataclasses import dataclass
from functools import cached_property

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
        """Product of the axis weights at every node (cached, read-only)."""
        return self._node_weights

    @cached_property
    def _node_weights(self):
        w = self.axis_weights(0)
        for ax in range(1, self.dim):
            w = np.multiply.outer(w, self.axis_weights(ax))
        w.setflags(write=False)
        return w

    def coords_normal(self):
        """Normal coordinate y.nu broadcast over the full grid."""
        t = self.axis_coords(0)
        return t.reshape((-1,) + (1,) * (self.dim - 1)) * np.ones(self.shape)


def build_cell_grid(frame, n_normal, n_lateral=None):
    """Standard constructor: one normal count plus a shared lateral count.
    Build ``CellGrid(frame=..., n_axes=...)`` for other per-axis counts."""
    if frame.dim > 1:
        if n_lateral is None or n_lateral < 4:
            raise ShapeMismatch("lateral axes need at least 4 nodes")
        return CellGrid(frame=frame, n_axes=(n_normal,) + (n_lateral,) * (frame.dim - 1))
    return CellGrid(frame=frame, n_axes=(n_normal,))


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

def _periodic_central(values, axis, sign, out):
    """out[i] = values[i + sign] - values[i - sign] along a periodic axis
    (sign = +1 or -1), by slices.  On an axis under 3 nodes both
    neighbours are the same node, so the difference is zero."""
    if values.shape[axis] < 3:
        out[...] = 0.0
        return
    ahead = (slice(2, None), slice(1, 2), slice(0, 1))
    behind = (slice(None, -2), slice(-1, None), slice(-2, -1))
    if sign < 0:
        ahead, behind = behind, ahead
    lead = (slice(None),) * axis
    for o, a, b in zip((slice(1, -1), slice(0, 1), slice(-1, None)), ahead, behind):
        np.subtract(values[lead + (a,)], values[lead + (b,)], out=out[lead + (o,)])


def diff_axis(grid, values, axis, out=None):
    """Second-order derivative of nodal values along one grid axis.

    Central stencils everywhere; the pinned normal axis closes with
    one-sided second-order rows, periodic axes wrap.  ``values`` may
    carry trailing component axes.  The result is written to ``out``
    (shaped like ``values`` and not overlapping it) when given.
    """
    h = grid.spacing(axis)
    n = grid.n_axes[axis]
    if values.shape[axis] != n:
        raise ShapeMismatch("field does not match grid along axis")
    if out is None:
        out = np.empty_like(values)
    if axis > 0:
        _periodic_central(values, axis, 1, out)
    else:
        np.subtract(values[2:], values[:-2], out=out[1:-1])
        out[0] = -3.0 * values[0] + 4.0 * values[1] - values[2]
        out[-1] = 3.0 * values[-1] - 4.0 * values[-2] + values[-3]
    out /= 2.0 * h
    return out


def diff_axis_transpose(grid, values, axis, out=None):
    """Exact transpose of :func:`diff_axis` as a linear map on nodal
    values, written to ``out`` (as in :func:`diff_axis`) when given."""
    h = grid.spacing(axis)
    n = grid.n_axes[axis]
    if values.shape[axis] != n:
        raise ShapeMismatch("field does not match grid along axis")
    if out is None:
        out = np.empty_like(values)
    if axis > 0:
        # transpose of the circulant central stencil is its negative
        _periodic_central(values, axis, -1, out)
    else:
        # each row gathers the central rows of its two neighbours; the
        # first and last three rows also collect the one-sided end rows
        # (the normal axis has at least 8 nodes, so these rows differ)
        np.subtract(values[1:-3], values[3:-1], out=out[2:-2])
        out[0] = -3.0 * values[0] - values[1]
        out[1] = 4.0 * values[0] - values[2]
        out[2] -= values[0]
        out[-1] = 3.0 * values[-1] + values[-2]
        out[-2] = values[-3] - 4.0 * values[-1]
        out[-3] += values[-1]
    out /= 2.0 * h
    return out


# --- gradient / divergence / laplacian ------------------------------------

def frame_components(grid, values, out=None):
    """Components of tensor values along the frame vectors, in one
    product: out[ax] = values . basis[ax], of shape (dim,) +
    values.shape[:-1], written to ``out`` (C-contiguous) when given."""
    n = values.shape[-1]
    if out is None:
        out = np.empty((grid.dim,) + values.shape[:-1])
    np.matmul(grid.frame.basis, values.reshape(-1, n).T,
              out=out.reshape(grid.dim, -1))
    return out


def gradient(f):
    """Gradient of a StateField, in physical components.

    Returns a TensorField with values[..., a, p] = sum_ax (D_ax f_a) b_ax[p]
    where b_ax are the frame vectors: the stacked axis derivatives times
    the basis, in one product.
    """
    grid = f.grid
    d = np.empty(f.values.shape + (grid.dim,))
    for ax in range(grid.dim):
        diff_axis(grid, f.values, ax, out=d[..., ax])
    out = np.empty_like(d)
    np.matmul(d.reshape(-1, grid.dim), grid.frame.basis,
              out=out.reshape(-1, grid.dim))
    return TensorField(grid, out)


def divergence(v):
    """Divergence of a TensorField, defined as the exact negative weighted
    adjoint of :func:`gradient` under the quadrature inner product.

    With this definition <grad u, V>_w = -<u, div V>_w holds to round-off
    for all fields, which is what makes the Poisson solve variational and
    the duality identities exact discretely.
    """
    grid = v.grid
    w = grid.node_weights()[..., None]
    comps = frame_components(grid, v.values)
    out = np.zeros(grid.shape + (v.rows,))
    for ax in range(grid.dim):
        out -= diff_axis_transpose(grid, w * comps[ax], ax)
    return StateField(grid, out / w)


def laplacian(f):
    """Discrete Laplacian as the exact composition div(grad)."""
    return divergence(gradient(f))


def inner(grid, a, b):
    """Quadrature inner product of two nodal arrays (components summed):
    one weighted dot over the flattened (nodes, components) product."""
    w = grid.node_weights().ravel()
    return float(np.sum(w @ (a * b).reshape(w.size, -1)))


def smooth_noise(grid, noise):
    """Two passes of the three-point average along every grid axis of a
    nodal array (periodic axes wrap; the normal axis keeps its end
    slabs), so that random starts are not hopeless for line searches."""
    for _ in range(2):
        for ax in range(grid.dim):
            if ax > 0:
                noise = (noise + np.roll(noise, 1, axis=ax)
                         + np.roll(noise, -1, axis=ax)) / 3.0
            else:
                sm = noise.copy()
                sm[1:-1] = (noise[:-2] + noise[1:-1] + noise[2:]) / 3.0
                noise = sm
    return noise
