"""Orthonormal frames, unit-cell grids, and discrete differential operators.

The cell lives in the coordinates of an orthonormal frame whose first
vector is the jump normal.  The normal axis spans [-1/2, 1/2] with both
end slabs included (they carry the pinned states), lateral axes span the
half-open periodic interval [-1/2, 1/2).

Discrete calculus convention: the grid's one derivative is a set of
sparse matrices, built once per node counts and frame
(:func:`derivatives`).  Along each axis it has second-order central
rows, one-sided second-order rows at the normal ends and wrapped rows on
periodic axes; the physical derivatives d_j combine the axis matrices
through the frame.  The gradient applies the d_j as one matrix, and
the divergence, the exact negative weighted adjoint of the gradient,
applies its weighted transpose.  This makes summation by parts, the
Leray projection, and the composition laplacian = div(grad) hold to
round-off, not just to truncation order.  The potential solve and the
shock layer use the same matrices, and one table of the lateral Fourier
modes (:func:`lateral_modes`).

State kept between calls lives here too: per-grid tables in one
bounded store per kind (:func:`cached`), and per-thread work areas, one
per kind (:func:`work_area`).
"""

import math
import threading
from collections import defaultdict
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
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer))
               for n in self.n_axes):
            raise ShapeMismatch(f"node counts must be integers, got {self.n_axes!r}")
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

    @property
    def lateral_measure(self):
        """Product of the lateral spacings: the measure of one node
        column's cross-section."""
        return math.prod(self.spacing(ax) for ax in range(1, self.dim))

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


def check_normal(grid, nu):
    """Raise ShapeMismatch unless the grid's frame was built for the
    normal nu (to 1e-10, the tolerance of a unit normal)."""
    nu = np.asarray(nu, dtype=np.float64)
    own = grid.frame.nu
    if nu.shape != own.shape or not np.max(np.abs(nu - own)) <= 1e-10:
        raise ShapeMismatch(
            f"grid built for the normal {own.tolist()}, not {nu.tolist()}")


def lateral_modes(grid):
    """The lateral Fourier modes, flat in the order of ``scipy.fft.rfftn``
    over the lateral axes: their shape, and per lateral axis (rows) the
    frequency m of every mode (signed, but halved on the last axis) and
    its central-difference symbol sigma = sin(2 pi m / n) / h, for which
    the wrapped central derivative is i sigma."""
    lat = grid.n_axes[1:]
    ks = [np.fft.fftfreq(n) * n for n in lat[:-1]]
    ks.append(np.arange(lat[-1] // 2 + 1, dtype=np.float64))
    syms = [np.sin(2.0 * np.pi * k / n) / grid.spacing(ax)
            for ax, (k, n) in enumerate(zip(ks, lat), start=1)]
    freq, sigma = (np.stack([a.ravel() for a in np.meshgrid(*v, indexing="ij")])
                   for v in (ks, syms))
    return tuple(k.size for k in ks), freq, sigma


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


# --- derivative matrices --------------------------------------------------

def _axis_matrix(grid, axis):
    """The derivative along one grid axis as a dense matrix: central
    rows, one-sided second-order end rows on the pinned normal axis,
    wrapped rows on periodic axes (zero under 3 nodes, where both
    neighbours are one node)."""
    n = grid.n_axes[axis]
    d = np.zeros((n, n))
    i = np.arange(n)
    if axis == 0:
        d[i[1:-1], i[2:]] = 1.0
        d[i[1:-1], i[:-2]] = -1.0
        d[0, :3] = -3.0, 4.0, -1.0
        d[-1, -3:] = 1.0, -4.0, 3.0
    elif n >= 3:
        d[i, (i + 1) % n] = 1.0
        d[i, (i - 1) % n] = -1.0
    return d / (2.0 * grid.spacing(axis))


class Derivatives:
    """The derivative matrices of a grid, all CSR: ``axes[ax]`` along one
    axis, on its nodes; the physical ``d[j]`` = sum_ax basis[ax, j] D_ax
    on the flat nodes, where D_ax is ``axes[ax]`` kron'ed with the
    identities of the other axes; their transposes ``dt[j]``; and, built
    on first use, ``grad``, the rows of the d[j] interleaved by node, and
    its weighted adjoint ``grad_adjoint``.  Holds no reference to the
    grid."""

    def __init__(self, grid):
        # imported here: scipy.sparse loads scipy.linalg, which every
        # import of the package would otherwise pay
        import scipy.sparse as sp
        self.axes, axis_ops = [], []
        for ax, n in enumerate(grid.n_axes):
            d1 = _axis_matrix(grid, ax)
            self.axes.append(sp.csr_array(d1))
            before = sp.eye_array(int(np.prod(grid.n_axes[:ax])))
            after = sp.eye_array(int(np.prod(grid.n_axes[ax + 1:])))
            axis_ops.append(sp.kron(sp.kron(before, d1), after, format="csr"))
        self.d = [sum(c * op for c, op in zip(grid.frame.basis[:, j], axis_ops)
                      if c != 0.0) for j in range(grid.dim)]
        self.dt = [d.T.tocsr() for d in self.d]
        self.weights = grid.node_weights().ravel()

    @cached_property
    def grad(self):
        """The gradient matrix: row (node, j) is row node of d[j], with
        the same entries in the same order."""
        import scipy.sparse as sp
        n, dim = self.d[0].shape[0], len(self.d)
        by_node = np.arange(n * dim).reshape(dim, n).T.ravel()
        return sp.vstack(self.d, format="csr")[by_node]

    @cached_property
    def grad_adjoint(self):
        """The weighted adjoint grad^T W of :attr:`grad`, W the node
        weights repeated per component: column (node, j) is column node
        of d[j]^T times the weight of that node."""
        import scipy.sparse as sp
        w = np.repeat(self.weights, len(self.d))
        return (sp.diags_array(w) @ self.grad).T.tocsr()


CACHE_SIZE = 8
_stores = defaultdict(dict)
_threads = threading.local()


def cached(kind, key, build):
    """The table of one kind for ``key``, from ``build()`` on a miss.
    Each kind has one bounded store: above CACHE_SIZE entries its oldest
    is evicted."""
    store = _stores[kind]
    value = store.get(key)
    if value is None:
        value = store[key] = build()
        if len(store) > CACHE_SIZE:
            store.pop(next(iter(store)), None)
    return value


def work_area(kind, key, build):
    """This thread's work area of one kind, from ``build()`` when the
    thread has none of that kind yet or built it for another key."""
    areas = _threads.__dict__
    keyed = areas.get(kind)
    if keyed is None or keyed[0] != key:
        keyed = areas[kind] = (key, build())
    return keyed[1]


def derivatives(grid):
    """The :class:`Derivatives` of a grid, cached by its node counts and
    its frame, so grids of one shape and frame share them."""
    return cached("derivatives", (grid.n_axes, grid.frame.basis.tobytes()),
                  lambda: Derivatives(grid))


def apply_nodal(mat, values):
    """A node matrix applied to a nodal array with trailing component
    axes."""
    return (mat @ values.reshape(mat.shape[1], -1)).reshape(values.shape)


# --- gradient / divergence / laplacian ------------------------------------

def gradient(f):
    """Gradient of a StateField, in physical components:
    values[..., a, j] = d_j f_a."""
    grid = f.grid
    out = derivatives(grid).grad @ f.values.reshape(-1, f.values.shape[-1])
    # rows (node, j) to values[..., a, j]; a copy only for several rows
    out = out.reshape(grid.shape + (grid.dim, -1)).swapaxes(-1, -2)
    return TensorField(grid, np.ascontiguousarray(out))


def gradient_adjoint(grid, values):
    """The weighted adjoint of :func:`gradient` applied to nodal tensor
    values (..., l, N): the nodal (..., l) array sum_j d_j^T W v[..., j],
    one product of :attr:`Derivatives.grad_adjoint`."""
    rows = values.shape[-2]
    # values[..., a, j] to rows (node, j); a copy only for several rows
    v = values.reshape(-1, rows, grid.dim).swapaxes(1, 2).reshape(-1, rows)
    return (derivatives(grid).grad_adjoint @ v).reshape(grid.shape + (rows,))


def divergence(v):
    """Divergence of a TensorField, defined as the exact negative weighted
    adjoint of :func:`gradient` under the quadrature inner product:
    -W^-1 grad^T W v.

    With this definition <grad u, V>_w = -<u, div V>_w holds to round-off
    for all fields, which is what makes the Poisson solve variational and
    the duality identities exact discretely.
    """
    grid = v.grid
    w = grid.node_weights()[..., None]
    return StateField(grid, -gradient_adjoint(grid, v.values) / w)


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
