"""Desk-scale limsup check: recovery fields across a straight interface
and the epsilon sweep of the full energy against (cell energy) x
(interface length).

The domain is the unit cell of the interface frame: normal axis across
the interface, lateral axes periodic, so a straight interface of unit
measure.  The recovery field is the optimal cell profile with its
normal axis mapped to physical width epsilon / L*, so it is exactly
phi-/phi+ wherever the mapped cell's pinned end slabs lie, and its
lateral period fitted to a whole number of copies per box period, so it
has no seam.  Its energy density carries the 1/epsilon scaling, and the
nonlocal term is the same periodic Neumann potential solve as the
cell's, on the domain grid.
"""

import csv
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cellopt import (CellEvaluation, EnergyBreakdown, OptimizerOptions,
                      compute_cell_energy)
from .errors import CellGammaError, EpsilonTooLarge, ShapeMismatch
from .grid import CellGrid, StateField, build_cell_grid, build_frame
from .poisson import BcVariant
from .report import format_float


@dataclass(frozen=True)
class DomainSpec:
    """Unit box in the frame of the interface normal.

    The interface is the hyperplane {x . nu = offset} clipped to the
    box; lateral axes are periodic, so the interface measure is 1.
    """

    nu: np.ndarray
    resolution: int
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "nu", np.asarray(self.nu, dtype=np.float64))
        if self.resolution < 32:
            raise ShapeMismatch("domain resolution must be at least 32 per axis")
        if not abs(self.offset) < 0.5:
            raise ShapeMismatch("interface must cut the box interior")

    def build_grid(self):
        frame = build_frame(self.nu)
        return CellGrid(frame=frame, n_axes=(self.resolution,) * frame.dim)


@dataclass
class SweepRow:
    epsilon: float
    full_energy: float
    predicted: float
    ratio: float
    error: str = dc_field(default="")


# --- recovery construction --------------------------------------------------

def _lerp_axis(values, axis, p):
    """Linear interpolation along one axis at fractional node positions
    p, as v0 + t (v1 - v0): exact at nodes and between equal neighbours.
    Node 0 follows the last node: the periodic wrap, and a clamp at the
    last normal node, where t = 0."""
    n, i0 = values.shape[axis], np.floor(p).astype(np.intp)
    shape = [1] * values.ndim
    shape[axis] = -1
    v0 = np.take(values, i0 % n, axis=axis)
    v1 = np.take(values, (i0 + 1) % n, axis=axis)
    return v0 + (p - i0).reshape(shape) * (v1 - v0)


def build_recovery_field(domain, cell, epsilon):
    """Sweep of the optimal cell profile across the interface.

    The cell pair (profile, L*) is reparametrization-covariant: mapping
    the cell's normal axis to physical width delta = epsilon / L*
    reproduces the cell energy under the 1/epsilon scaling.  The normal
    coordinate s maps to clip(s / delta, -1/2, 1/2), so the field is
    exactly phi-/phi+ for |s| >= epsilon / (2 L*); where that exceeds
    the box, the box faces cut the tails.  Each lateral axis holds N =
    max(1, round(L* / epsilon)) cell periods, a stretch of delta N -> 1,
    so the field is periodic across the box seam.  The sample points
    form a tensor product, so the multilinear interpolant is linear
    interpolation one axis at a time.
    """
    if not epsilon > 0:  # also catches NaN
        raise EpsilonTooLarge("epsilon must be positive")
    avail = 0.5 - abs(domain.offset)
    if epsilon >= 0.5 * avail:
        raise EpsilonTooLarge(
            f"epsilon {epsilon} too large for box thickness {2 * avail}")
    grid, cgrid = domain.build_grid(), cell.profile.grid
    if cgrid.dim != grid.dim:
        raise ShapeMismatch("cell and domain differ in dimension")
    delta, n = epsilon / cell.L_star, cgrid.n_axes[0]
    u = np.clip((grid.axis_coords(0) - domain.offset) / delta, -0.5, 0.5)
    values = _lerp_axis(cell.profile.values, 0, (u + 0.5) * (n - 1))
    periods = max(1, round(cell.L_star / epsilon))
    for ax in range(1, grid.dim):
        n = cgrid.n_axes[ax]
        p = np.mod((grid.axis_coords(ax) * periods + 0.5) * n, n)
        values = _lerp_axis(values, ax, p)
    return StateField(grid, values)


# --- energy evaluation ------------------------------------------------------

def evaluate_full_energy(field, epsilon, specs):
    """The full epsilon-scaled energy of a field on the box: the cell's
    evaluation on the box grid at L = epsilon, local terms by element
    quadrature and the nonlocal term from the periodic Neumann potential
    solve."""
    grid = field.grid
    if field.values.shape != grid.shape + (specs.m,):
        raise ShapeMismatch("field does not fit the domain grid")
    ev = CellEvaluation(grid, field.values, specs, BcVariant.NEUMANN)
    return EnergyBreakdown.at_scale(ev.A, ev.EW, ev.BH, epsilon).total


# --- sweep ------------------------------------------------------------------

def run_gamma_sweep(domain, jump, specs, epsilons, cell=None, opts=None):
    """One SweepRow per epsilon (strictly decreasing); per-epsilon
    failures are recorded in the row's error field and the sweep
    continues.  Without ``cell`` the cell problem is solved with 257
    normal nodes and 8 per lateral axis.  Ratio convention: 0/0
    reports as 1."""
    eps = [float(e) for e in epsilons]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ShapeMismatch("epsilons must be strictly decreasing")
    if cell is None:
        cell_grid = build_cell_grid(build_frame(jump.nu), 257, n_lateral=8)
        cell = compute_cell_energy(jump, specs, cell_grid, BcVariant.NEUMANN,
                                   opts or OptimizerOptions())
    predicted = cell.energy.total
    rows = []
    for e in eps:
        try:
            field = build_recovery_field(domain, cell, e)
            fe = evaluate_full_energy(field, e, specs)
            if predicted == 0.0:
                ratio = 1.0 if fe == 0.0 else np.inf
            else:
                ratio = fe / predicted
            rows.append(SweepRow(epsilon=e, full_energy=fe,
                                 predicted=predicted, ratio=float(ratio)))
        except CellGammaError as exc:
            rows.append(SweepRow(epsilon=e, full_energy=float("nan"),
                                 predicted=predicted, ratio=float("nan"),
                                 error=f"{type(exc).__name__}: {exc}"))
    return rows


def write_sweep_csv(rows, path):
    """CSV emission in the dialect of report.csv: header mandatory,
    17-significant-digit decimals, LF line endings."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["epsilon", "full_energy", "predicted", "ratio"])
        for r in rows:
            w.writerow([format_float(v) for v in (r.epsilon, r.full_energy,
                                                  r.predicted, r.ratio)])
