"""Desk-scale limsup check: recovery fields across a straight interface
and the epsilon sweep of the full energy against (cell energy) x
(interface length).

The domain is the unit cell of the interface frame: normal axis across
the interface, lateral axes periodic, so a straight interface of unit
measure.  The recovery field sweeps the optimal cell profile across a
collar of physical width proportional to epsilon and matches the pure
states exactly outside; its energy density carries the 1/epsilon
scaling, and the nonlocal term uses the padded-box whole-space
surrogate with the indicator-truncated flux as source.
"""

import csv
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cellopt import (OptimizerOptions, compute_cell_energy, local_integrals,
                      smoothstep)
from .errors import CellGammaError, EpsilonTooLarge, ShapeMismatch
from .grid import CellGrid, StateField, build_cell_grid, build_frame
from .poisson import BcVariant, padded_box_nonlocal_energy


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

    @property
    def interface_length(self):
        return 1.0


@dataclass
class SweepRow:
    epsilon: float
    full_energy: float
    predicted: float
    ratio: float
    error: str = dc_field(default="")


# --- recovery construction --------------------------------------------------

def _interp_profile(cell, u, lat_coords):
    """Sample the cell profile at normal coordinate u (clipped to the
    cell) and periodically wrapped lateral coordinates."""
    # imported here: scipy.interpolate adds about half a second to the
    # package import, and only the sweep needs it
    from scipy.interpolate import RegularGridInterpolator
    cgrid = cell.profile.grid
    vals = cell.profile.values
    axes = [cgrid.axis_coords(0)]
    pad_vals = vals
    for ax in range(1, cgrid.dim):
        c = cgrid.axis_coords(ax)
        axes.append(np.concatenate([c, [c[0] + 1.0]]))
        first = np.take(pad_vals, [0], axis=ax)
        pad_vals = np.concatenate([pad_vals, first], axis=ax)
    itp = RegularGridInterpolator(tuple(axes), pad_vals, method="linear")
    pts = [u]
    for c in lat_coords:
        wrapped = np.mod(c + 0.5, 1.0) - 0.5
        pts.append(np.broadcast_to(wrapped, u.shape))
    return itp(np.stack(pts, axis=-1))


def build_recovery_field(domain, cell, epsilon):
    """Sweep of the optimal cell profile across the interface.

    The cell pair (profile, L*) is reparametrization-covariant: mapping
    the whole cell to physical width delta = epsilon / L* reproduces
    the cell energy exactly under the 1/epsilon scaling (the scale
    multiplies the gradient term, so the profile width varies inversely
    with L).  Outside an O(epsilon) collar the deviation from the pure
    states is tapered to zero with a clamped cubic, making the field
    exactly phi-/phi+ beyond the collar.
    """
    if not epsilon > 0:  # also catches NaN
        raise EpsilonTooLarge("epsilon must be positive")
    avail = 0.5 - abs(domain.offset)
    if epsilon >= 0.5 * avail:
        raise EpsilonTooLarge(
            f"epsilon {epsilon} too large for box thickness {2 * avail}")
    grid = domain.build_grid()
    delta = epsilon / cell.L_star
    s = grid.coords_normal() - domain.offset
    u = np.clip(s / delta, -0.5, 0.5)
    lat_coords = []
    for ax in range(1, grid.dim):
        c = grid.axis_coords(ax)
        shape = [1] * grid.dim
        shape[ax] = -1
        lat_coords.append((c.reshape(shape) * np.ones(grid.shape)) / delta)
    zeta = _interp_profile(cell, u, lat_coords)

    m = cell.profile.values.shape[-1]
    phi_minus = cell.profile.values.reshape(cell.profile.grid.n_axes[0], -1, m)[0, 0]
    phi_plus = cell.profile.values.reshape(cell.profile.grid.n_axes[0], -1, m)[-1, 0]
    step = np.where((s >= 0.0)[..., None], phi_plus, phi_minus)

    s_out = min(2.0 * epsilon, 0.9 * avail)
    s_in = 0.7 * s_out
    q = 2.0 * (np.abs(s) - s_in) / (s_out - s_in) - 1.0
    taper = 1.0 - smoothstep(q)
    psi = step + taper[..., None] * (zeta - step)
    return StateField(grid, psi)


# --- energy evaluation ------------------------------------------------------

def evaluate_full_energy(field, epsilon, specs, domain, pad_factor=4):
    """The full epsilon-scaled energy of a field on the box: local
    terms by element quadrature with L = epsilon, nonlocal term from
    the padded-box solve with the indicator-truncated flux as source."""
    grid = field.grid
    if field.values.shape != grid.shape + (specs.m,):
        raise ShapeMismatch("field does not fit the domain grid")
    EG, EW = local_integrals(grid, field.values, specs)
    total = epsilon * EG + EW / epsilon
    if not specs.Psi.is_zero:
        M = specs.Psi.value(field.values)
        spacings = [grid.spacing(ax) for ax in range(grid.dim)]
        e_nl, _ = padded_box_nonlocal_energy(M, spacings, pad_factor=pad_factor)
        total += e_nl / epsilon
    return float(total)


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
    predicted = cell.energy.total * domain.interface_length
    rows = []
    for e in eps:
        try:
            field = build_recovery_field(domain, cell, e)
            fe = evaluate_full_energy(field, e, specs, domain)
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
    """CSV emission: header mandatory, 17-significant-digit decimals."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epsilon", "full_energy", "predicted", "ratio"])
        for r in rows:
            w.writerow([f"{r.epsilon:.17g}", f"{r.full_energy:.17g}",
                        f"{r.predicted:.17g}", f"{r.ratio:.17g}"])
