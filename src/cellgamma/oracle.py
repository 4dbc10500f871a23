"""Slow reference computations: 1D geodesic path energies by Dijkstra
over a sampled state space, many-start minimization on tiny grids, and
finite-difference gradients.  The geodesic paths and the finite
differences are independent of the fast solvers; the many-start minimum
runs the cell optimizer itself, so it checks the start selection only.

The geodesic cost density is 2 |r'| sqrt(W(r) + |(Psi(r) - Psi(phi-)).nu|^2):
for one-dimensional profiles the potential gradient reduces to the
antiderivative of the normal flux increment, and relaxing the scale
turns the cell energy into this path length.  Oracle tolerances are
intentionally loose (0.5 - 5 percent); they certify magnitudes.
"""

import heapq

import numpy as np

from .errors import DimensionTooLarge, ProblemTooLarge


def _cost_density(specs, jump, states):
    """Pointwise cost 2 sqrt(W + |(Psi - Psi(phi-)).nu|^2), vectorized."""
    w = specs.W.value(states)
    dpsi = (specs.Psi.value(states) - specs.Psi.value(jump.phi_minus)) @ jump.nu
    pot = np.sum(np.square(dpsi), axis=-1)
    return 2.0 * np.sqrt(np.maximum(w + pot, 0.0))


def _dijkstra(n_nodes, edges, source, target):
    """Node path of least cost; edges: adjacency list of (neighbor, cost)."""
    dist = np.full(n_nodes, np.inf)
    dist[source] = 0.0
    prev = np.full(n_nodes, -1, dtype=np.int64)
    heap = [(0.0, source)]
    seen = np.zeros(n_nodes, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if seen[u]:
            continue
        seen[u] = True
        if u == target:
            break
        for v, c in edges[u]:
            nd = d + c
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    path = [target]
    while path[-1] != source:
        p = prev[path[-1]]
        if p < 0:
            raise RuntimeError("target unreachable in oracle graph")
        path.append(p)
    return path[::-1]


def _lattice_path(specs, jump, points, shape, wrap_axes=()):
    """Cheapest path between the lattice nodes nearest phi- and phi+, by
    Dijkstra over a lattice of states with all neighbor moves, diagonal
    ones included, and trapezoid edge costs.  ``points`` is (n_nodes, m)
    in the row-major order of ``shape``; the axes in ``wrap_axes`` are
    periodic.  Returns the path states with the endpoints set to phi-
    and phi+ exactly."""
    nd = len(shape)
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    offsets = [off for off in np.ndindex(*(3,) * nd)
               if any(o != 1 for o in off)]
    pair_list = []
    for off in offsets:
        dst = idx
        ok = np.ones(shape, dtype=bool)
        for ax, o in enumerate(off):
            shift = o - 1
            if shift == 0:
                continue
            dst = np.roll(dst, -shift, axis=ax)
            if ax not in wrap_axes:
                sl = [slice(None)] * nd
                sl[ax] = slice(0, -shift) if shift > 0 else slice(-shift, None)
                keep = np.zeros(shape, dtype=bool)
                keep[tuple(sl)] = True
                ok &= keep
        pair_list.append(np.stack([idx[ok], dst[ok]], axis=1))
    pairs = np.concatenate(pair_list)
    c = _cost_density(specs, jump, points)
    seg = np.linalg.norm(points[pairs[:, 1]] - points[pairs[:, 0]], axis=-1)
    costs = 0.5 * (c[pairs[:, 0]] + c[pairs[:, 1]]) * seg
    edges = [[] for _ in range(points.shape[0])]
    for (a, b), cost in zip(pairs, costs):
        edges[a].append((b, cost))
    source, target = (int(np.argmin(np.sum((points - phi) ** 2, axis=1)))
                      for phi in (jump.phi_minus, jump.phi_plus))
    states = points[_dijkstra(points.shape[0], edges, source, target)]
    states[0] = jump.phi_minus
    states[-1] = jump.phi_plus
    return states


def _box_lattice(jump, sampling):
    """Tensor lattice of ``sampling`` states per axis over the box of the
    jump states, widened by a quarter of its span on each side, with
    both jump states added as nodes."""
    lo = np.minimum(jump.phi_minus, jump.phi_plus)
    hi = np.maximum(jump.phi_minus, jump.phi_plus)
    span = np.maximum(hi - lo, 1e-6)
    lo = lo - 0.25 * span
    hi = hi + 0.25 * span
    axes = [np.unique(np.concatenate([np.linspace(lo[a], hi[a], sampling),
                                      [jump.phi_minus[a], jump.phi_plus[a]]]))
            for a in range(lo.size)]
    points = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")],
                      axis=1)
    return points, tuple(x.size for x in axes)


def _sphere_frame(phi_minus, phi_plus):
    """Orthonormal (e1, e2, e3) with e1 = phi-, chosen deterministically
    so that phi+ lies in the span of (e1, e2) whenever possible."""
    e1 = phi_minus / np.linalg.norm(phi_minus)
    res = phi_plus - (phi_plus @ e1) * e1
    n = np.linalg.norm(res)
    if n > 1e-12:
        e2 = res / n
    else:
        # antipodal or equal: any orthogonal direction; deterministic pick
        k = int(np.argmin(np.abs(e1)))
        v = np.zeros(3)
        v[k] = 1.0
        e2 = v - (v @ e1) * e1
        e2 /= np.linalg.norm(e2)
    e3 = np.cross(e1, e2)
    return e1, e2, e3


def _sphere_lattice(jump, sampling):
    """Polar lattice on the unit sphere about phi-: polar angle from
    phi- by azimuth, the azimuth periodic."""
    e1, e2, e3 = _sphere_frame(jump.phi_minus, jump.phi_plus)
    theta = np.linspace(0.0, np.pi, sampling)       # polar angle from phi-
    psi = np.linspace(0.0, 2.0 * np.pi, sampling, endpoint=False)
    T, P = np.meshgrid(theta, psi, indexing="ij")
    pts = (np.cos(T)[..., None] * e1
           + (np.sin(T) * np.cos(P))[..., None] * e2
           + (np.sin(T) * np.sin(P))[..., None] * e3)
    return pts.reshape(-1, 3), (sampling, sampling)


def geodesic_path_1d(jump, specs, sampling=200):
    """Optimal transition path through state space, endpoints exact."""
    m = specs.m
    jump.check_state_length(m)
    if specs.constraint.kind == "unit_sphere":
        if m != 3:
            raise DimensionTooLarge("sphere oracle implemented for m = 3")
        points, shape = _sphere_lattice(jump, sampling)
        return _lattice_path(specs, jump, points, shape, wrap_axes=(1,))
    if m > 2:
        raise DimensionTooLarge("unconstrained oracle implemented for m <= 2")
    points, shape = _box_lattice(jump, sampling)
    return _lattice_path(specs, jump, points, shape)


def geodesic_energy_1d(jump, specs, sampling=200):
    """Shortest-path 1D cell energy (the scale-relaxed lower envelope)."""
    states = geodesic_path_1d(jump, specs, sampling)
    c = _cost_density(specs, jump, states)
    seg = np.linalg.norm(np.diff(states, axis=0), axis=-1)
    return float(np.sum(0.5 * (c[:-1] + c[1:]) * seg))


def brute_force_cell_min(jump, specs, grid, bc=None, n_starts=64, seed=0):
    """The cell optimizer run from ``n_starts`` starts on a tiny grid;
    tests only.  It shares the optimizer it checks, so it bounds what
    more starts would find, not the true minimum."""
    from .cellopt import OptimizerOptions, compute_cell_energy
    from .poisson import BcVariant
    n_interior = (grid.shape[0] - 2) * int(np.prod(grid.shape[1:])) * specs.m
    if n_interior > 200:
        raise ProblemTooLarge(f"{n_interior} unknowns exceed the oracle budget")
    bc = bc or BcVariant.NEUMANN
    opts = OptimizerOptions(
        seed=seed,
        strategies=["one_dimensional_tanh", "geodesic_sweep",
                    ("random_perturbed", n_starts - 2, 0.2)])
    return compute_cell_energy(jump, specs, grid, bc, opts).energy.total


def finite_difference_gradient(profile, L, specs, jump, bc=None, step=1e-6):
    """Central differences of assemble_energy, interior nodes only."""
    from .cellopt import assemble_energy
    from .grid import StateField
    from .poisson import BcVariant
    bc = bc or BcVariant.NEUMANN
    if step <= 0:
        raise ValueError("step must be positive")
    v = profile.values
    out = np.zeros_like(v)
    grid = profile.grid
    for idx in np.ndindex(v.shape):
        if idx[0] == 0 or idx[0] == v.shape[0] - 1:
            continue
        vp = v.copy(); vp[idx] += step
        vm = v.copy(); vm[idx] -= step
        ep = assemble_energy(StateField(grid, vp), L, specs, jump, bc).total
        em = assemble_energy(StateField(grid, vm), L, specs, jump, bc).total
        out[idx] = (ep - em) / (2.0 * step)
    return StateField(grid, out)
