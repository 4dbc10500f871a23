"""The benchmark's three workloads.

Each workload is one fixed round of problems made from the seed.  A run
repeats that round, so every round does the same work and must give the
same energy, counts and convergence flags.

- ``micromag_wall``: the 180 degree wall of ``micromagnetics_2d`` on a
  32x32 Neumann cell from the tanh start of the default multistart.  It
  is the only catalog model with stray-field flux, so a potential solve
  sits inside every line-search trial; fewer solves per iteration show
  here.
- ``poisson_large``: potential solves on a 256x256 cell with random
  one-row fluxes and no optimizer; the dense per-mode algebra of the
  solve shows here.
- ``burgers_shock``: the standing Burgers shock on a 256x16 space-time
  cell from the unperturbed start.  It has no potential solve and stops
  at the iteration cap, so the shock optimizer shows here.

The optimizer workloads run one start each, so that a run repeats a
round of a few seconds many times and reports a median: on a shared
2-core x86-64 machine single rounds of 10 to 30 s varied by up to 40%
within a run.  The other starts add no new code path: the geodesic
start is the same optimizer from another profile, and the random
starts add seed-dependent work (the whole 32x32 multistart took from
29 s to 65 s depending on the seed; on some seeds it ends in a
lower-energy wall with stray field).  The seed therefore reaches the
optimizers through ``OptimizerOptions(seed=...)`` but draws nothing;
it makes the fluxes of ``poisson_large``.

Set-up (``load`` then ``prepare``) is the import of ``cellgamma``, the
grids, and the first call per (grid, bc) that fills the per-grid
caches.  Input generation is not part of it.
"""

import time

import numpy as np

MICROMAG_CELL = 32
POISSON_CELL = 256
FLUXES_PER_ROUND = 12
SHOCK_NORMAL, SHOCK_TIME = 256, 16


class RoundOutcome:
    """What one round of a workload did and whether it was right."""

    def __init__(self):
        self.problems = 0
        self.failures = []         # one message per failed problem
        self.unconverged = 0
        self.energies = []
        self.iterations_best = 0
        self.call_seconds = []     # latency of each timed public call

    @property
    def energy(self):
        return float(np.mean(self.energies)) if self.energies else float("nan")

    def check(self, conditions):
        """Record one failure listing every (passed, message) that failed."""
        failed = [msg for ok, msg in conditions if not ok]
        if failed:
            self.failures.append("; ".join(failed))

    def fingerprint(self):
        """The deterministic part of the outcome, for round-to-round checks."""
        return (self.problems, len(self.failures), self.unconverged,
                tuple(self.energies), self.iterations_best)


def _timed(out, fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    out.call_seconds.append(time.perf_counter() - t0)
    return result


class _Workload:
    name = ""
    optimizer_layer = None   # module whose optimizer the round runs
    min_calls = 1

    def __init__(self, seed):
        self.seed = seed

    def load(self):
        """Import the package; returns the modules the tracer wraps."""
        import scipy.fft

        import cellgamma
        from cellgamma import cellopt, hyperbolic, model, poisson
        from cellgamma import grid as cgrid

        self.cellopt, self.hyperbolic, self.poisson = cellopt, hyperbolic, poisson
        self.model, self.cgrid = model, cgrid
        # a package without compiled kernels has no flag to read
        self.have_compiled = getattr(cellgamma, "HAVE_COMPILED", False)
        return {"cellopt": cellopt, "hyperbolic": hyperbolic,
                "poisson": poisson, "scipy.fft": scipy.fft}

    def prepare(self):
        raise NotImplementedError

    def make_inputs(self):
        pass

    def run_round(self):
        raise NotImplementedError


class MicromagWall(_Workload):
    name = "micromag_wall"
    optimizer_layer = "cellopt"

    def prepare(self):
        cg, co = self.cgrid, self.cellopt
        self.specs = self.model.catalog_lookup("micromagnetics_2d")
        self.jump = self.model.JumpData(phi_plus=[0.0, 1.0, 0.0],
                                        phi_minus=[0.0, -1.0, 0.0],
                                        nu=[1.0, 0.0])
        n = MICROMAG_CELL
        self.grid = cg.build_cell_grid(cg.build_frame([1.0, 0.0]), n,
                                       n_lateral=n)
        self.bc = self.poisson.BcVariant.NEUMANN
        start = co.init_profiles(self.jump, self.specs, self.grid,
                                 "one_dimensional_tanh")[0]
        co.energy_gradient(start, 1.0, self.specs, self.jump, self.bc)

    def run_round(self):
        out = RoundOutcome()
        out.problems = 1
        co = self.cellopt
        try:
            sol = _timed(out, co.compute_cell_energy, self.jump, self.specs,
                         self.grid, self.bc,
                         co.OptimizerOptions(seed=self.seed,
                                             strategies=["one_dimensional_tanh"]))
        except Exception as exc:  # a raised solve is a failed problem
            out.failures.append(f"{type(exc).__name__}: {exc}")
            return out
        e = sol.energy
        off_sphere = float(np.max(np.abs(
            np.linalg.norm(sol.profile.values, axis=-1) - 1.0)))
        out.check([
            (e.total <= 4.0 * 1.01, f"energy {e.total} above 4 * 1.01"),
            (e.nonlocal_term <= 1e-6, f"nonlocal term {e.nonlocal_term} above 1e-6"),
            (off_sphere <= 1e-10, f"profile leaves the unit sphere by {off_sphere}"),
        ])
        out.energies.append(float(e.total))
        out.unconverged = int(not sol.converged)
        out.iterations_best = int(sol.iterations)
        return out


class PoissonLarge(_Workload):
    name = "poisson_large"
    # three timed calls per flux; a run makes at least 100 of them so
    # that the 90th percentile has ten samples beyond it
    min_calls = 100

    def prepare(self):
        cg, po = self.cgrid, self.poisson
        n = POISSON_CELL
        self.grid = cg.build_cell_grid(cg.build_frame([1.0, 0.0]), n,
                                       n_lateral=n)
        zero = cg.TensorField(self.grid, np.zeros(self.grid.shape + (1, 2)))
        for bc in po.BcVariant.CELL_KINDS:
            po.solve_cell_poisson(zero, bc, check_compat=False)

    def make_inputs(self):
        # standard normal fluxes scaled to unit weighted norm, so that the
        # mean energy (the share of |M|^2 carried by grad H) barely
        # depends on the seed
        shape = self.grid.shape + (1, 2)
        w = self.grid.node_weights()[..., None, None]
        self.fluxes = []
        for i in range(FLUXES_PER_ROUND):
            rng = np.random.Generator(np.random.Philox(key=(self.seed, i)))
            m = rng.standard_normal(shape)
            m /= np.sqrt(np.sum(w * np.square(m)))
            self.fluxes.append(self.cgrid.TensorField(self.grid, m))
        self.m_sq = [float(np.sum(w * np.square(M.values))) for M in self.fluxes]

    def run_round(self):
        out = RoundOutcome()
        po = self.poisson
        neumann, dirichlet = po.BcVariant.NEUMANN, po.BcVariant.DIRICHLET
        for M, m_sq in zip(self.fluxes, self.m_sq):
            out.problems += 1
            try:
                # random fluxes are not flux-balanced, so the Neumann
                # compatibility guard is off
                e_n, _ = _timed(out, po.nonlocal_energy, M, neumann,
                                check_compat=False)
                e_d, _ = _timed(out, po.nonlocal_energy, M, dirichlet,
                                check_compat=False)
                rep = _timed(out, po.duality_gap, M, neumann)
            except Exception as exc:
                out.failures.append(f"{type(exc).__name__}: {exc}")
                continue
            out.check([
                (np.all(np.isfinite([e_n, e_d, rep.gap])),
                 "non-finite energy or gap"),
                (rep.gap <= 1e-9 * (1.0 + m_sq),
                 f"duality gap {rep.gap} above 1e-9 (1 + |M|^2)"),
                (e_d <= e_n + 1e-9 * (1.0 + e_n),
                 f"Dirichlet {e_d} above Neumann {e_n}"),
            ])
            out.energies.append(float(e_n))
        return out


class BurgersShock(_Workload):
    name = "burgers_shock"
    optimizer_layer = "hyperbolic"

    def prepare(self):
        hy = self.hyperbolic
        self.burgers = self.model.catalog_lookup("burgers")
        self.jump = self.model.SpaceTimeJumpData(
            u_plus=[-1.0], u_minus=[1.0], nu_y=[1.0], nu_s=0.0)
        self.grid = hy.build_shock_grid(self.jump, SHOCK_NORMAL,
                                        n_time=SHOCK_TIME)
        hy.build_base_fields(self.jump, self.burgers.flux, self.grid)

    def run_round(self):
        out = RoundOutcome()
        out.problems = 1
        hy = self.hyperbolic
        try:
            sol = _timed(out, hy.compute_shock_cell_energy, self.jump,
                         self.burgers.flux, self.burgers.entropy, self.grid,
                         self.cellopt.OptimizerOptions(seed=self.seed, n_random=0))
        except Exception as exc:
            out.failures.append(f"{type(exc).__name__}: {exc}")
            return out
        total = float(sol.energy.total)
        out.check([(abs(total - 4.0 / 3.0) <= 0.01 * 4.0 / 3.0,
                    f"energy {total} not within 1% of 4/3")])
        out.energies.append(total)
        out.unconverged = int(not sol.converged)
        out.iterations_best = int(sol.iterations)
        return out


WORKLOADS = {w.name: w for w in (MicromagWall, PoissonLarge, BurgersShock)}
