"""End-to-end acceptance runs: one test per headline criterion, each
printing a single PASS/FAIL line with its wall time."""

import time

import numpy as np
import pytest

from cellgamma.cellopt import (OptimizerOptions, assemble_energy,
                               compute_cell_energy, energy_gradient)
from cellgamma.errors import NeumannIncompatible
from cellgamma.gamma import DomainSpec, run_gamma_sweep
from cellgamma.grid import StateField, TensorField, build_cell_grid, build_frame
from cellgamma.hyperbolic import (build_shock_grid, compute_shock_cell_energy,
                                  reduce_to_static_frame)
from cellgamma.model import JumpData, SpaceTimeJumpData, catalog_lookup
from cellgamma.oracle import finite_difference_gradient
from cellgamma.poisson import BcVariant, duality_gap

from test_cellopt import _lateral_flux_specs

DW = catalog_lookup("double_well")
DW_JUMP = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0])
BURGERS = catalog_lookup("burgers")


class _Timer:
    def __init__(self, label, limit=None):
        self.label, self.limit = label, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.seconds = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[ACCEPTANCE] {self.label}: {status} ({self.seconds:.2f}s)")
        return False

    def check_budget(self):
        if self.limit is not None:
            assert self.seconds <= self.limit, (
                f"{self.label} took {self.seconds:.2f}s > {self.limit}s")


def test_01_scalar_double_well_energy():
    with _Timer("scalar double-well cell energy, n=512", limit=5.0) as t:
        g = build_cell_grid(build_frame([1.0]), 512)
        sol = compute_cell_energy(DW_JUMP, DW, g)
        assert 8.0 / 3.0 <= sol.energy.total <= 8.0 / 3.0 * 1.01
    t.check_budget()


def test_02_micromagnetic_wall_energy():
    with _Timer("micromagnetic 180-degree wall, 64x64", limit=60.0) as t:
        mm = catalog_lookup("micromagnetics_2d")
        j = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                     nu=[1.0, 0.0])
        g = build_cell_grid(build_frame([1.0, 0.0]), 64, n_lateral=64)
        sol = compute_cell_energy(j, mm, g, BcVariant.NEUMANN,
                                  OptimizerOptions(seed=0))
        assert sol.energy.total <= 4.0 * 1.01
        assert sol.energy.nonlocal_term <= 1e-6
    t.check_budget()


def test_03_duality_gap_random_fluxes():
    with _Timer("duality gap, 50 random fluxes on 16x16", limit=10.0) as t:
        g = build_cell_grid(build_frame([1.0, 0.0]), 16, n_lateral=16)
        rng = np.random.Generator(np.random.Philox(key=(0, 0)))
        w = g.node_weights()[..., None, None]
        for _ in range(50):
            M = TensorField(g, rng.standard_normal(g.shape + (1, 2)))
            m_sq = float(np.sum(w * np.square(M.values)))
            rep = duality_gap(M, BcVariant.NEUMANN)
            assert rep.gap <= 1e-9 * (1.0 + m_sq)
    t.check_budget()


def test_04_incompatible_flux_guard():
    with _Timer("incompatible normal flux raises under Neumann") as t:
        mm = catalog_lookup("micromagnetics_2d")
        j = JumpData(phi_plus=[1.0, 0.0, 0.0], phi_minus=[0.0, 1.0, 0.0],
                     nu=[1.0, 0.0])
        g = build_cell_grid(build_frame([1.0, 0.0]), 16, n_lateral=8)
        opts = OptimizerOptions(max_iter=40, n_random=0)
        with pytest.raises(NeumannIncompatible):
            compute_cell_energy(j, mm, g, BcVariant.NEUMANN, opts)
        sol = compute_cell_energy(j, mm, g, BcVariant.DIRICHLET, opts)
        assert np.isfinite(sol.energy.total)


def test_05_standing_burgers_shock():
    with _Timer("standing Burgers shock layer, 512x16", limit=60.0) as t:
        j = SpaceTimeJumpData(u_plus=[-1.0], u_minus=[1.0],
                              nu_y=[1.0], nu_s=0.0)
        g = build_shock_grid(j, 512, n_time=16)
        sol = compute_shock_cell_energy(j, BURGERS.flux, BURGERS.entropy, g)
        assert 4.0 / 3.0 * 0.99 <= sol.energy.total <= 4.0 / 3.0 * 1.01
    t.check_budget()


def test_06_tilted_shock_scaling_identity():
    with _Timer("tilted shock vs static reduction, 256x16", limit=5.0) as t:
        tilted = SpaceTimeJumpData(u_plus=[0.0], u_minus=[2.0],
                                   nu_y=[1.0 / np.sqrt(2)],
                                   nu_s=-1.0 / np.sqrt(2))
        gt = build_shock_grid(tilted, 256, n_time=16)
        full = compute_shock_cell_energy(tilted, BURGERS.flux, BURGERS.entropy,
                                         gt).energy.total
        red = reduce_to_static_frame(tilted, BURGERS.flux)
        standing = SpaceTimeJumpData(u_plus=[0.0], u_minus=[2.0],
                                     nu_y=[1.0], nu_s=0.0)
        gs = build_shock_grid(standing, 256, n_time=16)
        reduced = compute_shock_cell_energy(standing, red.reduced_flux,
                                            BURGERS.entropy, gs).energy.total
        assert abs(full - red.factor * reduced) <= 0.02 * abs(full)
    t.check_budget()


def test_07_gradients_match_finite_differences():
    with _Timer("analytic vs finite-difference gradients, 20 profiles") as t:
        rng = np.random.default_rng(5)
        g1 = build_cell_grid(build_frame([1.0]), 12)
        t1 = g1.axis_coords(0)
        for _ in range(10):
            v = np.tanh(3 * t1)[:, None] + 0.1 * rng.standard_normal((12, 1))
            v[0], v[-1] = -1.0, 1.0
            prof = StateField(g1, v)
            L = float(rng.uniform(0.3, 1.5))
            ga = energy_gradient(prof, L, DW, DW_JUMP).values
            gf = finite_difference_gradient(prof, L, DW, DW_JUMP).values
            assert np.max(np.abs(ga - gf)) / (np.max(np.abs(gf)) + 1.0) <= 1e-5

        specs = _lateral_flux_specs()
        jump = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0, 0.0])
        g2 = build_cell_grid(build_frame([1.0, 0.0]), 10, n_lateral=6)
        t2 = g2.coords_normal()
        for i in range(10):
            v = (np.tanh(3 * t2)[..., None]
                 + 0.1 * rng.standard_normal(g2.shape + (1,)))
            v[0], v[-1] = -1.0, 1.0
            prof = StateField(g2, v)
            bc = (BcVariant.NEUMANN, BcVariant.DIRICHLET)[i % 2]
            ga = energy_gradient(prof, 0.8, specs, jump, bc).values
            gf = finite_difference_gradient(prof, 0.8, specs, jump, bc).values
            assert np.max(np.abs(ga - gf)) / (np.max(np.abs(gf)) + 1.0) <= 1e-5


def test_08_gamma_sweep_ratio():
    with _Timer("gamma sweep, resolution 512, eps 1/8..1/64",
                limit=120.0) as t:
        dw2 = catalog_lookup("double_well", {"space_dim": 2})
        jump = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0, 0.0])
        domain = DomainSpec(nu=[1.0, 0.0], resolution=512)
        rows = run_gamma_sweep(domain, jump, dw2,
                               [1 / 8, 1 / 16, 1 / 32, 1 / 64])
        assert all(r.error == "" for r in rows)
        assert 1.0 <= rows[-1].ratio <= 1.05
    t.check_budget()


def test_09_reports_byte_identical(tmp_path):
    with _Timer("repeated runs produce byte-identical reports") as t:
        from cellgamma.cli import run_config
        cfg = {"subcommand": "cell", "model": {"name": "double_well"},
               "jump": {"phi_plus": [1.0], "phi_minus": [-1.0], "nu": [1.0]},
               "grid": {"n_normal": 64}, "seed": 0}
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run_config(dict(cfg), str(out))
            outs.append({f: (out / f).read_bytes()
                         for f in ("report.json", "report.csv")})
        assert outs[0] == outs[1]


def test_10_equipartition_and_flip_symmetry():
    with _Timer("equipartition and jump-flip symmetry") as t:
        g = build_cell_grid(build_frame([1.0]), 128)
        sol = compute_cell_energy(DW_JUMP, DW, g)
        e = sol.energy
        lhs = abs(sol.L_star * e.grad_term
                  - (e.potential_term + e.nonlocal_term) / sol.L_star)
        assert lhs <= 1e-3 * e.total

        gf = build_cell_grid(build_frame([-1.0]), 128)
        mirrored = StateField(gf, sol.profile.values[::-1].copy())
        e2 = assemble_energy(mirrored, sol.L_star, DW, DW_JUMP.flipped())
        assert abs(e2.total - e.total) <= 1e-8 * (1.0 + e.total)
