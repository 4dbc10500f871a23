"""Catalog evaluators, jump validation, and derivative consistency."""

import numpy as np
import pytest

from cellgamma.errors import BadParams, UnknownModel
from cellgamma.model import (JumpData, SpaceTimeJumpData, catalog_lookup,
                             fd_relative_error, validate_jump_data,
                             validate_rankine_hugoniot)


def test_catalog_names():
    for name in ("double_well", "micromagnetics_2d", "burgers",
                 "quadratic_entropy"):
        catalog_lookup(name)
    catalog_lookup("linear_advection", {"speed": [1.0, 2.0]})
    with pytest.raises(UnknownModel):
        catalog_lookup("nope")
    with pytest.raises(BadParams):
        catalog_lookup("double_well", {"bogus": 1})
    with pytest.raises(BadParams):
        catalog_lookup("linear_advection")


def test_linear_advection_speed_checked():
    # an empty, nested, non-numeric or non-finite speed used to reach the
    # flux as a numpy error, a NaN flux or a silently accepted shape
    for bad in ([], ["fast"], [None], [[1.0]], [float("nan")], [True],
                float("inf"), "1.0", None, np.ones((1, 1))):
        with pytest.raises(BadParams, match="speed"):
            catalog_lookup("linear_advection", {"speed": bad})
    for good, n in ((2.0, 1), ([1.0], 1), ((1.0, np.float64(3.0)), 2), ([2], 1),
                    (np.array([1.0, 0.0]), 2), (np.array(2.0), 1)):
        assert catalog_lookup("linear_advection", {"speed": good}).flux.N == n


@pytest.mark.parametrize("name, key", [("double_well", "space_dim"),
                                       ("quadratic_entropy", "state_dim")])
def test_dimension_params_must_be_integers(name, key):
    # a float, bool or string count used to be truncated or parsed silently
    for bad in (2.7, 1.5, True, "2", 0, -1):
        with pytest.raises(BadParams):
            catalog_lookup(name, {key: bad})
    for good in (2, np.int64(2)):
        specs = catalog_lookup(name, {key: good})
        assert (specs.Psi.N if key == "space_dim" else specs.m) == 2


def test_double_well_values():
    s = catalog_lookup("double_well")
    assert s.m == 1
    x = np.array([[1.0], [-1.0], [0.0]])
    assert np.allclose(s.W.value(x), [0.0, 0.0, 1.0])
    assert s.Psi.is_zero


def test_micromagnetics_values():
    s = catalog_lookup("micromagnetics_2d")
    assert s.m == 3 and s.Psi.N == 2
    assert s.constraint.kind == "unit_sphere"
    m = np.array([0.0, 0.6, 0.8])
    assert abs(s.W.value(m) - 0.64) < 1e-15
    assert np.allclose(s.Psi.value(m)[0], [0.0, 0.6])
    # W = 0 iff m3 = 0 on unit vectors
    rng = np.random.default_rng(0)
    v = rng.standard_normal((50, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    w = s.W.value(v)
    assert np.all(w >= 0)
    assert np.allclose(w == 0.0, np.abs(v[:, 2]) == 0.0)


def test_gradients_match_fd():
    rng = np.random.default_rng(1)
    cases = [catalog_lookup("double_well"), catalog_lookup("micromagnetics_2d"),
             catalog_lookup("burgers")]
    for s in cases:
        for _ in range(100 // len(cases)):
            x = rng.standard_normal(s.m)
            assert fd_relative_error(s.W.value, s.W.gradient, x) < 1e-6
            if not s.Psi.is_zero:
                assert fd_relative_error(s.Psi.value, s.Psi.jacobian, x) < 1e-6
            if s.flux is not None:
                u = rng.standard_normal(s.flux.k)
                assert fd_relative_error(s.flux.value, s.flux.jacobian, u) < 1e-6
            if s.entropy is not None:
                u = rng.standard_normal(s.entropy.k)
                assert fd_relative_error(s.entropy.eta, s.entropy.grad_eta, u) < 1e-6


def test_entropy_flux_consistency_burgers():
    # d Psi_ent = eta' dF for eta = u^2/2, F = u^2/2: Psi_ent' = u * u
    s = catalog_lookup("burgers")
    u = np.linspace(-2, 2, 41)[:, None]
    lhs = s.entropy.grad_eta(u)[:, 0] * s.flux.jacobian(u)[:, 0, 0, 0]
    assert np.allclose(lhs, u[:, 0] ** 2)


def test_validate_jump_data_examples():
    dw = catalog_lookup("double_well")
    j = JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0])
    rep = validate_jump_data(j, dw, 1e-12)
    assert rep.passed

    mm = catalog_lookup("micromagnetics_2d")
    j2 = JumpData(phi_plus=[0.0, 1.0, 0.0], phi_minus=[0.0, -1.0, 0.0],
                  nu=[1.0, 0.0])
    assert validate_jump_data(j2, mm, 1e-12).passed

    j3 = JumpData(phi_plus=[1.0, 0.0, 0.0], phi_minus=[0.0, 1.0, 0.0],
                  nu=[1.0, 0.0])
    rep3 = validate_jump_data(j3, mm, 1e-12)
    assert not rep3.passed
    assert abs(rep3.entries["normal_flux_mismatch"][0] - 1.0) < 1e-15


def test_validate_jump_data_flip_symmetry():
    mm = catalog_lookup("micromagnetics_2d")
    j = JumpData(phi_plus=[1.0, 0.0, 0.0], phi_minus=[0.0, 1.0, 0.0],
                 nu=[0.6, 0.8])
    a = validate_jump_data(j, mm, 1e-6)
    b = validate_jump_data(j.flipped(), mm, 1e-6)
    assert abs(abs(a.entries["normal_flux_mismatch"][0])
               - abs(b.entries["normal_flux_mismatch"][0])) < 1e-15


def test_rankine_hugoniot_examples():
    flux = catalog_lookup("burgers").flux
    ok = SpaceTimeJumpData(u_plus=[-1.0], u_minus=[1.0], nu_y=[1.0], nu_s=0.0)
    assert validate_rankine_hugoniot(ok, flux, 1e-12).passed
    tilted = SpaceTimeJumpData(u_plus=[0.0], u_minus=[2.0],
                               nu_y=[1 / np.sqrt(2)], nu_s=-1 / np.sqrt(2))
    assert validate_rankine_hugoniot(tilted, flux, 1e-12).passed
    bad = SpaceTimeJumpData(u_plus=[0.0], u_minus=[1.0], nu_y=[1.0], nu_s=0.0)
    rep = validate_rankine_hugoniot(bad, flux, 1e-12)
    assert not rep.passed
    assert abs(rep.entries["rh_residual_0"][0] + 0.5) < 1e-15


def test_jump_data_validation_errors():
    with pytest.raises(BadParams):
        JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[1.0, 1.0])
    with pytest.raises(BadParams):
        SpaceTimeJumpData(u_plus=[1.0], u_minus=[0.0], nu_y=[0.0], nu_s=1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(BadParams):
            JumpData(phi_plus=[bad], phi_minus=[-1.0], nu=[1.0])
        with pytest.raises(BadParams):
            JumpData(phi_plus=[1.0], phi_minus=[-1.0], nu=[bad])
        with pytest.raises(BadParams):
            SpaceTimeJumpData(u_plus=[bad], u_minus=[1.0], nu_y=[1.0], nu_s=0.0)
        with pytest.raises(BadParams):
            SpaceTimeJumpData(u_plus=[-1.0], u_minus=[1.0], nu_y=[1.0], nu_s=bad)
    # degenerate equal states are admitted (trivial no-jump case)
    JumpData(phi_plus=[1.0], phi_minus=[1.0], nu=[1.0])

