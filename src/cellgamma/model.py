"""Analytic ingredients of the cell problems: potentials, flux maps,
gradient integrands, entropies, hyperbolic fluxes, jump data, and the
built-in catalog.

Evaluator convention: every evaluator is vectorized over leading axes.
States have shape (..., m); a ScalarPotential value returns (...,), its
gradient (..., m); a FluxMap value returns (..., l, N) and its jacobian
(..., l, N, m), and so on.  All evaluators are pure and reentrant.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BadParams, UnknownModel


# --- domain types ---------------------------------------------------------

@dataclass(frozen=True)
class ScalarPotential:
    """Nonnegative energy density W on states, with analytic gradient."""

    m: int
    value: Callable
    gradient: Callable


@dataclass(frozen=True)
class FluxMap:
    """Flux Psi: R^m -> R^{l x N} feeding the nonlocal potential problem."""

    m: int
    l: int
    N: int
    value: Callable
    jacobian: Callable
    is_zero: bool = False  # lets the assembler skip the Poisson solve


@dataclass(frozen=True)
class GradientIntegrand:
    """First-order integrand G on jets A in R^{m x N}; G >= 0, G(0) = 0."""

    m: int
    N: int
    value: Callable
    gradient: Callable
    homogeneous_quadratic: bool


@dataclass(frozen=True)
class EntropyPair:
    k: int
    eta: Callable
    grad_eta: Callable
    hess_eta: Callable


@dataclass(frozen=True)
class FluxFunction:
    """Hyperbolic flux F: R^k -> R^{k x N} with analytic jacobian."""

    k: int
    N: int
    value: Callable
    jacobian: Callable


def _require_finite(*arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise BadParams("jump data must be finite")


def _check_state_length(minus, plus, m, name):
    """Raise BadParams unless both jump states have length m."""
    if minus.shape != (m,) or plus.shape != (m,):
        raise BadParams(
            f"jump states of shapes {minus.shape} and {plus.shape} do not "
            f"fit a model with {name} = {m}")


@dataclass(frozen=True)
class JumpData:
    phi_plus: np.ndarray
    phi_minus: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi_plus", np.asarray(self.phi_plus, dtype=np.float64))
        object.__setattr__(self, "phi_minus", np.asarray(self.phi_minus, dtype=np.float64))
        object.__setattr__(self, "nu", np.asarray(self.nu, dtype=np.float64))
        _require_finite(self.phi_plus, self.phi_minus, self.nu)
        if abs(np.linalg.norm(self.nu) - 1.0) > 1e-12:
            raise BadParams("jump normal must be a unit vector to 1e-12")
        # equal states are degenerate but admitted: no-jump data is a
        # useful trivial case (zero energy) exercised by the test suite

    def flipped(self):
        return JumpData(self.phi_minus, self.phi_plus, -self.nu)

    def check_state_length(self, m):
        """Raise BadParams unless both states have the model's length m."""
        _check_state_length(self.phi_minus, self.phi_plus, m, "m")


@dataclass(frozen=True)
class SpaceTimeJumpData:
    """Space-time jump (u-, u+) with normal nu = (nu_y, nu_s)."""

    u_plus: np.ndarray
    u_minus: np.ndarray
    nu_y: np.ndarray
    nu_s: float

    def __post_init__(self):
        object.__setattr__(self, "u_plus", np.asarray(self.u_plus, dtype=np.float64))
        object.__setattr__(self, "u_minus", np.asarray(self.u_minus, dtype=np.float64))
        object.__setattr__(self, "nu_y", np.asarray(self.nu_y, dtype=np.float64))
        object.__setattr__(self, "nu_s", float(self.nu_s))
        _require_finite(self.u_plus, self.u_minus, self.nu_y, self.nu_s)
        norm = np.sqrt(np.sum(self.nu_y ** 2) + self.nu_s ** 2)
        if abs(norm - 1.0) > 1e-12:
            raise BadParams("space-time normal must be a unit vector to 1e-12")
        if np.linalg.norm(self.nu_y) < 1e-14:
            raise BadParams("purely time-like normal: the static reduction needs nu_y != 0")

    @property
    def nu(self):
        return np.concatenate([self.nu_y, [self.nu_s]])

    def check_state_length(self, k):
        """Raise BadParams unless both states have the flux's length k."""
        _check_state_length(self.u_minus, self.u_plus, k, "k")


@dataclass(frozen=True)
class ConstraintSet:
    kind: str = "unconstrained"

    def __post_init__(self):
        if self.kind not in ("unconstrained", "unit_sphere"):
            raise BadParams(f"unknown constraint kind {self.kind!r}")


@dataclass(frozen=True)
class ModelSpecs:
    """Bundle of evaluators defining one cell problem."""

    name: str
    W: ScalarPotential
    Psi: FluxMap
    G: GradientIntegrand
    constraint: ConstraintSet
    flux: Optional[FluxFunction] = None
    entropy: Optional[EntropyPair] = None

    def __post_init__(self):
        # the optimizers use the split L A + B / L of the cell energy,
        # which holds only for homogeneous quadratic G
        if not self.G.homogeneous_quadratic:
            raise BadParams("G must be homogeneous quadratic")

    @property
    def m(self):
        return self.W.m


@dataclass(frozen=True)
class ValidationReport:
    entries: dict  # name -> (value, passed)
    passed: bool


# --- catalog building blocks ----------------------------------------------

def _dirichlet_integrand(m, N):
    return GradientIntegrand(
        m=m, N=N,
        value=lambda A: np.sum(np.square(A), axis=(-2, -1)),
        gradient=lambda A: 2.0 * A,
        homogeneous_quadratic=True,
    )


def _zero_flux(m, N, l=1):
    z = np.zeros((l, N))
    zj = np.zeros((l, N, m))
    return FluxMap(
        m=m, l=l, N=N,
        value=lambda x: np.broadcast_to(z, x.shape[:-1] + (l, N)),
        jacobian=lambda x: np.broadcast_to(zj, x.shape[:-1] + (l, N, m)),
        is_zero=True,
    )


def _quadratic_entropy(k):
    return EntropyPair(
        k=k,
        eta=lambda u: 0.5 * np.sum(np.square(u), axis=-1),
        grad_eta=lambda u: np.asarray(u, dtype=np.float64).copy(),
        hess_eta=lambda u: np.broadcast_to(np.eye(k), np.shape(u)[:-1] + (k, k)),
    )


def _burgers_flux():
    def value(u):
        return (0.5 * np.square(u))[..., None]

    def jacobian(u):
        return np.asarray(u, dtype=np.float64)[..., None, None]

    return FluxFunction(k=1, N=1, value=value, jacobian=jacobian)


def _linear_advection_flux(c):
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    N = c.size

    def value(u):
        return u[..., :, None] * c

    def jacobian(u):
        base = np.zeros((1, N, 1))
        base[0, :, 0] = c
        return np.broadcast_to(base, np.shape(u)[:-1] + (1, N, 1))

    return FluxFunction(k=1, N=N, value=value, jacobian=jacobian)


def _reject_unknown(params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise BadParams(f"unknown parameters {sorted(extra)}")


def catalog_lookup(name, params=None):
    """Return the ModelSpecs bundle for a built-in model.

    Known names: double_well, micromagnetics_2d, burgers,
    linear_advection, quadratic_entropy.
    """
    params = dict(params or {})
    if name == "double_well":
        _reject_unknown(params, {"space_dim"})
        N = int(params.get("space_dim", 1))
        if N < 1:
            raise BadParams("space_dim must be >= 1")
        W = ScalarPotential(
            m=1,
            value=lambda s: np.square(1.0 - np.square(s[..., 0])),
            gradient=lambda s: (-4.0 * s[..., 0] * (1.0 - np.square(s[..., 0])))[..., None],
        )
        return ModelSpecs(
            name=name, W=W, Psi=_zero_flux(1, N), G=_dirichlet_integrand(1, N),
            constraint=ConstraintSet("unconstrained"),
        )
    if name == "micromagnetics_2d":
        _reject_unknown(params, set())
        W = ScalarPotential(
            m=3,
            value=lambda x: np.square(x[..., 2]),
            gradient=lambda x: np.stack(
                [np.zeros_like(x[..., 0]), np.zeros_like(x[..., 0]), 2.0 * x[..., 2]],
                axis=-1),
        )

        def psi_value(x):
            return x[..., None, :2].copy()

        _jac = np.zeros((1, 2, 3))
        _jac[0, 0, 0] = 1.0
        _jac[0, 1, 1] = 1.0

        def psi_jacobian(x):
            return np.broadcast_to(_jac, x.shape[:-1] + (1, 2, 3))

        Psi = FluxMap(m=3, l=1, N=2, value=psi_value, jacobian=psi_jacobian)
        return ModelSpecs(
            name=name, W=W, Psi=Psi, G=_dirichlet_integrand(3, 2),
            constraint=ConstraintSet("unit_sphere"),
        )
    if name == "burgers":
        _reject_unknown(params, set())
        flux = _burgers_flux()
        W = ScalarPotential(m=1,
                            value=lambda s: np.zeros(s.shape[:-1]),
                            gradient=lambda s: np.zeros_like(s))
        return ModelSpecs(
            name=name, W=W, Psi=_zero_flux(1, 1), G=_dirichlet_integrand(1, 1),
            constraint=ConstraintSet("unconstrained"),
            flux=flux, entropy=_quadratic_entropy(1),
        )
    if name == "linear_advection":
        _reject_unknown(params, {"speed"})
        if "speed" not in params:
            raise BadParams("linear_advection requires a 'speed' parameter")
        flux = _linear_advection_flux(params["speed"])
        W = ScalarPotential(m=1,
                            value=lambda s: np.zeros(s.shape[:-1]),
                            gradient=lambda s: np.zeros_like(s))
        return ModelSpecs(
            name=name, W=W, Psi=_zero_flux(1, flux.N), G=_dirichlet_integrand(1, flux.N),
            constraint=ConstraintSet("unconstrained"),
            flux=flux, entropy=_quadratic_entropy(1),
        )
    if name == "quadratic_entropy":
        _reject_unknown(params, {"state_dim"})
        k = int(params.get("state_dim", 1))
        if k < 1:
            raise BadParams("state_dim must be >= 1")
        W = ScalarPotential(m=k,
                            value=lambda s: np.zeros(s.shape[:-1]),
                            gradient=lambda s: np.zeros_like(s))
        return ModelSpecs(
            name=name, W=W, Psi=_zero_flux(k, 1), G=_dirichlet_integrand(k, 1),
            constraint=ConstraintSet("unconstrained"),
            entropy=_quadratic_entropy(k),
        )
    raise UnknownModel(f"no catalog entry named {name!r}")


# --- validation -----------------------------------------------------------

def validate_jump_data(jump, specs, tol):
    """Check the jump states against the admissibility hypotheses:
    W vanishes on both sides and the normal flux is continuous."""
    if tol <= 0:
        raise BadParams("tol must be positive")
    w_plus = float(specs.W.value(jump.phi_plus))
    w_minus = float(specs.W.value(jump.phi_minus))
    psi_p = specs.Psi.value(jump.phi_plus)
    psi_m = specs.Psi.value(jump.phi_minus)
    mismatch = float(np.max(np.abs((psi_p - psi_m) @ jump.nu)))
    entries = {
        "W_plus": (w_plus, abs(w_plus) <= tol),
        "W_minus": (w_minus, abs(w_minus) <= tol),
        "normal_flux_mismatch": (mismatch, mismatch <= tol),
    }
    return ValidationReport(entries=entries, passed=all(p for _, p in entries.values()))


def validate_rankine_hugoniot(jump, flux, tol):
    """Residual of (u+ - u-) nu_s + (F(u+) - F(u-)) . nu_y, per component."""
    if tol <= 0:
        raise BadParams("tol must be positive")
    res = ((jump.u_plus - jump.u_minus) * jump.nu_s
           + (flux.value(jump.u_plus) - flux.value(jump.u_minus)) @ jump.nu_y)
    res = np.atleast_1d(res)
    entries = {
        f"rh_residual_{i}": (float(r), abs(r) <= tol) for i, r in enumerate(res)
    }
    return ValidationReport(entries=entries, passed=all(p for _, p in entries.values()))


# --- finite-difference consistency helper ---------------------------------

def fd_relative_error(value, derivative, x, step=None):
    """Max relative error between an analytic derivative and central
    finite differences of ``value`` at the point ``x``.

    ``derivative(x)`` must have shape value-shape + x-shape appended,
    which matches the jacobian layouts used throughout this module.
    """
    x = np.asarray(x, dtype=np.float64)
    d = np.asarray(derivative(x), dtype=np.float64)
    fd = np.zeros_like(d)
    it = np.ndindex(x.shape)
    for idx in it:
        h = (step if step is not None else 1e-5 * (1.0 + abs(x[idx])))
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        fd[(Ellipsis,) + idx] = (np.asarray(value(xp)) - np.asarray(value(xm))) / (2.0 * h)
    scale = np.max(np.abs(d)) + np.max(np.abs(fd)) + 1e-12
    return float(np.max(np.abs(d - fd)) / scale)
