"""Exception hierarchy shared by all cellgamma modules."""


class CellGammaError(Exception):
    """Base class for all library errors."""


# --- model ---------------------------------------------------------------

class UnknownModel(CellGammaError):
    pass


class BadParams(CellGammaError):
    pass


# --- grid ----------------------------------------------------------------

class NonUnitNormal(CellGammaError):
    pass


class ShapeMismatch(CellGammaError):
    pass


# --- poisson -------------------------------------------------------------

class NeumannIncompatible(CellGammaError):
    """Normal flux imbalance: the Neumann cell problem has no solution."""


class SolverDiverged(CellGammaError):
    pass


# --- cellopt -------------------------------------------------------------

class InadmissibleProfile(CellGammaError):
    pass


class NotConverged(CellGammaError):
    """Raised only when a caller demands convergence; solvers normally
    return best-so-far with converged=False instead."""


class BadStrategy(CellGammaError):
    pass


class DegenerateScale(CellGammaError):
    pass


# --- hyperbolic ----------------------------------------------------------

class RankineHugoniotViolated(CellGammaError):
    pass


class DegenerateNormal(CellGammaError):
    pass


class NonScalar(CellGammaError):
    pass


# --- oracle --------------------------------------------------------------

class DimensionTooLarge(CellGammaError):
    pass


# --- gamma experiment ----------------------------------------------------

class EpsilonTooLarge(CellGammaError):
    pass


# --- cli -----------------------------------------------------------------

class ConfigInvalid(CellGammaError):
    pass


class ComputeFailed(CellGammaError):
    pass


class EmptyReport(CellGammaError):
    pass
