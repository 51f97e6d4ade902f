"""Exception hierarchy shared by all modules."""


class PerturbLabError(Exception):
    """Base class for all package errors."""


class InvalidData(PerturbLabError):
    """Structural invariants of a problem are violated."""


class AdmissibilityError(PerturbLabError):
    """Admissibility condition fails for the supplied data."""


class EvaluationAtPole(PerturbLabError):
    """Evaluation point is inside the guard region of a pole."""


class DegenerateZeta(PerturbLabError):
    """The unimodular parameter coincides with the value at infinity."""


class MassPresent(PerturbLabError):
    """The chosen spectral parameter carries a point mass at infinity."""


class NoInvertibleShift(PerturbLabError):
    """The deterministic shift scan found no invertible coupling."""


class EigensolveFailure(PerturbLabError):
    """Dense eigensolver did not converge."""


class ChainRequired(PerturbLabError):
    """Eigenvalue has multiplicity > 1; the eigensystem needs a simple
    spectrum."""


class SingularGauge(PerturbLabError):
    """Gauge factor is not invertible."""


class NotBiorthogonal(PerturbLabError):
    """Eigensystem normalization failed; pair is not biorthogonal."""


class DivergentNearRealZero(PerturbLabError):
    """Integrand has a non-integrable singularity at a real zero."""


class ContourTooClose(PerturbLabError):
    """Contour could not be nudged away from zeros or poles."""


class BadParameters(PerturbLabError):
    """Gallery parameters outside the admissible range."""


class NearPole(PerturbLabError):
    """Evaluation point too close to a pole of the expansion."""


class BisectionFailure(PerturbLabError):
    """A bracketed root solve failed to locate a zero in its bracket."""


class ExhaustedInput(PerturbLabError):
    """Supplied sequence is too short for the requested construction."""


class NotLacunary(PerturbLabError):
    """A computed lacunary sequence breaks one of its defining inequalities."""


class MatchingFailure(PerturbLabError):
    """Two point sets cannot be matched: a distance between them is not
    finite."""


class ToleranceFailure(PerturbLabError):
    """A cross-check exceeded its tolerance (CLI exit code 3)."""


class InvalidProblem(PerturbLabError):
    """Problem file could not be parsed or fails validation (exit code 2)."""
