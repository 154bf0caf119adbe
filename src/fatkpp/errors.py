"""Exception types shared across the package, each with its exit code.

Every failure mode that callers are expected to branch on gets its own
class here; anything else is allowed to surface as a plain ValueError
from numpy.  A class owns the CLI's exit code and stderr label for it:
InvalidParams and its subclasses (inadmissible input) and ParseError (a
malformed config) exit 2, IoError 4, every other class (a run failed on
admissible input) 3.
"""


class FatKppError(Exception):
    """Base class for all package-specific errors.

    An error raised during a time march carries the partially completed
    run as ``.run`` (see `cauchy._march`), so callers can still write out
    what was computed before the abort; elsewhere ``.run`` is None.
    """

    exit_code = 3
    label = "aborted: "
    run = None


class InvalidParams(FatKppError):
    """Parameters outside their admissible range; ``.issues`` lists each."""
    exit_code = 2
    label = "invalid parameters: "

    def __init__(self, *issues):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class DomainError(InvalidParams):
    """Function evaluated outside its mathematical domain."""


class ThinTailedKernel(InvalidParams):
    """A fat-tail-only operation was requested on a thin-tailed kernel."""


class NotMutationEligible(InvalidParams):
    """Kernel lacks the small-jump regularity the mutation regime needs."""


class NonIntegrableTail(InvalidParams):
    """A tail integral required by the requested quantity diverges."""


class GridMismatch(InvalidParams):
    """Two discrete objects live on different grids."""


class GridTooCoarse(InvalidParams):
    """Grid spacing cannot resolve the requested kernel or regime."""


class NoConvergence(FatKppError):
    """Adaptive quadrature or root solve failed to reach tolerance."""


class StabilityViolation(FatKppError):
    """Time stepping produced values outside the invariant region."""


class GradientOutOfRange(FatKppError):
    """Numerical gradient left the range the Hamiltonian table covers."""


class BoundaryContamination(FatKppError):
    """Solution mass reached the truncated domain boundary."""


class ValidationError(InvalidParams):
    """Configuration (or a cross-check) rejected; ``.issues`` lists every
    problem found."""


class OutOfDomain(InvalidParams):
    """A rescaled coordinate landed outside the computed domain."""


class ParseError(FatKppError):
    """Configuration file is not well-formed (syntax, not semantics)."""
    exit_code = 2
    label = ""


class IoError(FatKppError):
    """A file unreadable or unwritable, or an ill-formed artifact refused."""
    exit_code = 4
    label = ""
