"""Exception hierarchy shared across the package."""


class MvGroupsError(Exception):
    """Base class for all package-specific errors."""


class BackendMismatch(MvGroupsError):
    """Operands belong to different group backends."""


class NotAnAutomorphism(MvGroupsError):
    """Generator images do not extend to an automorphism."""


class InverseMissing(MvGroupsError):
    """An automorphism was supplied without usable inverse images."""


class BudgetExceeded(MvGroupsError):
    """An enumeration reached, or a table would hold, more than `budget`
    of what it counts: distinct elements unless `what` names them."""

    def __init__(self, budget, radius=None, what="distinct elements"):
        where = "" if radius is None else f" reached by radius {radius}"
        super().__init__(f"more than {budget} {what}{where}")
        self.budget = budget
        self.radius = radius


class NotReachedWithinCap(MvGroupsError):
    """A length computation did not find the target within the radius cap."""


class InfiniteBackendUnsupported(MvGroupsError):
    """Operation requires a finite backend (e.g. double-coset projection)."""


class PreconditionViolated(MvGroupsError):
    """A check-specific precondition failed (e.g. n != 2, inv != id)."""


class InsufficientData(MvGroupsError):
    """Not enough table rows for growth classification."""


class SchemaError(MvGroupsError):
    """A config document violates the instance schema."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class WordSyntaxError(MvGroupsError):
    """A word expression failed to parse."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownGenerator(MvGroupsError):
    """A word references a generator name the backend does not declare."""


class ValidationError(MvGroupsError):
    """A structurally valid config describes an unsupported instance."""
