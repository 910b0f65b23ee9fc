"""Exception hierarchy shared across the package."""


class MvGroupsError(Exception):
    """Base class for all package-specific errors."""


class NotAnAutomorphism(MvGroupsError):
    """Generator images do not extend to an automorphism."""


class BudgetExceeded(MvGroupsError):
    """An enumeration reached, or a table would hold, more than `budget`
    of what it counts: distinct elements unless `what` names them; `name`,
    if given, is the enumeration's own.  The package raises it only from
    ``groups.Budget.check``."""

    def __init__(self, budget, radius=None, what="distinct elements", name=None):
        where = "" if radius is None else f" reached by radius {radius}"
        within = "" if name is None else f" in {name}"
        super().__init__(f"more than {budget} {what}{where}{within}")
        self.budget = budget
        self.radius = radius


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
