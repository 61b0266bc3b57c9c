"""Exception types shared across the package."""


class TatekitError(Exception):
    """Base class for all errors raised by this package."""


class NoSolution(TatekitError):
    """A linear system A*X = B has no integral solution.

    The optional ``column`` attribute names the first right-hand-side
    column that fails.
    """

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class SublatticeViolation(TatekitError):
    """Columns claimed to lie in a lattice do not."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class InvalidPresentation(TatekitError):
    """A module presentation fails its internal consistency checks."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ResourceLimit(TatekitError):
    """An input would need more memory than the package allows itself."""


class WindowViolation(TatekitError):
    """A degree was requested outside the validated range of a complex."""


class InfiniteLength(TatekitError):
    """An operation needs a bounded complex but got a window of one."""


class GapViolation(TatekitError):
    """Gluing requires vanishing homology strictly between the two degrees."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class NotConcentrated(TatekitError):
    """A complex expected to have homology in a single degree does not."""


class NotConnected(TatekitError):
    """H_0 of the complex is not Z with the trivial action."""


class NotNonnegative(TatekitError):
    """The complex has chain groups in negative degrees."""


class FiltrationInvalid(TatekitError):
    """Filtration witnesses fail nesting, invariance, or section checks."""
