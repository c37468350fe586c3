"""Exception hierarchy shared by all mhdes modules.

The command line maps these onto process exit codes: parameter and usage
problems exit 2, numerical solver failures exit 3, and failed verification
checks exit 4.
"""


class MhdesError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(MhdesError):
    """An input lies outside the documented domain of a function."""


class ConsistencyError(MhdesError):
    """Bundled inputs disagree (e.g. a flow sample built for different
    parameters or on different nodes than the operator supplied with it)."""


class NumericalError(MhdesError):
    """A solver failed to produce a usable result, or was handed a pencil
    without the Hermitian positive-definite structure its solve needs."""


class VerificationError(MhdesError):
    """A verification check found a counterexample.

    ``report`` holds a JSON-serializable falsification record describing
    the offending trial field.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
