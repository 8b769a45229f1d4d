"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: configuration problems exit 2,
certificate violations exit 1, missing/unusable references and corrupt trace
data exit 3.
"""


class ProxCertError(Exception):
    """Base class for all package errors."""


class RejectedInputError(ProxCertError, ValueError):
    """Malformed problem data (non-symmetric Q, indefinite Q, bad box bounds, ...)."""


class ConfigurationError(ProxCertError, ValueError):
    """Invalid solver/run configuration (s > 1/L, alpha < 3, unknown variant, ...)."""


class DataCorruptionError(ProxCertError):
    """A trace is corrupt (missing cells or rows, NaN scalars, vectors of the
    wrong length) or inconsistent with its reference (gap below the floor)."""


class ReferenceUnavailableError(ProxCertError):
    """No reference solution meeting the residual criterion could be produced."""


class FitUnavailableError(ProxCertError):
    """Rate fitting had no usable window of positive gaps."""
