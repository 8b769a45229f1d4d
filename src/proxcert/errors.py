"""Exception types shared across the package, and the rules input must meet.

The CLI maps these onto its exit-code contract: configuration problems exit 2,
certificate violations exit 1, missing/unusable references and corrupt trace
data exit 3.
"""

import sys
from numbers import Integral, Real


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


VARIANTS = ("ista", "apm", "mapm", "strongly_convex_apm")


def is_number(value, kind=Real) -> bool:
    """A number of `kind` (Python's or numpy's), not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


# An int above the largest float compares as finite but overflows float().
_FLOAT_MAX = sys.float_info.max

# Each run setting and each generator parameter: what its value must be, and the test.
SETTING_RULES = {
    "variant": (f"one of {', '.join(VARIANTS)}", lambda v: v in VARIANTS),
    "alpha": ("a finite number >= 3", lambda v: is_number(v) and 3 <= v <= _FLOAT_MAX),
    "step": ("a finite number > 0", lambda v: is_number(v) and 0 < v <= _FLOAT_MAX),
    "max_iters": ("an integer >= 0", lambda v: is_number(v, Integral) and v >= 0),
    "grad_map_tol": ("a number >= 0", lambda v: is_number(v)
                     and (0 <= v <= _FLOAT_MAX or v == float("inf"))),
}
PROBLEM_RULES = {
    "seed": ("an integer in [0, 2**64)",
             lambda v: is_number(v, Integral) and 0 <= v < 2 ** 64),
    **dict.fromkeys(("dim", "cond", "rows", "cols"),
                    ("a positive integer", lambda v: is_number(v, Integral) and v >= 1)),
    "lam": SETTING_RULES["step"],  # a finite number > 0
}


def check_setting(name: str, value, error=ConfigurationError) -> None:
    """Raise `error` naming setting or parameter `name` unless `value` meets its rule."""
    what, valid = SETTING_RULES.get(name) or PROBLEM_RULES[name]
    if not valid(value):
        raise error(f"{name} must be {what}, got {value!r}")
