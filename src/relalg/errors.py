"""Exception hierarchy shared by every module.

Two broad families matter to callers: input problems (bad labels, malformed
files, mismatched actor sets) and computational limits (closure explosion,
fixpoints that refuse to settle). The CLI maps them to exit codes 2 and 3.
Each cap on a computation is read by `read_cap`.
"""

import operator
import os


def read_cap(value, env, default):
    """A computation's cap: value if given, else the variable env if set, else default.

    A cap is a whole number >= 0; any other raises ValidationError naming its source.
    """
    source = f"the cap argument in place of {env}"
    if value is None:
        source, value = env, os.environ.get(env)
        if not value:
            return default
    try:
        cap = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        cap = -1
    if cap < 0:
        raise ValidationError(f"{source} must be a whole number >= 0, not {value!r}")
    return cap


class RelalgError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RelalgError):
    """Malformed input: bad JSON, unknown labels, duplicate names."""


class DimensionError(ValidationError):
    """Two operands do not share the same actor set."""


class ComputationError(RelalgError):
    """A well-formed computation hit a configured or structural limit."""


class ClosureTooLargeError(ComputationError):
    """Semigroup closure exceeded the element cap."""

    def __init__(self, count, cap):
        self.count = count
        self.cap = cap
        super().__init__(
            f"closure exceeded {cap} elements (at {count} and growing); "
            "raise the cap via max_elements or RELALG_MAX_CLOSURE"
        )


class TooManyConceptsError(ComputationError):
    """Concept enumeration exceeded the concept-count cap."""

    def __init__(self, cap):
        self.cap = cap
        super().__init__(
            f"context has more than {cap} concepts; "
            "raise the cap via max_concepts or RELALG_MAX_CONCEPTS"
        )


class DecompositionTooLargeError(ComputationError):
    """A congruence or quasi-order search would exceed its byte budget."""

    def __init__(self, need, cap):
        self.need = need
        self.cap = cap
        super().__init__(
            f"decomposition would take {need} bytes, over the cap of {cap}; "
            "raise the cap via max_bytes or RELALG_MAX_DECOMP_BYTES"
        )


class UndefinedStatisticError(ComputationError):
    """A statistic's formula divides by a zero count."""

    def __init__(self, term):
        self.term = term
        super().__init__(f"statistic undefined: {term} count is zero")


class NonConvergenceError(ComputationError):
    """An iterative closure failed to reach a fixpoint within its bound."""
