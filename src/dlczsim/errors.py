"""Exception types shared across the package, and the field validator that
raises them for every parameter dataclass."""

import math


class DlczSimError(Exception):
    """Base class for all package errors."""


class ParameterError(DlczSimError, ValueError):
    """A parameter is outside its physical or mathematical domain."""


class StalledChainError(DlczSimError, RuntimeError):
    """A repeater chain cannot make progress (some success probability is zero).

    ``level`` is 0 for elementary-link generation and i for the i-th swap level.
    """

    def __init__(self, level: int, message: str | None = None):
        self.level = level
        super().__init__(message or f"chain stalled: success probability is 0 at level {level}")


class NoHeraldsError(DlczSimError, RuntimeError):
    """A sampling run collected zero heralded trials."""


class ConfigError(DlczSimError, ValueError):
    """A configuration file failed to parse or is missing required fields."""


# The ranges a field may declare, keyed by the phrase error messages print.
# Each is stored as open bounds (lo, hi): ``lo < value < hi`` holds exactly
# for finite values inside the range, so one chained comparison also rejects
# NaN and +-inf. Closed ends are widened by one ulp with math.nextafter.
_BELOW_ZERO = math.nextafter(0.0, -1.0)
RANGES = {
    None: (-math.inf, math.inf),
    "in [0, 1]": (_BELOW_ZERO, math.nextafter(1.0, 2.0)),
    "in [0, 1)": (_BELOW_ZERO, 1.0),
    "in (0, 1]": (0.0, math.nextafter(1.0, 2.0)),
    "> 0": (0.0, math.inf),
    ">= 0": (_BELOW_ZERO, math.inf),
    ">= 1": (math.nextafter(1.0, 0.0), math.inf),
    ">= 4": (math.nextafter(4.0, 0.0), math.inf),
    # `sweep --steps`: the grid is built in memory before any output
    "in [2, 100000]": (math.nextafter(2.0, 0.0), math.nextafter(100000.0, math.inf)),
}


def rule(allowed) -> str:
    """What a value must be to lie in RANGES[allowed], as messages print it."""
    return "finite" if allowed is None else f"finite and {allowed}"


def check_fields(obj, spec, error=ParameterError) -> None:
    """Cast, finiteness-check and range-check the fields of a frozen dataclass.

    ``spec`` lists ``(field, cast, allowed)`` triples. ``cast`` is int or
    float, or a one-item tuple such as ``(float,)`` for a non-empty tuple field
    whose items are each cast and checked. ``allowed`` is a key of RANGES; None
    admits any finite value. Each failure raises ``error`` naming the field.
    """
    for name, cast, allowed in spec:
        lo, hi = RANGES[allowed]
        raw = getattr(obj, name)
        try:
            if type(cast) is tuple:
                value = tuple(map(cast[0], raw))
                ok = bool(value) and all(lo < item < hi for item in value)
            else:
                value = cast(raw)
                ok = lo < value < hi
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{name}: {exc}") from exc
        if not ok:
            must = rule(allowed)
            if type(cast) is tuple:
                must = f"a non-empty list of values each {must}"
            raise error(f"{name} must be {must}, got {value!r}")
        if value is not raw:
            object.__setattr__(obj, name, value)

