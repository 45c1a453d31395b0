"""Exception types shared across the package, and the field declarator and
validator that every input record uses."""

import dataclasses
import functools
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
    # chain depth: `rate` holds and prints one row per level, so its time and
    # memory grow with the depth; `sweep --fixed-total-km` derives at most
    # round(1024 + 1074) = 2098 levels from finite floats
    "in [0, 10000]": (_BELOW_ZERO, math.nextafter(10000.0, math.inf)),
    # link mode counts: the kernel and the closed forms hold arrays of N entries
    "in [1, 1000000]": (math.nextafter(1.0, 0.0), math.nextafter(1e6, math.inf)),
    # fringe shots: a phase's Poisson mean, at most 2 (N + 3) per shot, stays
    # below numpy's limit of ~9.2e18
    "in [0, 1000000000000]": (_BELOW_ZERO, math.nextafter(1e12, math.inf)),
}


def rule(allowed) -> str:
    """What a value must be to lie in RANGES[allowed], as messages print it."""
    return "finite" if allowed is None else f"finite and {allowed}"


# The cast of each (string) annotation a checked field may carry; a one-item
# tuple casts each item of a non-empty tuple field.
CASTS = {"float": float, "int": int, "tuple[float, ...]": (float,), "tuple[int, ...]": (int,)}


def checked(allowed, default=dataclasses.MISSING, unit: str = ""):
    """A dataclass field that check_fields casts and range-checks. ``allowed``
    is a key of RANGES (None admits any finite value); ``unit`` is the suffix
    of the field's INI key (``l0`` is read from ``l0_km``)."""
    return dataclasses.field(default=default, metadata={"allowed": allowed, "unit": unit})


@functools.cache
def field_spec(cls) -> tuple:
    """``(name, cast, allowed, unit)`` of each checked field of ``cls``, in
    declaration order; built once per record class."""
    return tuple((f.name, CASTS[f.type], f.metadata["allowed"], f.metadata["unit"])
                 for f in dataclasses.fields(cls) if "allowed" in f.metadata)


def check_fields(obj, error=ParameterError) -> None:
    """Cast, finiteness-check and range-check the checked fields of a frozen
    dataclass, in declaration order, each by its annotation and its range.
    Each failure raises ``error`` naming the field."""
    for name, cast, allowed, _ in field_spec(type(obj)):
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
