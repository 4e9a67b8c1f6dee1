"""Exception hierarchy shared by all corostab modules, the floating-point
policy, the range check that reports non-finite results as a DomainError and
the output format: ``csv_text`` for the curve and scan tables, ``json_text``
for every JSON line."""

import json

import numpy as np

# numpy's overflow, invalid and divide-by-zero warnings are silenced where the
# library evaluates, and the result is judged instead.  A decorator only: numpy
# refuses to enter one errstate twice with ``with``; each decorated call is new.
quiet_fp = np.errstate(over="ignore", invalid="ignore", divide="ignore")


class CorostabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(CorostabError):
    """Input array contains NaN/Inf or has the wrong shape."""


class DomainError(CorostabError):
    """Mathematically valid input outside the operation's domain (e.g. log of
    a non-positive-definite tensor)."""


class ConfigurationError(CorostabError):
    """Invalid or incomplete material/run configuration."""


class UsageError(CorostabError):
    """Operation called in a way its contract forbids (e.g. pressure supplied
    for a compressible model)."""


class SolverError(CorostabError):
    """Root solve failed.  Carries the residual scan in ``scan`` when available:
    for a lateral closure, one (lateral stretch, tau_f) pair per grid point."""

    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = scan


def check_finite(where, name, states, *columns):
    """Raise a DomainError naming how many of ``states`` have a non-finite
    value in ``columns`` and the first of them."""
    bad = ~np.all(np.isfinite(np.stack(columns, axis=-1)), axis=-1)
    if np.any(bad):
        raise DomainError(f"{where}{np.count_nonzero(bad)} of {bad.size} states have a non-finite "
                          f"value, the first at {name} = {states[np.argmax(bad)].tolist()}")


def csv_text(columns):
    """CSV text of a mapping of header names to equal-length columns: each
    value the repr of its Python scalar (the shortest round-trip float, an
    int; a bool column as 0 and 1), one line per row after the header."""
    cols = [c.astype(int) if c.dtype == bool else c for c in map(np.asarray, columns.values())]
    rows = zip(*(c.tolist() for c in cols))
    return "\n".join([",".join(columns), *(",".join(map(repr, row)) for row in rows)]) + "\n"


def json_text(payload):
    """Strict JSON text of ``payload``, keys sorted and no spaces; a
    non-finite number is a DomainError, never an Infinity token."""
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise DomainError(f"non-finite value in the result {payload}") from None
