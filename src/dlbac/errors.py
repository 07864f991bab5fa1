"""Exception hierarchy shared by all dlbac modules, and the number rules of their checks."""

from numbers import Integral, Real


class DlbacError(Exception):
    """Base class for all dlbac errors."""


class ConfigError(DlbacError):
    """Invalid configuration value or combination."""


class SynthesisError(DlbacError):
    """Dataset synthesis could not satisfy a rule."""


class FormatError(DlbacError):
    """Malformed dataset / encoder / model / tree file."""


class IngestError(DlbacError):
    """Malformed CSV input."""


class NotFoundError(DlbacError):
    """Unknown user or resource id."""


class ConflictError(DlbacError):
    """Contradictory metadata for the same id."""


def is_whole(value, least: int | None = None) -> bool:
    """True iff `value` is an integer (Python or numpy, not a bool), and >= `least` if given.

    The configs and entry points check their counts, indices and seeds with
    this one rule, so a 2.5 or a "3" is refused where it enters, not when a
    range or an index later trips on it.
    """
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        return False  # a plain int skips the slower ABC check
    return least is None or value >= least


def is_real(value) -> bool:
    """True iff `value` is a real number (Python or numpy, not a bool).

    The configs check it before a range comparison, so a "0.5" is refused
    with a ConfigError rather than a TypeError, and a True is not taken for 1.
    """
    return type(value) is float or (isinstance(value, Real) and not isinstance(value, bool))
