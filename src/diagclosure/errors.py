"""Exception types shared across the package, the size checks that raise
them, and the one reader of natural numbers written as text.

Every natural number the command line reads (spec counts and block sizes,
point indices, ``--bounds``, ``--pairs``, ``--n``, designated sets,
partition literals and opens files; not ``--seed``, which may be negative)
goes through :func:`read_natural` or :func:`read_naturals`: surrounding
whitespace is ignored, the rest must be ASCII digits, and anything else
raises :class:`SpecSyntaxError` naming the field.  ``int()``'s own digit
limit (``sys.get_int_max_str_digits``) is the only cap on length; a refusal
at that limit names the environment variable that moves it,
``PYTHONINTMAXSTRDIGITS``.
"""

import sys
from operator import index


class DiagClosureError(Exception):
    """Base class for all library-specific errors."""


class SpecSyntaxError(DiagClosureError, ValueError):
    """Malformed partition-spec text, point address, or input file."""


class GroundSetFiniteError(DiagClosureError, ValueError):
    """The partition spec describes a finite ground set."""


class NotEquivalenceError(DiagClosureError, ValueError):
    """A relation expected to be an equivalence fails one of the axioms."""


class InvalidAddressError(DiagClosureError, ValueError):
    """A point address does not exist for the given partition spec."""


class NotRealisableError(DiagClosureError):
    """The requested separation axiom cannot realise the relation."""


class NotT1ConstructionError(DiagClosureError):
    """T1 witnesses requested from a construction that is not T1."""


class ForeignVariantError(DiagClosureError, ValueError):
    """A basic open of a variant that does not belong to the construction."""


class BoundExceededError(DiagClosureError, ValueError):
    """Input size above the hard limit of a brute-force operation."""


class InvalidSizeError(DiagClosureError, ValueError):
    """A count, size or sampling bound that is not an integer, or is below
    the least value an operation accepts."""


class InvalidRepresentativeError(DiagClosureError, ValueError):
    """A block representative that is not a member of its block."""


class SpecMismatchError(DiagClosureError, ValueError):
    """A construction paired with a spec it was not built from."""


class NotATopologyError(DiagClosureError, ValueError):
    """An open-set family that is not closed under union/intersection.

    ``witness`` holds the offending pair of sets (as point tuples) and the
    operation whose result is missing, when that is the reason.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidCatalogError(DiagClosureError, ValueError):
    """A catalog whose text ``read_catalog`` refuses, or reads back as
    another catalog, or whose records are not rows of seven fields."""


class NotDisjointError(DiagClosureError, ValueError):
    """Designated sets that were required to be pairwise disjoint overlap."""


def require_integers(what: str, *values) -> None:
    """Refuse, naming it, any of ``values`` that ``operator.index`` rejects.

    Counts and bounds are compared and drawn from as integers; a float or a
    string would otherwise fail later, in a way that depends on the Python
    version, or not at all.
    """
    for value in values:
        try:
            index(value)
        except TypeError:
            raise InvalidSizeError(f"{what} must be integers, got {value!r}") from None


def read_natural(text: str, what: str) -> int:
    """The natural number ``text`` spells in ASCII digits, or SpecSyntaxError
    ``bad <what>: ...``.

    ``int()`` alone would also take ``+``, ``_`` and the digits of other
    scripts; ``str.isdigit`` alone would also take ``²``, which ``int()``
    refuses.
    """
    try:
        item = str.strip(text)  # str's own strip: bytes have a strip, isdigit and int() of their own
    except TypeError:
        raise SpecSyntaxError(f"bad {what}: expected a str, got {type(text).__name__}") from None
    if item.isascii() and item.isdigit():
        try:
            return int(item)
        except ValueError:  # more digits than int() converts
            raise SpecSyntaxError(
                f"bad {what}: {len(item)} digits, more than the {sys.get_int_max_str_digits()} this interpreter"
                " reads (the environment variable PYTHONINTMAXSTRDIGITS sets that limit)"
            ) from None
    raise SpecSyntaxError(f"bad {what}: {item!r}")


def read_naturals(text: str, what: str, count=None) -> list[int]:
    """The comma-separated naturals of ``text``, each read as by
    :func:`read_natural`; with ``count``, exactly that many of them."""
    items = text.split(",")
    if count is not None and len(items) != count:
        raise SpecSyntaxError(f"bad {what}: {text!r}")
    # one digit test for the whole text, not one call per item (an opens
    # file may hold 2M items); int() then refuses an empty item, an item
    # with inner whitespace, or one with too many digits
    digits = "".join(text.split()).replace(",", "")
    if digits.isascii() and digits.isdigit():
        try:
            return [int(item) for item in items]
        except ValueError:
            pass
    # some item is bad: read_natural names it
    return [read_natural(item, what) for item in items]


def check_bounds(bounds, least: int) -> None:
    """Refuse sampling bounds ``(block, element)`` that are not integers >= least."""
    require_integers("sampling bounds", *bounds)
    if min(bounds) < least:
        raise InvalidSizeError(f"sampling bounds must be >= {least}, got {bounds[0]},{bounds[1]}")
