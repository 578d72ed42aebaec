"""Exception types shared across the package, and the size checks that raise them."""

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


def check_bounds(bounds, least: int) -> None:
    """Refuse sampling bounds ``(block, element)`` that are not integers >= least."""
    require_integers("sampling bounds", *bounds)
    if min(bounds) < least:
        raise InvalidSizeError(f"sampling bounds must be >= {least}, got {bounds[0]},{bounds[1]}")
