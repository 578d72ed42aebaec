"""The tuple values: the frozen value classes of the whole package.

Every module that defines a value class, or builds values in hot loops,
imports its protocol from here: ``_TupleValue``, the base of every such
class, its metaclass ``_ValueClass``, the argument binder ``_bind`` of the
shared constructor, the refusal ``_refuse`` and ``_new``, which builds a
value past its ``__new__``.  This module imports nothing else of the package, so each layer that builds
values loads it alone and not the layers around it.
"""

from __future__ import annotations

from collections import _tuplegetter

# Builds a tuple value (a _TupleValue, a BlockRef or a PointAddr) from the
# tuple of its items, as in ``_new(PointAddr, (cls, block, elem))``, with no
# call of the class's own ``__new__``, a Python function: a verify round
# builds some 700,000 addresses and 350,000 opens and certificates, and the
# preorder walk one Preorder per preorder.
_new = tuple.__new__


def _refuse(self, other):
    """An operation a value does not take: Python tries the other operand, then raises TypeError."""
    return NotImplemented


class _ValueClass(type):
    """The class of every tuple value class.

    It gives each one an empty ``__slots__``, so that its values have no
    ``__dict__``, and each field named in its ``_fields`` a read-only getter
    of its item: the C getter ``collections.namedtuple`` gives its own
    fields, quicker to read than ``property(itemgetter(i))``.
    """

    def __new__(mcls, name, bases, namespace):
        namespace.setdefault("__slots__", ())
        cls = super().__new__(mcls, name, bases, namespace)
        for i, field in enumerate(namespace.get("_fields", ())):
            setattr(cls, field, _tuplegetter(i, None))
        return cls


class _TupleValue(tuple, metaclass=_ValueClass):
    """A value stored as the tuple of its fields, built in hot loops by ``_new``.

    A subclass names its fields once, in ``_fields``: each reads its item
    (see ``_ValueClass``), and the value shows as ``Class(field=value,
    ...)``.  Items after the named fields hold data derived from them, read
    by getters the class sets itself (``FinitePartition.block_of``).  A
    class that writes no ``__new__`` takes its fields in order, by position
    or keyword, with the defaults in ``_defaults``.

    A value hashes, indexes, unpacks and orders as its tuple, but neither
    joins nor repeats, and has no attributes to assign.  Unlike a
    plain tuple it is equal only to a value of the same class: ``tuple``'s
    own ``==`` and ``!=`` would call a ``Preorder`` equal to the
    ``FiniteRelation`` with the same rows, and a value equal to the plain
    tuple of its fields.  Other tuples are unequal; other types get
    ``NotImplemented``.
    """

    _fields: tuple = ()
    _defaults: dict = {}

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = _bind(cls, args, kwargs)
        return _new(cls, args)

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if type(other) is type(self):
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__  # defining __eq__ would otherwise leave the class unhashable

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    __add__ = __mul__ = __rmul__ = _refuse  # a value is no sequence to join or repeat

    def __reduce__(self):  # pickle and copy rebuild from the items, as _new does
        return _new, (type(self), tuple(self))


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The fields of ``cls`` from the arguments of a call, with its defaults.

    Refuses, with a ``TypeError`` that names ``cls.__new__``, the calls that
    a function with the fields as its parameters would refuse.
    """
    fields, name = cls._fields, f"{cls.__qualname__}.__new__()"
    given = dict(zip(fields, args))
    if len(args) > len(fields) or not kwargs.keys() <= set(fields) - given.keys():
        raise TypeError(f"{name} takes its fields {', '.join(fields)}, each once, by position or keyword")
    values = {**cls._defaults, **given, **kwargs}
    missing = [repr(f) for f in fields if f not in values]
    if missing:
        plural = "s" if len(missing) > 1 else ""
        raise TypeError(f"{name} missing {len(missing)} required positional argument{plural}: {', '.join(missing)}")
    return tuple([values[f] for f in fields])
