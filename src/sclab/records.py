"""Record types: value semantics read off ``__slots__`` at call time.

A record class lists its fields in ``__slots__`` and writes its own
``__init__``, with its checks inline.  The constructor's parameters are
the fields in slot order; a field the constructor computes (such as
``PadicContext.modulus``) comes after them.  Defining a record class
generates no code, which keeps the package's import cheap.

``Record`` gives equality between records of the same type only, the
repr ``Name(field=value, ...)``, pickling and ``_replace``, and leaves a
record unhashable: its direct subclasses are the mutable records, whose
constructors assign fields plainly.  ``FrozenRecord`` adds a hash of the
fields and refuses assignment; its constructors write through the slot
descriptors' setters (``slot_setters``), as ``CycElement`` does.
"""

from __future__ import annotations


def _restore(cls, values: tuple):
    """The record of type ``cls`` holding ``values`` in slot order, set
    without running its constructor: the inverse of ``__reduce__``."""
    out = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(out, name, value)
    return out


def slot_setters(cls) -> tuple:
    """The ``__set__`` of each slot descriptor of ``cls``, in slot order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class Record:
    # defining __eq__ without __hash__ leaves a mutable record unhashable
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # pickle's default would restore the fields through __setattr__,
        # which a frozen record refuses
        return _restore, (self.__class__, self._values())

    def _replace(self, **changes):
        """A copy with ``changes`` applied, built by the constructor, so its
        checks run and computed fields are computed again.  A name that is
        not a constructor parameter raises TypeError."""
        init = self.__init__.__code__
        params = init.co_varnames[1 : init.co_argcount]
        kept = {name: getattr(self, name) for name in params}
        return self.__class__(**(kept | changes))


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
