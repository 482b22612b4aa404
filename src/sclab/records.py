"""Record types: value semantics read off ``__slots__`` at call time.

A record class lists its fields in ``__slots__``, once.  Unless the class
writes its own ``__init__``, defining it builds one (``_build_init``):
the parameters are the fields in slot order, with defaults from the
class's ``_defaults`` dict, each field is stored through its slot
descriptor's setter, and the class's ``_check(self)``, if it has one,
runs last to refuse bad values or fill in fresh defaults.  A constructor
written by hand takes its parameters from the leading fields; a field it
computes (such as ``PadicContext.modulus``) comes after them.

``Record`` gives equality between records of the same type only, the
repr ``Name(field=value, ...)``, pickling and ``_replace``, and leaves a
record unhashable: its direct subclasses are the mutable records.
``FrozenRecord`` adds a hash of the fields and refuses assignment; a
hand-written constructor stores its fields past that refusal with
``object.__setattr__``, as ``PadicContext`` and the q ring's
``QPolynomial``, ``QRing`` and ``QRingElement`` do.
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


def _build_init(cls):
    """``cls.__init__`` taking its fields in slot order: compiled once,
    storing each through its slot setter, then calling ``cls._check``."""
    fields = cls.__slots__
    defaults = getattr(cls, "_defaults", {})
    unknown = set(defaults) - set(fields)
    if unknown:
        raise TypeError(f"{cls.__qualname__}._defaults names no field: {sorted(unknown)}")
    params = [f"{name}=_defaults[{name!r}]" if name in defaults else name for name in fields]
    body = [f"    _set_{name}(self, {name})" for name in fields]
    if hasattr(cls, "_check"):
        body.append("    self._check()")
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body)
    namespace = {"_defaults": defaults}
    namespace.update(
        (f"_set_{name}", setter) for name, setter in zip(fields, slot_setters(cls))
    )
    # a file name per class keeps profiles and tracebacks apart
    exec(compile(source, f"<{cls.__module__}.{cls.__qualname__}>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    if hasattr(init.__code__, "co_qualname"):
        # from Python 3.11 on, a wrong call's TypeError names the code's qualname
        init.__code__ = init.__code__.replace(co_qualname=init.__qualname__)
    return init


class Record:
    # defining __eq__ without __hash__ leaves a mutable record unhashable
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__ and "__init__" not in cls.__dict__:
            cls.__init__ = _build_init(cls)

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
