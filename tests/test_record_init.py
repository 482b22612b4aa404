"""The constructors ``Record`` builds from a class's ``__slots__``,
``_defaults`` and ``_check``."""

from fractions import Fraction

import pytest

from sclab.claims import FamilyInfo
from sclab.padic import PadicContext, Residue
from sclab.records import _build_init


def test_wrong_calls_name_the_record_constructor():
    ctx = PadicContext(5, 2)
    calls = [
        (lambda: Residue(1), "missing 1 required positional argument: 'context'"),
        (lambda: Residue(1, ctx, 2), "takes 3 positional arguments but 4 were given"),
        (lambda: Residue(1, ctx, modulus=25), "got an unexpected keyword argument 'modulus'"),
        (lambda: Residue(1, value=1), "got multiple values for argument 'value'"),
    ]
    for call, message in calls:
        with pytest.raises(TypeError) as exc:
            call()
        assert str(exc.value) == f"Residue.__init__() {message}"
    assert Residue.__init__.__qualname__ == "Residue.__init__"
    assert Residue.__init__.__module__ == "sclab.padic"


def test_family_defaults_are_the_former_ones():
    fam = FamilyInfo("x", "d", 1, False, (0,), False, 7, (), lambda r: None, {})
    assert fam.case_modulus == 1
    assert fam.gammas(-5) == () and fam.finite_sum(-5) == Fraction(1)
    assert fam.hand_verified == ()


# A class made in a test would stay among Record's subclasses until the
# garbage collector runs, so these build constructors for plain classes.


def test_check_runs_last_on_the_stored_fields():
    seen = []

    class Span:
        __slots__ = ("lo", "hi")
        _defaults = {"hi": 10}

        def _check(self):
            seen.append((self.lo, self.hi))
            if self.lo > self.hi:
                raise ValueError("empty span")

    Span.__init__ = _build_init(Span)
    span = Span(3)
    assert (span.lo, span.hi) == (3, 10) and seen == [(3, 10)]
    with pytest.raises(ValueError, match="^empty span$"):
        Span(11)
    assert Span.__init__.__qualname__.endswith("Span.__init__")


def test_a_default_for_no_field_is_refused():
    class Stray:
        __slots__ = ("a",)
        _defaults = {"b": 1}

    with pytest.raises(TypeError, match=r"Stray._defaults names no field: \['b'\]"):
        _build_init(Stray)
