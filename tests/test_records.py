"""The value semantics of the package's records and value types:
equality, hashing, immutability, pickling and copying, and the
constructors' checks."""

import copy
import pickle
from fractions import Fraction

import pytest

from sclab.claims import (
    FAMILIES,
    ChainStep,
    ClosedForm,
    ProofChain,
    ScanResult,
    proof_chain_thm1,
    scan,
    verify,
)
from sclab.cyclotomic import CycElement
from sclab.hyperkernel import IdentityFuzzResult, SeriesSpec, fuzz_d1
from sclab.padic import CongruenceCheck, PadicContext, Residue, congruent
from sclab.qring import QPolynomial, QRing, q_integer, verify_q_conjecture
from sclab.records import FrozenRecord, Record


def _records():
    """One of each record a worker returns or a user may copy, built by
    the code that builds them in use."""
    ctx = PadicContext(7, 3)
    fuzz = fuzz_d1(trials=3, seed=1)
    fuzz.failures.append((Fraction(1, 2), 3))
    return [
        verify("thm2", 5, -2),
        scan("d2", 13),
        proof_chain_thm1(11, -7),
        ChainStep("step", "detail", 4, None, True),
        fuzz,
        verify_q_conjecture(7, 1),
        ctx,
        ctx.reduce(Fraction(1, 3)),
        SeriesSpec(upper=(Fraction(1, 2),), lower=(Fraction(3, 4),), truncation=5),
    ]


def _values():
    """One of each immutable value type of the arithmetic layers, with a
    Fraction among its coefficients where it can hold one."""
    ring = QRing(7)
    return [
        CycElement(5, [Fraction(1, 2), 3, 0, -1]),
        QPolynomial([1, Fraction(-2, 3), 0, 5]),
        ring,
        q_integer(3, ring).inverse(),
    ]


@pytest.mark.parametrize(
    "record", _records() + _values(), ids=lambda rec: type(rec).__name__
)
def test_records_round_trip_through_pickle_and_deepcopy(record):
    for copied in (
        pickle.loads(pickle.dumps(record)),
        pickle.loads(pickle.dumps(record, protocol=0)),
        copy.deepcopy(record),
        copy.copy(record),
    ):
        assert type(copied) is type(record)
        assert copied == record
        assert repr(copied) == repr(record)
        if type(record).__hash__ is not None:
            assert hash(copied) == hash(record)


def test_deepcopy_of_a_mutable_record_shares_no_list():
    chain = proof_chain_thm1(11, -7)
    twin = copy.deepcopy(chain)
    twin.steps.append(ChainStep("extra", "", None, None, True))
    assert len(twin.steps) == len(chain.steps) + 1


def test_frozen_records_refuse_assignment_and_deletion():
    ctx = PadicContext(5, 2)
    frozen = [
        ctx,
        Residue(3, ctx),
        CongruenceCheck(True, 2),
        SeriesSpec(upper=(), lower=()),
        verify("lr3", 5),
        ChainStep("step", "detail", None, None, True),
        ClosedForm(Fraction(1), (), Fraction(1), "label"),
        FAMILIES["thm1"],
        verify_q_conjecture(7, 1),
        *_values(),
    ]
    for record in frozen:
        before = repr(record)
        for name in record.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.undeclared = 1
        assert repr(record) == before
    assert (ctx.p, ctx.k, ctx.modulus) == (5, 2, 25)


def test_equal_frozen_records_hash_equal():
    pairs = [
        (PadicContext(7, 3), PadicContext(7, 3)),
        (Residue(5, PadicContext(7, 3)), PadicContext(7, 3).reduce(5)),
        (CongruenceCheck(False, 1), CongruenceCheck(False, 1)),
        (SeriesSpec(upper=(1,), lower=()), SeriesSpec((1,), (), 1, 1)),
        (ChainStep("a", "b", 2, 3, True), ChainStep("a", "b", 2, 3, True)),
    ]
    for a, b in pairs:
        assert a == b and a is not b
        assert hash(a) == hash(b)
    assert len({PadicContext(7, 3), PadicContext(7, 3), PadicContext(7, 2)}) == 2
    assert Residue(5, PadicContext(7, 3)) != Residue(5, PadicContext(7, 2))


def test_mutable_records_are_mutable_and_unhashable():
    result = scan("d2", 13)
    chain = proof_chain_thm1(11, -7)
    fuzz = fuzz_d1(trials=2, seed=0)
    for record in (result, chain, fuzz):
        with pytest.raises(TypeError):
            hash(record)
    result.skipped_inadmissible += 1
    chain.status = "fail"
    fuzz.failures.append(("args",))
    assert result.skipped_inadmissible == scan("d2", 13).skipped_inadmissible + 1
    assert not chain.passed and not fuzz.passed
    # a fresh record gets its own list, as a default factory would give
    assert ProofChain("thm1", 11, -7).steps == [] and fuzz_d1(trials=2).failures == []
    assert ProofChain("x", 2, 1).steps is not ProofChain("x", 2, 1).steps


def test_records_of_different_types_never_compare_equal():
    ctx = PadicContext(5, 2)
    records = [
        ctx,
        Residue(3, ctx),
        CongruenceCheck(True, 2),
        ChainStep("p", "k", 5, 2, True),
        ScanResult("c", [], 0, []),
        ProofChain("c", 5, 2),
        IdentityFuzzResult("c", 5, 2),
        SeriesSpec(upper=(), lower=()),
    ]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) is (i == j)
            assert (a != b) is (i != j)
    assert congruent(26, 1, ctx) != (True, 2)
    assert ctx != (5, 2, 25)


def test_repr_names_every_field_in_order():
    assert repr(CongruenceCheck(True, 2)) == "CongruenceCheck(holds=True, valuation=2)"
    assert repr(ProofChain("thm1", 11, -7)) == (
        "ProofChain(claim='thm1', p=11, r=-7, steps=[], status='pass', reason='')"
    )
    assert repr(Residue(3, PadicContext(5, 2))) == (
        "Residue(value=3, context=PadicContext(p=5, k=2, modulus=25))"
    )


def test_replace_runs_the_constructor():
    ctx = PadicContext(5, 2)
    assert ctx._replace(k=4) == PadicContext(5, 4)
    assert ctx._replace(k=4).modulus == 625
    with pytest.raises(ValueError, match="^6 is not prime$"):
        ctx._replace(p=6)
    with pytest.raises(TypeError):
        ctx._replace(modulus=7)  # computed, not a parameter
    with pytest.raises(TypeError):
        ctx._replace(q=7)
    spec = SeriesSpec(upper=(1,), lower=(), truncation=3)
    assert spec._replace(truncation=4) == SeriesSpec(upper=(1,), lower=(), truncation=4)
    assert spec == SeriesSpec(upper=(1,), lower=(), truncation=3)


def test_constructor_messages():
    with pytest.raises(ValueError, match="^6 is not prime$"):
        PadicContext(6, 2)
    with pytest.raises(ValueError, match="^exponent must be at least 1$"):
        PadicContext(5, 0)
    with pytest.raises(ValueError, match="^residue 9 out of range for modulus 9$"):
        Residue(9, PadicContext(3, 2))
    with pytest.raises(ValueError, match="^residue -1 out of range for modulus 9$"):
        Residue(-1, PadicContext(3, 2))
    with pytest.raises(ValueError, match="^truncation must be nonnegative$"):
        SeriesSpec(upper=(), lower=(), truncation=-1)
    with pytest.raises(ValueError, match="^factorial power must be nonnegative$"):
        SeriesSpec(upper=(), lower=(), factorial_power=-1)


def test_constructor_parameters_are_the_leading_fields():
    # _replace reads the constructor's parameters; a field after them is
    # one the constructor computes
    classes = [*Record.__subclasses__(), *FrozenRecord.__subclasses__()]
    classes.remove(FrozenRecord)
    assert len(classes) == 16
    for cls in classes:
        init = cls.__init__.__code__
        params = init.co_varnames[1 : init.co_argcount]
        assert cls.__slots__[: len(params)] == params, cls.__name__
    assert PadicContext.__slots__[2:] == ("modulus",)
