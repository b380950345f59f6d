"""The contract of every value class of the package (gf2.Value): equality
and hashing by type and fields, immutability, pickling, keyword
construction, and the input checks each class makes."""

import pickle

import pytest

from rmclass.anf import Anf, CoefficientVector, Monomial
from rmclass.burnside import CountResult
from rmclass.cli import OracleEntry, OracleTable
from rmclass.conjclasses import ConjCell, GlClassDescriptor, gl_classes
from rmclass.gf2 import BitMatrix, BitVector, SingularMatrixError, Value
from rmclass.group import AffineElement, Permutation
from rmclass.linrep import TauMatrix, tau_matrix

SWAP = AffineElement(2, BitMatrix(2, 2, (2, 1)), BitVector(2, 1))
ENTRY = OracleEntry("I", 3, 1, 3, 3)
TAU = tau_matrix(SWAP, 2, 0)
GL2 = gl_classes(2)[1]

# class -> (fields of one valid value, [(bad fields, exception class)])
CASES = {
    BitVector: ((3, 5), [((2, 4), ValueError), ((-1, 0), ValueError)]),
    BitMatrix: ((2, 2, (1, 3)), [((2, 2, (1,)), ValueError),
                                 ((2, 2, (1, 4)), ValueError),
                                 ((-1, 0, ()), ValueError)]),
    Monomial: ((3, 0b101), [((2, 4), ValueError), ((-1, 0), ValueError)]),
    Anf: ((2, 0b1001), [((1, 16), ValueError), ((2, -1), ValueError)]),
    CoefficientVector: ((3, 2, 0, BitVector(6, 0b101)),
                        [((3, 2, 0, BitVector(5)), ValueError),
                         ((3, 4, 0, BitVector(6)), ValueError)]),
    AffineElement: ((SWAP.n, SWAP.a, SWAP.b),
                    [((2, BitMatrix(2, 2, (3, 3)), BitVector(2)),
                      SingularMatrixError),
                     ((3, SWAP.a, SWAP.b), ValueError)]),
    Permutation: ((1, (1, 0)), [((1, (0, 0)), ValueError),
                                ((2, (0, 1)), ValueError)]),
    TauMatrix: ((2, 2, 0, TAU.matrix, SWAP),
                [((2, 1, 0, TAU.matrix, SWAP), ValueError),
                 ((2, 2, 0, BitMatrix(3, 3, (0,) * 3), SWAP), ValueError)]),
    CountResult: ((3, 3, 1, 3, 4, 0.5), []),
    ConjCell: ((SWAP, 2), [((SWAP, 0), ValueError)]),
    # three fields: rep is a property built from the assignment
    GlClassDescriptor: ((GL2.assignment, GL2.size, GL2.centralizer), []),
    OracleEntry: (("I", 3, 1, 3, 3), []),
    OracleTable: (((ENTRY, ENTRY),),
                  [(((ENTRY, OracleEntry("II", 3, 1, 3, 4)),), ValueError)]),
}

params = pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)


@params
def test_equal_and_hashed_by_type_and_fields(cls):
    fields = CASES[cls][0]
    a, b = cls(*fields), cls(*fields)
    assert isinstance(a, Value) and a is not b
    assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    # another class with the same fields is another value
    twin = type("Twin", (Value,), {"__slots__": cls.__slots__})(*fields)
    assert a != twin and twin != a
    assert a != fields


@params
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = cls(*CASES[cls][0])
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = 0
    assert value == cls(*CASES[cls][0])


@params
def test_pickle_round_trips(cls):
    value = cls(*CASES[cls][0])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value


@params
def test_keyword_construction_and_repr(cls):
    fields = CASES[cls][0]
    value = cls(*fields)
    keywords = dict(zip(cls.__slots__, fields))
    assert cls(**keywords) == value
    assert cls(fields[0], **dict(list(keywords.items())[1:])) == value
    assert repr(value) == cls.__name__ + "(" + ", ".join(
        f"{name}={field!r}" for name, field in keywords.items()) + ")"
    for args, kwargs in [((), {}), (fields + (0,), {}),
                         (fields, {cls.__slots__[0]: fields[0]}),
                         (fields[:-1], {"no_such_field": 0})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@params
def test_bad_input_raises_its_exception_class(cls):
    for fields, error in CASES[cls][1]:
        with pytest.raises(error) as caught:
            cls(*fields)
        # a singular linear part is a ValueError too, but of its own class
        assert caught.type is error


def test_bitvector_bits_default_to_zero():
    assert BitVector(3) == BitVector(3, 0) == BitVector(n=3)
    assert BitVector(bits=5, n=3) == BitVector(3, 5)
    assert repr(BitVector(3)) == "BitVector(n=3, bits=0)"
