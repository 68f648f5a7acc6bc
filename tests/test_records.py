"""The contract of every result record and validated value type.

Result records are namedtuples and the validated value types subclass one, so
``import vndim`` does not load ``dataclasses``.  Each type keeps its field
names and order, its repr, attribute access, refusal of attribute assignment,
and equality and hashing of equal values.  A validated value, ``PiRational``
included, is built only through its constructor's checks.
"""

import copy
import copyreg
import inspect
import math
import os
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import vndim
from vndim.errors import (
    BadCharacterIndex,
    BadRamification,
    DomainError,
    InvalidSignature,
    LevelOutOfRange,
    NegativeLength,
    NonPositiveWeight,
    NoSuchLattice,
    NotFiniteIndex,
    NotPrimePower,
    OddWeight,
    UnknownGroup,
    UnknownTable,
    ZeroSize,
)
from vndim.exact import PiRational, parse_pi_rational
from vndim.factors import free_group_index, jones_index, matrix_coupling
from vndim.finite_field import (
    EnumeratedOrders,
    FiniteRepDims,
    GroupOrders,
    NormTraceFacts,
    PrimePower,
    brute_force_regular_characters,
    count_regular_characters,
    enumerate_gl2,
    finite_rep_dims,
    group_orders,
    is_regular,
    norm_trace_facts,
)
from vndim.fuchsian import (
    FuchsianSignature,
    GroupMode,
    catalog,
    cusp_form_dim,
    discrete_series_multiplicity,
    formal_dimension_psl,
    minimal_discrete_series_weight,
    parse_signature,
    two_lattice_vn_dimension,
    vn_dimension,
)
from vndim.padic import (
    HaarNormalization,
    HaarVolumes,
    JLClass,
    JLTag,
    LevelArithmetic,
    PadicLattice,
    PadicRep,
    ReducedWeylWord,
    depth_zero_formal_dim,
    extension_level_arithmetic,
    haar_volumes,
    ihara_lattice,
    lattice_covolume,
    padic_abs,
    padic_valuation,
    parse_jl_class,
    steinberg_formal_dim,
    ultrametric_check,
    vn_dimension_padic,
    weyl_enumerate,
    weyl_partial_sum,
    weyl_texts,
    weyl_words,
)
from vndim.tables import TABLE_NAMES, Table, build_table, hecke_table

PADIC_COLUMNS = ("n", "h", "covolume_k1", "vn_steinberg", "vn_cuspidal")

#: (build, type, field values in order, repr); ``build`` is the library call
#: that returns the value, so that the test pins what callers receive.
CONTRACTS = [
    (lambda: group_orders(3), GroupOrders,
     {"gl2_order": 48, "borel_order": 12, "borel_index": 4},
     "GroupOrders(gl2_order=48, borel_order=12, borel_index=4)"),
    (lambda: enumerate_gl2(3), EnumeratedOrders,
     {"counted_order": 48, "counted_borel": 12},
     "EnumeratedOrders(counted_order=48, counted_borel=12)"),
    (lambda: norm_trace_facts(3), NormTraceFacts,
     {"norm_surjective": True, "trace_surjective": True, "norm_kernel_size": 4},
     "NormTraceFacts(norm_surjective=True, trace_surjective=True, norm_kernel_size=4)"),
    (lambda: finite_rep_dims(3), FiniteRepDims,
     {"principal_series_dim": 4, "cuspidal_dim": 2, "steinberg_dim": 3},
     "FiniteRepDims(principal_series_dim=4, cuspidal_dim=2, steinberg_dim=3)"),
    (lambda: extension_level_arithmetic(2, 2), LevelArithmetic,
     {"composed_level": 4, "trace_ideal_exponent": 2},
     "LevelArithmetic(composed_level=4, trace_ideal_exponent=2)"),
    (lambda: haar_volumes(5, HaarNormalization.K_HALF_Q_MINUS_ONE), HaarVolumes,
     {"vol_IZ": Fraction(1, 3), "vol_KZ": Fraction(2)},
     "HaarVolumes(vol_IZ=Fraction(1, 3), vol_KZ=Fraction(2, 1))"),
    (lambda: ihara_lattice(3, 4), PadicLattice,
     {"q": PrimePower(3, 1), "rank": 4, "h": 3},
     "PadicLattice(q=PrimePower(p=3, f=1), rank=4, h=3)"),
    (lambda: build_table("padic:5:2"), Table,
     {"name": "padic:5:2", "columns": PADIC_COLUMNS, "rows": []},
     f"Table(name='padic:5:2', columns={PADIC_COLUMNS!r}, rows=[])"),
    (lambda: PrimePower.from_int(9), PrimePower, {"p": 3, "f": 2}, "PrimePower(p=3, f=2)"),
    (lambda: parse_signature("0;2,3;1"), FuchsianSignature,
     {"genus": 0, "elliptic_orders": (2, 3), "cusps": 1},
     "FuchsianSignature(genus=0, elliptic_orders=(2, 3), cusps=1)"),
    (lambda: parse_jl_class("ram:j=4"), JLClass,
     {"tag": JLTag.RAMIFIED_CUSPIDAL, "conductor": 4},
     "JLClass(tag=<JLTag.RAMIFIED_CUSPIDAL: 'ram'>, conductor=4)"),
    (lambda: weyl_enumerate(2)[3], ReducedWeylWord, {"letters": ("w", "w'")},
     "ReducedWeylWord(letters=('w', \"w'\"))"),
]
IDS = [contract[1].__name__ for contract in CONTRACTS]


@pytest.mark.parametrize("build, cls, fields, text", CONTRACTS, ids=IDS)
def test_fields_repr_and_attribute_access(build, cls, fields, text):
    value = build()
    assert type(value) is cls
    assert cls._fields == tuple(fields)
    assert repr(value) == text
    for name, expected in fields.items():
        assert getattr(value, name) == expected
    assert value._asdict() == fields


@pytest.mark.parametrize("build, cls, fields, text", CONTRACTS, ids=IDS)
def test_attribute_assignment_is_refused(build, cls, fields, text):
    value = build()
    for name in list(fields) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    assert repr(value) == text


@pytest.mark.parametrize("build, cls, fields, text", CONTRACTS, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(build, cls, fields, text):
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    assert cls(**fields) == first
    if cls is not Table:  # a table's rows are a list
        assert hash(first) == hash(second) == hash(cls(**fields))
        assert len({first, second}) == 1


def test_value_types_str_and_properties():
    assert str(PrimePower(3, 2)) == "PrimePower(p=3, f=2)"
    assert str(parse_signature("0;-;3")) == "0;-;3"
    assert str(parse_signature("0;2,3;1")) == "0;2,3;1"
    assert str(JLClass(JLTag.GENERALIZED_SPECIAL)) == "special"
    assert str(JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 2)) == "unram:j=2"
    assert str(ReducedWeylWord()) == "1"
    assert str(ReducedWeylWord(("w'", "w"))) == "w'w"
    assert ReducedWeylWord(("w'", "w")).length == 2
    assert PrimePower(3, 2).q == 9


def test_sequences_are_normalised_to_tuples():
    sig = FuchsianSignature(0, [2, 3], 1)
    assert type(sig.elliptic_orders) is tuple and sig == parse_signature("0;2,3;1")
    assert FuchsianSignature(0, iter([2, 3]), 1).elliptic_orders == (2, 3)
    assert FuchsianSignature(0, cusps=3).elliptic_orders == ()
    word = ReducedWeylWord(["w", "w'"])
    assert type(word.letters) is tuple and word == ReducedWeylWord(("w", "w'"))
    assert ReducedWeylWord(iter(["w"])).letters == ("w",)
    assert JLClass(JLTag.GENERALIZED_SPECIAL).conductor == 0


@pytest.mark.parametrize("build, error, message", [
    (lambda: PrimePower(4, 0), "NotPrimePower", "4 is not prime"),
    (lambda: PrimePower(2, 0), "EvenResidue", "residue-field order must be odd"),
    (lambda: PrimePower(3, 0), "NotPrimePower", "exponent must be >= 1, got 0"),
    (lambda: FuchsianSignature(-1, (1,), -1), "InvalidSignature", "genus must be >= 0, got -1"),
    (lambda: FuchsianSignature(0, (1,), -1), "InvalidSignature",
     "cusp count must be >= 0, got -1"),
    (lambda: FuchsianSignature(1, (1,), 0), "InvalidSignature",
     "elliptic order must be an integer >= 2, got 1"),
    (lambda: FuchsianSignature(0, (2.0,), 3), "InvalidSignature",
     "elliptic order must be an integer >= 2, got 2.0"),
    (lambda: FuchsianSignature(0, (2, 2), 1), "NonHyperbolic",
     "signature 0;2,2;1 has Gauss-Bonnet area 2*pi*0 <= 0"),
    (lambda: FuchsianSignature(0, 5, 1), "InvalidSignature",
     "elliptic orders must be an iterable of ints, got 5"),
    (lambda: JLClass(JLTag.GENERALIZED_SPECIAL, 1), "ValueError",
     "generalized special classes carry no conductor"),
    (lambda: JLClass(JLTag.UNRAMIFIED_CUSPIDAL), "ValueError", "conductor must be >= 1, got 0"),
    (lambda: JLClass(JLTag.RAMIFIED_CUSPIDAL, -1), "ValueError",
     "conductor must be >= 1, got -1"),
    (lambda: JLClass(JLTag.RAMIFIED_CUSPIDAL, 3), "OddRamifiedConductor",
     "ramified cuspidal classes need an even conductor, got 3"),
    (lambda: ReducedWeylWord(("x", "x")), "ValueError", "letters must be 'w' or \"w'\", got 'x'"),
    (lambda: ReducedWeylWord(("w'", "w", "w")), "ValueError",
     "word (\"w'\", 'w', 'w') is not reduced"),
    (lambda: ReducedWeylWord("ww"), "ValueError", "word ('w', 'w') is not reduced"),
    (lambda: PrimePower(3.0, 1), "NotPrimePower", "3.0 is not prime"),
    (lambda: PrimePower(9.0, 1), "NotPrimePower", "9.0 is not prime"),
    (lambda: PrimePower(3, 1.5), "NotPrimePower", "exponent must be an integer, got 1.5"),
    (lambda: PrimePower.from_int(3.5), "NotPrimePower", "3.5 is not an integer prime power"),
    (lambda: PrimePower.from_int(9.0), "NotPrimePower", "9.0 is not an integer prime power"),
    (lambda: FuchsianSignature(0, (), 3.5), "InvalidSignature",
     "genus and cusp count must be ints, got 0, 3.5"),
    (lambda: FuchsianSignature(0.5, (), 3), "InvalidSignature",
     "genus and cusp count must be ints, got 0.5, 3"),
    (lambda: JLClass("unram", 3), "ValueError",
     "need a JLTag and an int conductor, got 'unram', 3"),
    (lambda: JLClass("ram", 3), "ValueError", "need a JLTag and an int conductor, got 'ram', 3"),
    (lambda: JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 2.5), "ValueError",
     "need a JLTag and an int conductor, got <JLTag.UNRAMIFIED_CUSPIDAL: 'unram'>, 2.5"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_validation_errors_and_their_order(build, error, message):
    with pytest.raises(Exception) as raised:
        build()
    assert (type(raised.value).__name__, str(raised.value)) == (error, message)


_SIG = parse_signature("0;2,3;1")
_K_ONE = HaarNormalization.K_ONE

#: (id, call of a value x, error, its message with {!r} for x): each integer parameter that
#: finite_field._check_int checks, through each public function that takes it (weyl_texts
#: through weyl_words' own check).  The genus, the cusp count, the conductor and the
#: ramification index e keep the messages of their own checks.
NON_INT_REFUSALS = [
    ("PrimePower-f", lambda x: PrimePower(3, x), NotPrimePower,
     "exponent must be an integer, got {!r}"),
    ("weyl_words", weyl_words, NegativeLength, "word length bound must be an integer, got {!r}"),
    ("weyl_texts", weyl_texts, NegativeLength, "word length bound must be an integer, got {!r}"),
    ("weyl_enumerate", weyl_enumerate, NegativeLength,
     "word length bound must be an integer, got {!r}"),
    ("weyl_partial_sum", lambda x: weyl_partial_sum(3, x), NegativeLength,
     "word length bound must be an integer, got {!r}"),
    ("extension_level_arithmetic", lambda x: extension_level_arithmetic(x, 2), LevelOutOfRange,
     "level must be an integer, got {!r}"),
    ("extension_level_arithmetic-e", lambda x: extension_level_arithmetic(1, x), BadRamification,
     "ramification index of a quadratic extension is 1 or 2, got {}"),
    ("matrix_coupling-n", lambda x: matrix_coupling(x, 3), ZeroSize,
     "n must be an integer, got {!r}"),
    ("matrix_coupling-k", lambda x: matrix_coupling(3, x), ZeroSize,
     "k must be an integer, got {!r}"),
    ("free_group_index-ambient", lambda x: free_group_index(x, 5), NotFiniteIndex,
     "ambient rank must be an integer, got {!r}"),
    ("free_group_index-sub", lambda x: free_group_index(3, x), NotFiniteIndex,
     "subgroup rank must be an integer, got {!r}"),
    ("ihara_lattice", lambda x: ihara_lattice(3, x), NoSuchLattice,
     "free rank must be an integer, got {!r}"),
    ("lattice_covolume", lambda x: lattice_covolume(3, x, _K_ONE), NoSuchLattice,
     "free rank must be an integer, got {!r}"),
    ("vn_dimension_padic", lambda x: vn_dimension_padic(3, x, PadicRep.STEINBERG, _K_ONE),
     NoSuchLattice, "free rank must be an integer, got {!r}"),
    ("formal_dimension_psl", formal_dimension_psl, NonPositiveWeight,
     "discrete-series parameter must be an integer, got {!r}"),
    ("discrete_series_multiplicity", lambda x: discrete_series_multiplicity(_SIG, x),
     NonPositiveWeight, "discrete-series parameter must be an integer, got {!r}"),
    ("vn_dimension", lambda x: vn_dimension(_SIG, x), NonPositiveWeight,
     "discrete-series parameter must be an integer, got {!r}"),
    ("two_lattice_vn_dimension", lambda x: two_lattice_vn_dimension(_SIG, _SIG, x),
     NonPositiveWeight, "discrete-series parameter must be an integer, got {!r}"),
    ("genus", lambda x: FuchsianSignature(x, (), 3), InvalidSignature,
     "genus and cusp count must be ints, got {!r}, 3"),
    ("cusps", lambda x: FuchsianSignature(0, (), x), InvalidSignature,
     "genus and cusp count must be ints, got 0, {!r}"),
    ("conductor", lambda x: JLClass(JLTag.UNRAMIFIED_CUSPIDAL, x), ValueError,
     "need a JLTag and an int conductor, got <JLTag.UNRAMIFIED_CUSPIDAL: 'unram'>, {!r}"),
    ("cusp_form_dim", lambda x: cusp_form_dim(_SIG, x), OddWeight,
     "weight must be an integer, got {!r}"),
    ("hecke_table", hecke_table, UnknownTable, "hecke table qmax must be an integer, got {!r}"),
    ("is_regular", lambda x: is_regular(3, x), BadCharacterIndex,
     "character index a must be an integer, got {!r}"),
    ("count_regular_characters", lambda x: count_regular_characters(3, x), BadCharacterIndex,
     "character index nu must be an integer, got {!r}"),
    ("brute_force_regular_characters", lambda x: brute_force_regular_characters(3, x),
     BadCharacterIndex, "character index nu must be an integer, got {!r}"),
]


@pytest.mark.parametrize("value", [3.0, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("call, error, message", [row[1:] for row in NON_INT_REFUSALS],
                         ids=[row[0] for row in NON_INT_REFUSALS])
def test_a_non_int_parameter_gets_its_domain_error(call, error, message, value):
    with pytest.raises(Exception) as raised:
        call(value)
    assert (type(raised.value), str(raised.value)) == (error, message.format(value))


#: (text parser, its refusal of malformed text, that refusal's message with {!r} for the text).
TEXT_PARSERS = [
    (catalog, UnknownGroup, "unknown group {!r}"),
    (parse_signature, InvalidSignature, "signature must have three ';'-separated fields: {!r}"),
    (parse_pi_rational, ValueError, "cannot parse scalar {!r}"),
    (parse_jl_class, ValueError,
     "cannot parse class {!r}; expected special, unram:j=<n>, or ram:j=<n>"),
    (build_table, UnknownTable, "unknown table {!r}; valid names: " + ", ".join(TABLE_NAMES)),
]


@pytest.mark.parametrize("value", [2.0, True, None, Fraction(3), -1, (), 10**40, []], ids=repr)
@pytest.mark.parametrize("parse, error, message", TEXT_PARSERS,
                         ids=[row[0].__name__ for row in TEXT_PARSERS])
def test_a_text_parser_refuses_a_non_str_as_malformed_text(parse, error, message, value):
    with pytest.raises(Exception) as raised:
        parse(value)
    assert (type(raised.value), str(raised.value)) == (error, message.format(value))


#: Each library call that converts a caller's number to a Fraction, at that number x.
RATIONAL_READERS = {
    "PiRational": PiRational,
    "padic_valuation": lambda x: padic_valuation(x, 5),
    "padic_abs": lambda x: padic_abs(x, 5),
    "ultrametric_check": lambda x: ultrametric_check(1, x, 5),
    "jones_index": lambda x: jones_index(x, 1),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, Decimal("Infinity"), "1/0"], ids=repr)
@pytest.mark.parametrize("call", RATIONAL_READERS.values(), ids=RATIONAL_READERS)
def test_a_number_that_is_not_a_finite_rational_is_a_value_error(call, value):
    with pytest.raises(Exception) as raised:
        call(value)
    assert (type(raised.value), str(raised.value)) == (
        ValueError, f"{value!r} is not a finite rational")


@pytest.mark.parametrize("value", [None, (), []], ids=repr)
@pytest.mark.parametrize("call", RATIONAL_READERS.values(), ids=RATIONAL_READERS)
def test_a_non_number_keeps_the_type_error_of_fraction(call, value):
    with pytest.raises(TypeError):
        call(value)


@pytest.mark.parametrize("value", [2.0, 2.5, True, None, float("nan"), 10**40, -1, 0, Fraction(3)],
                         ids=repr)
def test_elliptic_orders_that_are_not_iterable_are_an_invalid_signature(value):
    with pytest.raises(Exception) as raised:
        FuchsianSignature(0, value, 3)
    assert (type(raised.value), str(raised.value)) == (
        InvalidSignature, f"elliptic orders must be an iterable of ints, got {value!r}")


@pytest.mark.parametrize("value", [2.0, 2.5, True, None, float("nan"), 10**40, -1, 0, Fraction(3)],
                         ids=repr)
def test_letters_that_are_not_iterable_are_not_a_word(value):
    with pytest.raises(Exception) as raised:
        ReducedWeylWord(value)
    assert (type(raised.value), str(raised.value)) == (
        ValueError, f"letters must be an iterable, got {value!r}")


#: (id, call of a value x at an enum parameter, the parameter's name, a member): every
#: dispatch on HaarNormalization, PadicRep or GroupMode, with the other arguments valid.
#: m = 2 is even: PSL2R refuses it, and a non-member taken for SL2R would answer.
ENUM_PARAMETERS = [
    ("haar_volumes", lambda x: haar_volumes(5, x), "norm", _K_ONE),
    ("steinberg_formal_dim", lambda x: steinberg_formal_dim(5, x), "norm", _K_ONE),
    ("depth_zero_formal_dim", lambda x: depth_zero_formal_dim(5, x), "norm", _K_ONE),
    ("lattice_covolume", lambda x: lattice_covolume(5, 3, x), "norm", _K_ONE),
    ("vn_dimension_padic-norm", lambda x: vn_dimension_padic(3, 4, PadicRep.STEINBERG, x),
     "norm", _K_ONE),
    ("vn_dimension_padic-rep", lambda x: vn_dimension_padic(3, 4, x, _K_ONE), "rep",
     PadicRep.STEINBERG),
    ("formal_dimension_psl", lambda x: formal_dimension_psl(2, x), "mode", GroupMode.PSL2R),
    ("vn_dimension", lambda x: vn_dimension(_SIG, 2, x), "mode", GroupMode.PSL2R),
    ("discrete_series_multiplicity", lambda x: discrete_series_multiplicity(_SIG, 2, x), "mode",
     GroupMode.PSL2R),
    ("minimal_discrete_series_weight", lambda x: minimal_discrete_series_weight(_SIG, x), "mode",
     GroupMode.PSL2R),
]


@pytest.mark.parametrize("as_value", [True, False], ids=["value", "None"])
@pytest.mark.parametrize("call, name, member", [row[1:] for row in ENUM_PARAMETERS],
                         ids=[row[0] for row in ENUM_PARAMETERS])
def test_an_enum_parameter_refuses_anything_but_a_member(call, name, member, as_value):
    value = member.value if as_value else None
    with pytest.raises(Exception) as raised:
        call(value)
    assert (type(raised.value), str(raised.value)) == (
        TypeError, f"{name} must be a {type(member).__name__}, got {value!r}")


#: (type, fields of a valid value, fields of an invalid one): the constructor
#: refuses the invalid fields, and so must every other way of building a value.
INVALID = [
    (PrimePower, (3, 2), (9, 1)),
    (PrimePower, (3, 2), (3, 0)),
    (FuchsianSignature, (0, (), 3), (0, (), 0)),
    (FuchsianSignature, (0, (2, 3), 1), (0, (2, 1), 1)),
    (ReducedWeylWord, (("w", "w'"),), (("w", "w"),)),
    (ReducedWeylWord, (("w", "w'"),), (("w", "x"),)),
    (JLClass, (JLTag.RAMIFIED_CUSPIDAL, 4), (JLTag.RAMIFIED_CUSPIDAL, 3)),
    (JLClass, (JLTag.GENERALIZED_SPECIAL, 0), (JLTag.GENERALIZED_SPECIAL, 2)),
    (PrimePower, (3, 2), (3.0, 1)),
    (PrimePower, (3, 2), (3, 1.5)),
    (FuchsianSignature, (0, (), 3), (0, (), 3.5)),
    (FuchsianSignature, (0, (), 3), (0.5, (), 3)),
    (JLClass, (JLTag.RAMIFIED_CUSPIDAL, 4), ("unram", 3)),
    (JLClass, (JLTag.RAMIFIED_CUSPIDAL, 4), ("ram", 3)),
    (JLClass, (JLTag.UNRAMIFIED_CUSPIDAL, 2), (JLTag.UNRAMIFIED_CUSPIDAL, 2.5)),
]


@pytest.mark.parametrize("cls, valid, invalid", INVALID,
                         ids=[f"{row[0].__name__}{row[2]}" for row in INVALID])
def test_make_and_replace_run_the_constructors_checks(cls, valid, invalid):
    with pytest.raises(Exception) as refused:
        cls(*invalid)
    paths = {"_make": lambda: cls._make(invalid),
             "_replace": lambda: cls(*valid)._replace(**dict(zip(cls._fields, invalid)))}
    for path, build in paths.items():
        with pytest.raises(Exception) as raised:
            build()
        assert (type(raised.value), str(raised.value)) == (
            type(refused.value), str(refused.value)), path


def test_make_and_replace_of_valid_fields_return_the_new_value():
    made, replaced = PrimePower._make([5, 2]), PrimePower(3, 2)._replace(f=3)
    assert (type(made), type(replaced)) == (PrimePower, PrimePower)
    assert (made.q, replaced.q) == (25, 27)
    made = JLClass._make([JLTag.UNRAMIFIED_CUSPIDAL, 3])
    replaced = made._replace(tag=JLTag.RAMIFIED_CUSPIDAL, conductor=6)
    assert (type(made), type(replaced)) == (JLClass, JLClass)
    assert (str(made), str(replaced)) == ("unram:j=3", "ram:j=6")


def test_make_normalises_as_the_constructor_does():
    assert type(ReducedWeylWord._make([["w"]]).letters) is tuple
    assert FuchsianSignature._make([0, [2, 3], 1]) == parse_signature("0;2,3;1")
    assert parse_signature("0;-;3")._replace(elliptic_orders=[2]).elliptic_orders == (2,)


@pytest.mark.parametrize("cls", [FuchsianSignature, ReducedWeylWord])
def test_init_takes_the_parameters_of_new(cls):
    # The empty __init__ that the benchmark times binds what __new__ binds, no *args.
    init, new = inspect.signature(cls.__init__), inspect.signature(cls.__new__)
    assert list(init.parameters.values())[1:] == list(new.parameters.values())[1:]


def test_keyword_construction():
    assert FuchsianSignature(genus=0, elliptic_orders=[2, 3], cusps=1) == parse_signature("0;2,3;1")
    assert FuchsianSignature(2) == FuchsianSignature(genus=2, elliptic_orders=(), cusps=0)
    assert ReducedWeylWord(letters=["w", "w'"]) == ReducedWeylWord(("w", "w'"))
    assert ReducedWeylWord(letters=()) == ReducedWeylWord()

@pytest.mark.parametrize("slot", PiRational.__slots__)
def test_pi_rational_refuses_deletion(slot):
    value = PiRational(Fraction(1, 3), 1)
    with pytest.raises(AttributeError, match="^PiRational is immutable$"):
        delattr(value, slot)
    assert str(value) == "1/3·π" and value == PiRational(Fraction(1, 3), 1)


TUPLE_VALUES = [PrimePower(3, 2), parse_signature("0;2,3;1"), ReducedWeylWord(("w'", "w")),
                JLClass(JLTag.RAMIFIED_CUSPIDAL, 4)]
VALID = TUPLE_VALUES + [PiRational(Fraction(-5, 4), -1)]
COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy}
COPIES.update({f"pickle{protocol}": lambda value, protocol=protocol:
               pickle.loads(pickle.dumps(value, protocol)) for protocol in range(6)})


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("value", VALID, ids=[type(value).__name__ for value in VALID])
def test_valid_values_copy_and_pickle_equal(value, how):
    copied = COPIES[how](value)
    assert type(copied) is type(value)
    assert copied == value and hash(copied) == hash(value) and repr(copied) == repr(value)


@pytest.mark.parametrize("how", COPIES)
def test_pi_rational_copies_and_pickles_through_its_constructor(how, monkeypatch):
    value, built = PiRational(Fraction(-5, 4), -1), []
    init = PiRational.__init__
    monkeypatch.setattr(PiRational, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    assert COPIES[how](value) == value
    assert built == [(value.coeff, value.pi_exp)]


#: A Mersenne prime of 11213 bits, past PRIME_BITS_GUARD: testing it takes seconds.
M11213 = 2**11213 - 1


def long4(n):
    """The pickle opcode LONG4 that pushes the int n >= 0; every protocol loads it."""
    data = n.to_bytes(n.bit_length() // 8 + 1, "little")
    return pickle.LONG4 + len(data).to_bytes(4, "little") + data


#: (a valid value, the pickled bytes of one of its fields, the bytes that replace
#: them, the fields the tampered pickle then holds).  Protocol 0 writes fields as
#: text, so the byte edits are made from protocol 1 up.
TAMPERED = [
    (PrimePower(3, 1), b"K\x03", b"K\x09", (9, 1)),
    (PrimePower(3, 1), b"K\x03", long4(M11213), (M11213, 1)),
    (PrimePower(3, 2), b"K\x02", b"K\x00", (3, 0)),
    (parse_signature("0;-;3"), b"K\x03", b"K\x00", (0, (), 0)),
    (ReducedWeylWord(("w", "w'")), b"w'", b"x'", (("w", "x'"),)),
    (JLClass(JLTag.RAMIFIED_CUSPIDAL, 4), b"K\x04", b"K\x03", (JLTag.RAMIFIED_CUSPIDAL, 3)),
]


@pytest.mark.parametrize("protocol", range(1, pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("value, old, new, fields", TAMPERED,
                         ids=[f"{type(row[0]).__name__}{row[3]}".replace(str(M11213), "M11213")
                              for row in TAMPERED])
def test_a_tampered_pickle_runs_the_constructors_checks(value, old, new, fields, protocol):
    cls = type(value)
    stream = pickle.dumps(value, protocol)
    assert stream.count(old) == 1
    with pytest.raises(Exception) as refused:
        cls(*fields)
    with pytest.raises(Exception) as raised:
        pickle.loads(stream.replace(old, new))
    assert (type(raised.value), str(raised.value)) == (type(refused.value), str(refused.value))


#: The bytes of pickle.dumps(PrimePower(3, 1), 4) as namedtuple's own pickling
#: writes them: NEWOBJ, which calls PrimePower.__new__ and not the class.
NEWOBJ_PRIME_POWER = (b"\x80\x04\x95-\x00\x00\x00\x00\x00\x00\x00\x8c\x12vndim.finite_field"
                      b"\x94\x8c\nPrimePower\x94\x93\x94K\x03K\x01\x86\x94\x81\x94.")


def test_a_newobj_pickle_of_a_prime_power_runs_its_checks():
    assert pickle.loads(NEWOBJ_PRIME_POWER) == PrimePower(3, 1)
    with pytest.raises(NotPrimePower) as raised:
        pickle.loads(NEWOBJ_PRIME_POWER.replace(b"K\x03", b"K\x09"))
    assert str(raised.value) == "9 is not prime"


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("cls, valid, invalid", INVALID,
                         ids=[f"{row[0].__name__}{row[2]}" for row in INVALID])
def test_a_newobj_pickle_runs_the_constructors_checks(cls, valid, invalid, protocol, monkeypatch):
    with pytest.raises(Exception) as refused:
        cls(*invalid)
    # Written as namedtuple's own pickling writes a value: through copyreg.__newobj__.
    monkeypatch.setattr(cls, "__reduce__", lambda self: (copyreg.__newobj__, (cls, *invalid)))
    stream = pickle.dumps(cls(*valid), protocol)
    monkeypatch.undo()
    with pytest.raises(Exception) as raised:
        pickle.loads(stream)
    assert (type(raised.value), str(raised.value)) == (type(refused.value), str(refused.value))


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("cls, valid, invalid", INVALID,
                         ids=[f"{row[0].__name__}{row[2]}" for row in INVALID])
def test_a_forged_value_does_not_survive_a_copy_or_a_pickle(cls, valid, invalid, how):
    with pytest.raises((DomainError, ValueError)) as refused:  # not AttributeError or TypeError
        cls(*invalid)
    forged = tuple.__new__(cls, invalid)  # past the checks, as no public path builds it
    with pytest.raises(Exception) as raised:
        COPIES[how](forged)
    assert (type(raised.value), str(raised.value)) == (type(refused.value), str(refused.value))


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("value", TUPLE_VALUES,
                         ids=[type(value).__name__ for value in TUPLE_VALUES])
def test_value_types_copy_and_pickle_through_their_constructor(value, how, monkeypatch):
    cls, built = type(value), []
    new = cls.__new__  # the checks run here
    monkeypatch.setattr(cls, "__new__",
                        lambda cls, *args: built.append(args) or new(cls, *args))
    assert COPIES[how](value) == value
    assert built == [tuple(value)]


def test_every_checked_value_type_has_the_sealing_base_before_its_namedtuple():
    from vndim.finite_field import _Sealed

    # Every namedtuple subclass with a __new__ of its own that vndim exports; cli.Op,
    # whose __new__ takes *params, is not exported.
    checked = {name: obj for name, obj in vars(vndim).items() if isinstance(obj, type)
               and issubclass(obj, tuple) and hasattr(obj, "_fields") and "__new__" in vars(obj)}
    assert sorted(checked) == ["FuchsianSignature", "JLClass", "PrimePower", "ReducedWeylWord"]
    for cls in checked.values():
        generated = next(base for base in cls.__mro__ if "_fields" in vars(base))
        assert cls.__mro__.index(_Sealed) < cls.__mro__.index(generated), cls
        assert "_make" not in vars(cls) and "__reduce__" not in vars(cls), cls


def test_cli_import_does_not_load_dataclasses():
    # -S keeps site-packages hooks from loading modules of their own first.
    code = "import sys, vndim.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(vndim.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_cli_import_does_not_load_typing():
    # -I ignores PYTHONPATH, so the source directory goes on sys.path by hand.
    src = str(Path(vndim.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import vndim.cli; "
            "print('typing' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"
