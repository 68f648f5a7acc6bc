import copyreg
import math
import random
import time
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vndim.cli import main
from vndim.errors import (
    BadRamification,
    EvenResidue,
    LevelOutOfRange,
    NegativeLength,
    NoSuchLattice,
    NotPrime,
    NotPrimePower,
    OddRamifiedConductor,
    TooLarge,
)
from vndim.finite_field import PrimePower
from vndim.padic import (
    INFINITE_VALUATION,
    WEYL_LENGTH_GUARD,
    HaarNormalization,
    JLClass,
    JLTag,
    PadicRep,
    ReducedWeylWord,
    abs_from_valuation,
    depth_zero_formal_dim,
    extension_level_arithmetic,
    haar_volumes,
    ihara_lattice,
    jl_formal_dim,
    lattice_covolume,
    padic_abs,
    padic_valuation,
    parse_jl_class,
    quadratic_extension_count,
    steinberg_formal_dim,
    ultrametric_check,
    vn_dimension_padic,
    weyl_closed_form,
    weyl_enumerate,
    weyl_length_histogram,
    weyl_partial_sum,
    weyl_texts,
    weyl_words,
)
from vndim.padic import _abs_from_valuation

from oracles import cms_steinberg_check, free_product_histogram

ALL_NORMS = tuple(HaarNormalization)


def random_rational(rng, zero_ok=True):
    num = rng.randint(-(10**4), 10**4)
    if not zero_ok and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 10**4))


# -- valuations -----------------------------------------------------------------


def test_valuation_examples():
    assert padic_valuation(Fraction(18), 3) == 2  # 18 = 2 * 3^2
    assert padic_abs(Fraction(18), 3) == Fraction(1, 9)
    assert padic_valuation(Fraction(0), 5) == INFINITE_VALUATION
    assert padic_abs(Fraction(0), 5) == 0
    assert padic_valuation(Fraction(7, 25), 5) == -2
    assert padic_abs(Fraction(7, 25), 5) == 25


def test_valuation_requires_prime():
    with pytest.raises(NotPrime):
        padic_valuation(Fraction(1), 6)


def test_infinite_valuation_is_above_everything():
    assert INFINITE_VALUATION > 10**100
    assert min(INFINITE_VALUATION, -3) == -3


def test_ultrametric_examples():
    assert ultrametric_check(Fraction(2), Fraction(3), 3)  # |5| = 1 <= 1
    assert ultrametric_check(Fraction(1, 3), Fraction(2, 3), 3)  # |1| = 1 <= 3
    x = Fraction(7, 9)
    assert ultrametric_check(x, -x, 3)  # sum is 0


def test_valuation_properties_random():
    rng = random.Random(1)
    for p in (3, 5, 7):
        for _ in range(500):
            r = random_rational(rng, zero_ok=False)
            s = random_rational(rng, zero_ok=False)
            assert padic_valuation(r * s, p) == padic_valuation(r, p) + padic_valuation(s, p)
            assert padic_valuation(r + s, p) >= min(padic_valuation(r, p), padic_valuation(s, p))
            assert ultrametric_check(r, s, p)
            assert padic_abs(r * s, p) == padic_abs(r, p) * padic_abs(s, p)


def test_sharp_ultrametric_when_values_differ():
    rng = random.Random(2)
    for p in (3, 5, 7):
        for _ in range(200):
            r = random_rational(rng, zero_ok=False)
            s = random_rational(rng, zero_ok=False)
            if padic_abs(r, p) != padic_abs(s, p):
                assert padic_abs(r + s, p) == max(padic_abs(r, p), padic_abs(s, p))


@pytest.mark.parametrize("r, s, p", [
    ("1/3", "2/3", 3), ("7/9", "-7/9", 3), ("5", "1/5", 5),  # str: never concatenated
    (2, 3, 3), (9, -3, 3), (0, 0, 5), (True, True, 2),  # int and bool
    (0.5, 0.25, 2), (0.1, 0.2, 5),
    # As floats, 3 * 2^53 + 3 rounds to 3 * 2^53 + 4, which 3 does not divide.
    (3 * 2.0**53, 3.0, 3),
    (Decimal("0.2"), Decimal("0.05"), 5),
])
def test_ultrametric_check_adds_str_and_float_inputs_exactly(r, s, p):
    assert ultrametric_check(r, s, p) is True


def fraction_ultrametric_check(r, s, p):
    """Oracle: the inequality on absolute values, each p^(-v) an exact Fraction."""
    return padic_abs(Fraction(r) + Fraction(s), p) <= max(padic_abs(r, p), padic_abs(s, p))


def test_ultrametric_check_matches_the_absolute_value_form():
    rng = random.Random(3)
    pairs = [(random_rational(rng), random_rational(rng)) for _ in range(300)]
    pairs += [(0, 0), (Fraction(0), Fraction(5, 9)), (Fraction(7, 3), 0),  # zero
              (Fraction(7, 9), Fraction(-7, 9)), (-12, 12),  # r = -s
              (2, 3), (9, -3), (1, Fraction(1, 3)), (27, 54)]  # integers
    for p in (2, 3, 5, 7, 11):
        for r, s in pairs:
            assert ultrametric_check(r, s, p) == fraction_ultrametric_check(r, s, p), (r, s, p)
    # the valuation form is the same inequality, also where it fails: p^(-v) falls as v rises
    for _ in range(300):
        x, r, s, p = (random_rational(rng), random_rational(rng), random_rational(rng),
                      rng.choice((2, 3, 5)))
        by_valuation = padic_valuation(x, p) >= min(padic_valuation(r, p), padic_valuation(s, p))
        assert by_valuation == (padic_abs(x, p) <= max(padic_abs(r, p), padic_abs(s, p)))


# -- extension levels --------------------------------------------------------------


def test_level_arithmetic_examples():
    r = extension_level_arithmetic(2, 2)
    assert (r.composed_level, r.trace_ideal_exponent) == (4, 2)
    r = extension_level_arithmetic(1, 1)
    assert (r.composed_level, r.trace_ideal_exponent) == (1, 2)
    r = extension_level_arithmetic(3, 2)
    assert (r.composed_level, r.trace_ideal_exponent) == (6, 2)


def test_level_arithmetic_errors():
    with pytest.raises(BadRamification):
        extension_level_arithmetic(2, 3)
    with pytest.raises(BadRamification):  # 2.0 == 2, but it would make the level 6.0
        extension_level_arithmetic(3, 2.0)
    with pytest.raises(LevelOutOfRange):
        extension_level_arithmetic(0, 2)


def test_quadratic_extension_count():
    assert quadratic_extension_count(3) == 3
    assert quadratic_extension_count(5) == 3
    assert quadratic_extension_count(2) == 7
    with pytest.raises(NotPrime):
        quadratic_extension_count(9)


# -- Weyl words -------------------------------------------------------------------


def test_weyl_enumerate_small():
    assert [str(w) for w in weyl_enumerate(0)] == ["1"]
    words = weyl_enumerate(3)
    assert [str(w) for w in words] == ["1", "w", "w'", "ww'", "w'w", "ww'w", "w'ww'"]
    assert len(words) == 7


def test_weyl_histogram_two_per_length():
    hist = weyl_length_histogram(10)
    assert hist == {0: 1, **{k: 2 for k in range(1, 11)}}


def test_weyl_enumeration_matches_free_product_oracle():
    for max_length in range(0, 13):
        assert weyl_length_histogram(max_length) == free_product_histogram(max_length)


def test_reduced_word_invariants():
    with pytest.raises(ValueError):
        ReducedWeylWord(("w", "w"))
    with pytest.raises(ValueError):
        ReducedWeylWord(("x",))


def letter_scan_refusal(letters):
    """The letter-by-letter check of a reduced word: None when ``letters`` is a
    reduced word, else the message of the ValueError that refuses it."""
    for letter in letters:
        if letter not in ("w", "w'"):
            return f"letters must be 'w' or \"w'\", got {letter!r}"
    for left, right in zip(letters, letters[1:]):
        if left == right:
            return f"word {letters} is not reduced"
    return None


def assert_word_checked_as_the_letter_scan_checks(letters):
    refusal = letter_scan_refusal(letters)
    if refusal is None:
        assert ReducedWeylWord(letters).letters == letters
    else:
        with pytest.raises(ValueError) as refused:
            ReducedWeylWord(letters)
        assert str(refused.value) == refusal


WEYL_TEST_LETTERS = ("w", "w'", "x", "")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(WEYL_TEST_LETTERS), max_size=12).map(tuple))
def test_reduced_word_accepts_exactly_what_the_letter_scan_accepts(letters):
    assert_word_checked_as_the_letter_scan_checks(letters)


def test_reduced_word_check_on_every_short_word_and_every_reduced_one():
    for length in range(6):
        for letters in product(WEYL_TEST_LETTERS, repeat=length):
            assert_word_checked_as_the_letter_scan_checks(letters)
    for word in weyl_enumerate(12):  # the 25 reduced words, each accepted
        assert_word_checked_as_the_letter_scan_checks(word.letters)


def test_word_text_is_its_letters_joined():
    for max_length in [*range(61), WEYL_LENGTH_GUARD]:
        for word in weyl_enumerate(max_length):
            assert str(word) == ("".join(word.letters) or "1"), (max_length, word.length)
    # longer words than any list holds, built directly
    for letters in (("w", "w'") * 1001, ("w'", "w") * 1000 + ("w'",)):
        assert str(ReducedWeylWord(letters)) == "".join(letters)


def test_a_word_built_by_new_alone_is_checked():
    # copyreg.__newobj__ is how a pickle stream builds a value without calling its class
    with pytest.raises(ValueError) as refused:
        copyreg.__newobj__(ReducedWeylWord, ("w", "w"))
    assert str(refused.value) == "word ('w', 'w') is not reduced"


def test_weyl_partial_sums():
    assert weyl_partial_sum(3, 0) == 2
    assert weyl_partial_sum(3, 1) == Fraction(10, 3)
    assert weyl_closed_form(3) == 4


def fraction_by_fraction_weyl_sum(q, max_length):
    """Oracle: 2(1 + 2 sum_{k=1..L} q^(-k)), adding one Fraction per term."""
    total = Fraction(0)
    for k in range(1, max_length + 1):
        total += Fraction(1, q**k)
    return 2 * (1 + 2 * total)


def test_weyl_partial_sum_matches_a_fraction_by_fraction_sum():
    for q in (3, 5, 7, 9, 25):
        for L in range(0, 61):
            assert weyl_partial_sum(q, L) == fraction_by_fraction_weyl_sum(q, L), (q, L)


def tree_chamber_counts(q, max_distance):
    """Oracle: n_k, the chambers of the (q+1)-regular tree at gallery distance k
    from a base chamber, for k <= max_distance, by breadth-first search.

    A vertex is its path of child labels from a root, which has q + 1 children
    while every other vertex has q; a chamber (edge) is named by its lower vertex.
    Two chambers are adjacent when they share a vertex.
    """

    def adjacent(v):
        parent = v[:-1]
        above = [parent] if parent else []  # the chamber above the upper vertex
        siblings = [parent + (c,) for c in range(q if parent else q + 1) if c != v[-1]]
        return above + siblings + [v + (c,) for c in range(q)]

    seen, frontier, counts = {(0,)}, [(0,)], [1]
    for _ in range(max_distance):
        reached = []
        for chamber in frontier:
            for c in adjacent(chamber):
                if c not in seen:
                    seen.add(c)
                    reached.append(c)
        frontier = reached
        counts.append(len(frontier))
    return counts


@pytest.mark.parametrize("q, max_length", [(3, 6), (5, 4), (7, 3), (9, 3)])
def test_weyl_partial_sum_matches_a_chamber_count_of_the_tree(q, max_length):
    # each word w of length k contributes |IwI/I| = q^k chambers at gallery distance k,
    # so sum_w q^(-l(w)) = sum_k n_k q^(-2k)
    counts = tree_chamber_counts(q, max_length)
    assert counts == [1] + [2 * q**k for k in range(1, max_length + 1)]
    assert 2 * sum(Fraction(n, q ** (2 * k)) for k, n in enumerate(counts)) == weyl_partial_sum(
        q, max_length)


def test_weyl_enumeration_refuses_past_the_guard():
    assert WEYL_LENGTH_GUARD == 2000
    for call in (weyl_enumerate, weyl_length_histogram):
        with pytest.raises(TooLarge) as raised:
            call(WEYL_LENGTH_GUARD + 1)
        assert str(raised.value) == "word length bound 2001 exceeds Weyl-word guard 2000"
    # the largest allowed bound still answers in full
    words = weyl_enumerate(WEYL_LENGTH_GUARD)
    assert len(words) == 2 * WEYL_LENGTH_GUARD + 1
    assert str(words[-1]) == "w'w" * (WEYL_LENGTH_GUARD // 2)
    # the partial sum holds no words, so it has no such bound
    assert weyl_partial_sum(3, WEYL_LENGTH_GUARD + 1) == 4 - Fraction(2, 3**2001)


@pytest.mark.parametrize("max_length", [0, 1, 2, 3, 57, WEYL_LENGTH_GUARD])
def test_weyl_words_yields_the_enumerated_words_in_order(max_length):
    words = weyl_words(max_length)
    assert iter(words) is words  # an iterator, not a list
    assert list(words) == weyl_enumerate(max_length)


@pytest.mark.parametrize("call", [weyl_words, weyl_texts])
@pytest.mark.parametrize("max_length, error, message", [
    (-1, NegativeLength, "word length bound must be >= 0, got -1"),
    (WEYL_LENGTH_GUARD + 1, TooLarge, "word length bound 2001 exceeds Weyl-word guard 2000"),
])
def test_weyl_words_refuses_at_the_call_before_any_word(call, max_length, error, message):
    with pytest.raises(error) as raised:
        call(max_length)  # weyl_words' iterator is never run
    assert str(raised.value) == message


@pytest.mark.parametrize("max_length", sorted(
    {*range(301), *range(0, WEYL_LENGTH_GUARD, 37), WEYL_LENGTH_GUARD}))
def test_weyl_texts_are_the_enumerated_words_texts(max_length):
    assert weyl_texts(max_length) == [str(word) for word in weyl_enumerate(max_length)]


@pytest.mark.parametrize("max_length", [0, 1, 57, WEYL_LENGTH_GUARD])
def test_weyl_words_builds_each_word_through_its_checked_constructor(monkeypatch, max_length):
    built, new = [], ReducedWeylWord.__new__  # the checks run here
    monkeypatch.setattr(ReducedWeylWord, "__new__",
                        lambda cls, *args: built.append(args) or new(cls, *args))
    words = weyl_words(max_length)
    assert built == []  # each word is built when it is reached
    next(words)
    assert len(built) == 1
    assert 1 + sum(1 for _ in words) == len(built) == 2 * max_length + 1


def test_weyl_tail_is_exact_geometric():
    for q in (3, 5, 7):
        previous = None
        for L in range(0, 61):
            partial = weyl_partial_sum(q, L)
            assert weyl_closed_form(q) - partial == Fraction(4, (q - 1) * q**L)
            if previous is not None:
                assert partial > previous
            previous = partial


# -- Haar volumes and formal dimensions ----------------------------------------------


def test_haar_volumes_at_three():
    v = haar_volumes(3, HaarNormalization.IWAHORI_ONE)
    assert (v.vol_IZ, v.vol_KZ) == (1, 4)
    v = haar_volumes(3, HaarNormalization.K_ONE)
    assert (v.vol_IZ, v.vol_KZ) == (Fraction(1, 4), 1)
    v = haar_volumes(3, HaarNormalization.K_HALF_Q_MINUS_ONE)
    assert (v.vol_IZ, v.vol_KZ) == (Fraction(1, 4), 1)  # coincidence at q = 3
    v = haar_volumes(5, HaarNormalization.K_HALF_Q_MINUS_ONE)
    assert (v.vol_IZ, v.vol_KZ) == (Fraction(1, 3), 2)


def test_haar_iwahori_index_relation():
    for q in (3, 5, 7, 9):
        for norm in ALL_NORMS:
            v = haar_volumes(q, norm)
            assert v.vol_KZ == (q + 1) * v.vol_IZ


def test_steinberg_formal_dim():
    assert steinberg_formal_dim(3, HaarNormalization.IWAHORI_ONE) == Fraction(1, 4)
    assert steinberg_formal_dim(3, HaarNormalization.K_ONE) == 1
    assert steinberg_formal_dim(3, HaarNormalization.K_HALF_Q_MINUS_ONE) == 1
    for q in (3, 5, 7, 9):
        assert steinberg_formal_dim(q, HaarNormalization.K_HALF_Q_MINUS_ONE) == 1


def test_steinberg_matches_weyl_series():
    # the square-integral of the distinguished coefficient is the full series,
    # so the Iwahori-normalized formal dimension is its reciprocal
    for q in (3, 5, 7):
        assert steinberg_formal_dim(q, HaarNormalization.IWAHORI_ONE) == 1 / weyl_closed_form(q)


def test_steinberg_cms_cross_check():
    for q in (3, 5, 7, 9):
        assert steinberg_formal_dim(q, HaarNormalization.K_ONE) == cms_steinberg_check(q, 2)
        assert cms_steinberg_check(q, 2) == Fraction(q - 1, 2)


def test_depth_zero_formal_dim():
    assert depth_zero_formal_dim(3, HaarNormalization.K_ONE) == 2
    assert depth_zero_formal_dim(5, HaarNormalization.K_ONE) == 4
    assert depth_zero_formal_dim(3, HaarNormalization.K_HALF_Q_MINUS_ONE) == 2
    for q in (3, 5, 7, 9):
        assert depth_zero_formal_dim(q, HaarNormalization.K_HALF_Q_MINUS_ONE) == 2


def test_formal_dims_scale_inversely_with_measure():
    for q in (3, 5, 7):
        for norm in ALL_NORMS:
            vol = haar_volumes(q, norm).vol_KZ
            assert steinberg_formal_dim(q, norm) * vol == Fraction(q - 1, 2)
            assert depth_zero_formal_dim(q, norm) * vol == q - 1


# -- lattices -------------------------------------------------------------------------


def test_ihara_lattice_examples():
    assert ihara_lattice(3, 2).h == 1
    assert ihara_lattice(3, 4).h == 3
    with pytest.raises(NoSuchLattice):
        ihara_lattice(5, 2)
    with pytest.raises(NoSuchLattice):
        ihara_lattice(3, 1)


def test_lattice_covolume_examples():
    assert lattice_covolume(3, 2, HaarNormalization.K_ONE) == 1
    assert lattice_covolume(3, 2, HaarNormalization.K_Q_PLUS_ONE) == 4
    assert lattice_covolume(3, 2, HaarNormalization.K_HALF_Q_MINUS_ONE) == 1


def test_lattice_covolume_khalf_is_rank_minus_one():
    for q, n in [(3, 2), (3, 4), (5, 3), (7, 4), (9, 5)]:
        assert lattice_covolume(q, n, HaarNormalization.K_HALF_Q_MINUS_ONE) == n - 1


def test_vn_dimension_padic_examples():
    assert vn_dimension_padic(3, 2, PadicRep.STEINBERG, HaarNormalization.K_ONE) == 1
    assert vn_dimension_padic(3, 4, PadicRep.DEPTH_ZERO_CUSPIDAL, HaarNormalization.K_ONE) == 6
    assert vn_dimension_padic(3, 2, PadicRep.STEINBERG, HaarNormalization.IWAHORI_ONE) == 1


def test_vn_dimension_padic_normalization_invariance():
    for q, n in [(3, 2), (3, 4), (5, 3), (7, 4)]:
        for norm in ALL_NORMS:
            assert vn_dimension_padic(q, n, PadicRep.STEINBERG, norm) == n - 1
            assert vn_dimension_padic(q, n, PadicRep.DEPTH_ZERO_CUSPIDAL, norm) == 2 * (n - 1)


def test_vn_dimension_padic_no_lattice():
    with pytest.raises(NoSuchLattice):
        vn_dimension_padic(5, 2, PadicRep.STEINBERG, HaarNormalization.K_ONE)


# -- Jacquet-Langlands table -------------------------------------------------------------


def test_jl_formal_dims():
    assert jl_formal_dim(3, JLClass(JLTag.GENERALIZED_SPECIAL)) == 1
    assert jl_formal_dim(3, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 1)) == 2
    assert jl_formal_dim(3, JLClass(JLTag.RAMIFIED_CUSPIDAL, 2)) == 4
    assert jl_formal_dim(3, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 3)) == 18
    assert jl_formal_dim(5, JLClass(JLTag.RAMIFIED_CUSPIDAL, 4)) == 30


def test_jl_ramified_needs_even_conductor():
    with pytest.raises(OddRamifiedConductor):
        JLClass(JLTag.RAMIFIED_CUSPIDAL, 3)
    with pytest.raises(OddRamifiedConductor):
        parse_jl_class("ram:j=1")


def test_jl_rejects_non_prime_order():
    with pytest.raises(NotPrime):
        jl_formal_dim(9, JLClass(JLTag.GENERALIZED_SPECIAL))
    with pytest.raises(EvenResidue):
        jl_formal_dim(2, JLClass(JLTag.GENERALIZED_SPECIAL))


def test_jl_agrees_with_direct_depth_zero_computation():
    # the conductor-1 unramified class and the directly computed depth-zero
    # dimension must agree under the Steinberg-degree-1 normalization
    for p in (3, 5, 7, 11, 13):
        assert jl_formal_dim(p, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 1)) == 2
        assert depth_zero_formal_dim(p, HaarNormalization.K_HALF_Q_MINUS_ONE) == 2


def test_jl_conductor_one_is_depth_zero_over_steinberg_under_every_normalization():
    # a ratio of formal dimensions does not depend on the Haar measure
    for p in (3, 5, 7, 11, 13):
        for norm in ALL_NORMS:
            ratio = depth_zero_formal_dim(p, norm) / steinberg_formal_dim(p, norm)
            assert jl_formal_dim(p, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 1)) == ratio, (p, norm)


def test_jl_class_parsing():
    assert parse_jl_class("special") == JLClass(JLTag.GENERALIZED_SPECIAL)
    assert parse_jl_class("unram:j=2") == JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 2)
    assert parse_jl_class("ram:j=4") == JLClass(JLTag.RAMIFIED_CUSPIDAL, 4)
    for bad in ["bogus", "unram", "unram:j=x", "special:j=1"]:
        with pytest.raises(ValueError):
            parse_jl_class(bad)


def test_infinite_valuation_constant_is_float_inf():
    assert math.isinf(INFINITE_VALUATION)


def test_negative_weyl_length_is_refused():
    from vndim.errors import DomainError, NegativeLength

    assert issubclass(NegativeLength, DomainError)
    for max_length in (-1, -2, -50):
        with pytest.raises(NegativeLength):
            weyl_enumerate(max_length)
        with pytest.raises(NegativeLength):
            weyl_length_histogram(max_length)
        with pytest.raises(NegativeLength):
            weyl_partial_sum(3, max_length)


# -- each public call tests p once ------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda: padic_valuation(Fraction(18, 5), 3),
    lambda: padic_abs(Fraction(18, 5), 3),
    lambda: ultrametric_check(Fraction(1, 3), Fraction(2, 3), 3),
    lambda: quadratic_extension_count(3),
    lambda: jl_formal_dim(3, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 2)),
    lambda: main(["padic", "valuation", "--r", "18/5", "--p", "3"]),
    lambda: PrimePower(3, 1),
], ids=["padic_valuation", "padic_abs", "ultrametric_check", "quadratic_extension_count",
        "jl_formal_dim", "cli-valuation", "PrimePower"])
def test_p_is_tested_once(monkeypatch, capsys, call):
    import vndim.finite_field as finite_field

    calls = []
    is_prime = finite_field.is_prime

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(finite_field, "is_prime", counting)
    call()
    assert calls == [3]


@pytest.mark.parametrize("call, error, message", [
    (lambda: padic_valuation(Fraction(9), 3.0), NotPrime, "3.0 is not prime"),
    (lambda: padic_abs(Fraction(9), 3.0), NotPrime, "3.0 is not prime"),
    (lambda: ultrametric_check(Fraction(1), Fraction(2), 3.0), NotPrime, "3.0 is not prime"),
    (lambda: quadratic_extension_count(3.0), NotPrime, "3.0 is not prime"),
    (lambda: jl_formal_dim(3.0, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 2)), NotPrime,
     "the formal-dimension table needs a prime p, got 3.0"),
    (lambda: PrimePower(3.0, 1), NotPrimePower, "3.0 is not prime"),
], ids=["padic_valuation", "padic_abs", "ultrametric_check", "quadratic_extension_count",
        "jl_formal_dim", "PrimePower"])
def test_a_float_p_is_refused_after_one_test(monkeypatch, call, error, message):
    import vndim.finite_field as finite_field

    calls = []
    is_prime = finite_field.is_prime
    monkeypatch.setattr(finite_field, "is_prime", lambda n: calls.append(n) or is_prime(n))
    with pytest.raises(error) as raised:
        call()
    assert (type(raised.value), str(raised.value), calls) == (error, message, [3.0])


def test_one_test_of_p_still_refuses_a_composite():
    for call in (lambda: padic_abs(Fraction(1), 9),
                 lambda: ultrametric_check(Fraction(1), Fraction(2), 9)):
        with pytest.raises(NotPrime, match="^9 is not prime$"):
            call()


def test_jl_table_tests_p_once(monkeypatch):
    import vndim.finite_field as finite_field
    from vndim.tables import build_table

    calls = []
    is_prime = finite_field.is_prime

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(finite_field, "is_prime", counting)
    table = build_table("jl:3:40")
    assert len(table.rows) == 1 + 40 + 20
    assert calls == [3]


@pytest.mark.parametrize("name, error, message", [
    ("jl:4:3", NotPrime, "the formal-dimension table needs a prime p, got 4"),
    ("jl:2:3", EvenResidue, "the formal-dimension table assumes odd residue order"),
    ("jl:1:0", NotPrime, "the formal-dimension table needs a prime p, got 1"),
])
def test_jl_table_refuses_a_bad_p(name, error, message):
    from vndim.tables import build_table

    with pytest.raises(error) as raised:
        build_table(name)
    assert type(raised.value) is error
    assert str(raised.value) == message


class SubFraction(Fraction):
    pass


@pytest.mark.parametrize("r, v", [
    (18, 2), (-18, 2), (True, 0), (0, INFINITE_VALUATION), (Fraction(18, 5), 2),
    (Fraction(-18, 5), 2), (Fraction(5, 18), -2), (SubFraction(-5, 18), -2), (2.25, 2),
    (Decimal("0.36"), 2), ("7/27", -3), ("-54/5", 3),
], ids=repr)
def test_valuation_takes_every_rational_input(r, v):
    assert padic_valuation(r, 3) == v
    assert padic_abs(r, 3) == (0 if v == INFINITE_VALUATION else Fraction(3) ** -v)


# -- the memo of p^(-v) ------------------------------------------------------------


def reference_valuation(r: Fraction, p: int):
    """v_p by the largest power of p dividing each term, found by trying p^1, p^2, ..."""
    def multiplicity(n):
        return next(k for k in range(n.bit_length() + 1) if n % p ** (k + 1))

    if r == 0:
        return math.inf
    return multiplicity(r.numerator) - multiplicity(r.denominator)


def reference_abs(r: Fraction, p: int) -> Fraction:
    v = reference_valuation(r, p)
    return Fraction(0) if v == math.inf else Fraction(p) ** -v


def test_cold_and_warm_memo_agree_with_the_reference():
    rng = random.Random(17)
    cases = []
    for p in (3, 5, 7, 11, 10**12 + 39):
        for _ in range(150):
            r, s = (rng.choice((0, 1, -1)) * Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4))
                    * Fraction(p) ** rng.randint(-4, 4) for _ in range(2))
            cases.append((r, s, p))
    expected = [(reference_valuation(r, p), reference_abs(r, p), reference_abs(r + s, p),
                 reference_abs(r + s, p) <= max(reference_abs(r, p), reference_abs(s, p)))
                for r, s, p in cases]
    _abs_from_valuation.cache_clear()
    for sweep in ("cold", "warm"):
        got = [(padic_valuation(r, p), padic_abs(r, p), padic_abs(r + s, p),
                ultrametric_check(r, s, p)) for r, s, p in cases]
        assert got == expected, sweep
        assert [type(row[1]) for row in got] == [Fraction] * len(got), sweep
    info = _abs_from_valuation.cache_info()
    assert info.hits > info.misses  # the warm sweep answered from the memo


def outcome(call):
    try:
        value = call()
    except Exception as error:  # a refusal is behaviour too: its type and message
        return type(error), str(error)
    return type(value), value


@pytest.mark.parametrize("v", [2.0, True], ids=repr)
def test_memo_keys_are_typed(v):
    _abs_from_valuation.cache_clear()
    cold = outcome(lambda: abs_from_valuation(v, 5))
    _abs_from_valuation.cache_clear()
    assert abs_from_valuation(2, 5) == Fraction(1, 25)
    assert abs_from_valuation(1, 5) == Fraction(1, 5)
    assert outcome(lambda: abs_from_valuation(v, 5)) == cold
    assert outcome(lambda: abs_from_valuation(2, 5)) == (Fraction, Fraction(1, 25))


@pytest.mark.parametrize("v, p, error, message", [
    (10**40, 5, TooLarge, "result needs a power of "),
    (-(10**40), 5, TooLarge, "result needs a power of "),
    (2, 0, NotPrime, "0 is not prime"),
    (2, 4, NotPrime, "4 is not prime"),
], ids=["huge-v", "huge-negative-v", "p=0", "p=4"])
def test_abs_from_valuation_refuses_a_bad_p_and_a_huge_v_at_once(v, p, error, message):
    start = time.perf_counter()
    with pytest.raises(error) as raised:
        abs_from_valuation(v, p)
    assert time.perf_counter() - start < 0.1
    assert type(raised.value) is error and str(raised.value).startswith(message)


def test_memo_size_is_bounded():
    _abs_from_valuation.cache_clear()
    maxsize = _abs_from_valuation.cache_info().maxsize
    assert isinstance(maxsize, int)
    for v in range(-maxsize, maxsize):
        assert abs_from_valuation(v, 3) == Fraction(3) ** -v
    assert 0 < _abs_from_valuation.cache_info().currsize <= maxsize
    assert padic_abs(Fraction(-18, 5), 3) == Fraction(1, 9)
    assert _abs_from_valuation.cache_info().currsize <= maxsize
