import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithlink import unitriangular as ut
from arithlink.errors import CompatibilityError, InputError
from arithlink.magnus import (TruncatedSeries, eps, magnus_eval,
                              magnus_matrix, series_matrix)
from arithlink.rings import ResidueRing
from arithlink.words import GroupWord, commutator, parse_word

R2 = ResidueRing(2)
R3 = ResidueRing(3)
R4 = ResidueRing(4)


def series(ring, degree, coeffs):
    return TruncatedSeries(ring, degree, tuple(coeffs.items()))


# ---------------------------------------------------------------------------
# series arithmetic


def test_one_is_neutral():
    f = series(R4, 2, {(): 1, ("a",): 3, ("a", "b"): 2})
    one = TruncatedSeries.one(R4, 2)
    assert one * f == f
    assert f * one == f


def test_mul_convolution():
    f = TruncatedSeries.unit_plus_variable("1", R4, 2)
    g = TruncatedSeries.unit_plus_variable("2", R4, 2)
    fg = f * g
    assert fg.coefficient(()) == 1
    assert fg.coefficient(("1",)) == 1
    assert fg.coefficient(("2",)) == 1
    assert fg.coefficient(("1", "2")) == 1
    assert fg.coefficient(("2", "1")) == 0


def test_mul_truncates_and_reduces():
    f = TruncatedSeries.unit_plus_variable("1", R2, 1)
    sq = f * f
    assert sq == TruncatedSeries.one(R2, 1)  # 2*x1 = 0, x1*x1 truncated


def test_mul_mismatch():
    with pytest.raises(CompatibilityError):
        TruncatedSeries.one(R2, 1) * TruncatedSeries.one(R2, 2)
    with pytest.raises(CompatibilityError):
        TruncatedSeries.one(R2, 1) * TruncatedSeries.one(R4, 1)


def test_inverse_of_one():
    one = TruncatedSeries.one(R4, 3)
    assert one.inverse_unit() == one


def test_inverse_is_geometric_series():
    f = TruncatedSeries.unit_plus_variable("1", R3, 3)
    inv = f.inverse_unit()
    for k, sign in ((0, 1), (1, -1), (2, 1), (3, -1)):
        assert inv.coefficient(("1",) * k) == sign % 3


@pytest.mark.parametrize("ring", [R2, R3, R4])
def test_inverse_property(ring):
    rng = random.Random(ring.q)
    letters = ("1", "2")
    for _ in range(20):
        coeffs = {(): 1}
        for w in [(a,) for a in letters] + \
                 [(a, b) for a in letters for b in letters]:
            coeffs[w] = rng.randrange(ring.q)
        f = series(ring, 2, coeffs)
        assert f * f.inverse_unit() == TruncatedSeries.one(ring, 2)


def test_inverse_requires_unit():
    f = series(R2, 1, {("1",): 1})
    with pytest.raises(InputError):
        f.inverse_unit()


def test_str_ordering():
    f = series(R4, 2, {(): 1, ("2", "1"): 3, ("1",): 2})
    assert str(f) == "1 + 2 * x1 + 3 * x2.x1"


# ---------------------------------------------------------------------------
# the Magnus homomorphism


def test_empty_word_maps_to_one():
    assert magnus_eval(GroupWord.identity(), 3, R2) == TruncatedSeries.one(R2, 3)


def test_generator_maps_to_one_plus_variable():
    got = magnus_eval(GroupWord.generator("t1"), 2, R4)
    assert got == TruncatedSeries.unit_plus_variable("t1", R4, 2)


def test_commutator_series():
    w = parse_word("[t1,t2]")
    f = magnus_eval(w, 2, R4)
    assert f.coefficient(()) == 1
    assert f.coefficient(("t1",)) == 0
    assert f.coefficient(("t2",)) == 0
    assert f.coefficient(("t1", "t2")) == 1
    assert f.coefficient(("t2", "t1")) == 3  # -1 mod 4


def test_magnus_is_homomorphism():
    rng = random.Random(11)
    labels = ["t1", "t2", "t3"]
    for q in (2, 3, 4):
        ring = ResidueRing(q)
        for _ in range(25):
            w1 = _random_word(rng, labels)
            w2 = _random_word(rng, labels)
            assert magnus_eval(w1 * w2, 4, ring) == \
                magnus_eval(w1, 4, ring) * magnus_eval(w2, 4, ring)


def _random_word(rng, labels, max_len=6):
    w = GroupWord.identity()
    for _ in range(rng.randrange(max_len + 1)):
        w = w * GroupWord.generator(rng.choice(labels), rng.choice((-2, -1, 1, 2)))
    return w


# ---------------------------------------------------------------------------
# coefficients


def test_eps_examples():
    assert eps(GroupWord.generator("t1"), ("t1",), R2) == 1
    assert eps(GroupWord.identity(), ("t1", "t2"), R2) == 0
    w = parse_word("[t1,t2]")
    assert eps(w, ("t1", "t2"), R2) == 1
    assert eps(w, ("t2", "t1"), R2) == 1  # -1 = 1 mod 2


def test_eps_degree_bound_stability():
    w = parse_word("[t1,t2] t1^3")
    for d in (2, 3, 5):
        f = magnus_eval(w, d, R4)
        assert f.coefficient(("t1", "t2")) == eps(w, ("t1", "t2"), R4)


# ---------------------------------------------------------------------------
# the Magnus matrix


def test_matrix_of_generator_is_elementary():
    index = ("t1", "t2", "t3")
    for l, lab in enumerate(index, start=1):
        got = magnus_matrix(GroupWord.generator(lab), index, R2)
        assert got == ut.elementary(ut.ConvexShape.full(3), l, l + 1, 1, R2)


def test_matrix_of_empty_word_is_identity():
    assert magnus_matrix(GroupWord.identity(), ("t1", "t2"), R4).is_identity()


def test_matrix_of_foreign_generator_is_identity():
    got = magnus_matrix(GroupWord.generator("t9"), ("t1", "t2"), R4)
    assert got.is_identity()


def test_matrix_homomorphism_and_corner():
    rng = random.Random(13)
    for q in (2, 4):
        ring = ResidueRing(q)
        for n in (2, 3):
            index = tuple(f"t{i}" for i in range(1, n + 1))
            for _ in range(20):
                w1 = _random_word(rng, list(index))
                w2 = _random_word(rng, list(index))
                m12 = magnus_matrix(w1 * w2, index, ring)
                assert m12 == ut.mul(magnus_matrix(w1, index, ring),
                                     magnus_matrix(w2, index, ring))
                assert m12.entry(1, n + 1) == eps(w1 * w2, index, ring)


def test_nested_commutator_has_corner_one():
    w = parse_word("[[t1,t2],t3]")
    m = magnus_matrix(w, ("t1", "t2", "t3"), R2)
    assert m == ut.elementary(ut.ConvexShape.full(3), 1, 4, 1, R2)


# ---------------------------------------------------------------------------
# the homomorphism path against the series oracle

# t5 and x never appear in an index: they exercise labels outside it
_LABELS = ("t1", "t2", "t3", "t4")
_words = st.lists(
    st.tuples(st.sampled_from(_LABELS + ("t5", "x")),
              st.sampled_from((-3, -2, -1, 1, 2, 3))),
    max_size=8).map(lambda syl: GroupWord(tuple(syl)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(word=_words,
       index=st.lists(st.sampled_from(_LABELS), max_size=4).map(tuple),
       q=st.sampled_from((2, 3, 4, 9, 257)))
@example(word=parse_word("[[t1,t2],t3] x^2"), index=(), q=2)
@example(word=parse_word("[[t1,t2],t3]"), index=("t3", "t2", "t1"), q=3)
@example(word=parse_word("t1^2 t2 t1^-1 t5"), index=("t1", "t2", "t1"), q=9)
@example(word=parse_word("x^3 t2 x t1^-2"), index=("t1", "t1", "t2", "t2"),
         q=257)
def test_matrix_matches_series_oracle(word, index, q):
    ring = ResidueRing(q)
    got = magnus_matrix(word, index, ring)
    assert got == series_matrix(word, index, ring)
    assert eps(word, index, ring) == \
        magnus_eval(word, len(index), ring).coefficient(index)
