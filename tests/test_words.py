import random

import pytest

from arithlink.errors import ParseError
from arithlink.words import GroupWord, commutator, format_word, parse_word


def test_parse_single_generator():
    assert parse_word("t1") == GroupWord.generator("t1")


def test_parse_inverse_and_power():
    assert parse_word("t2^-1") == GroupWord.generator("t2", -1)
    assert parse_word("t1^3") == GroupWord.generator("t1", 3)


def test_parse_juxtaposition_and_whitespace():
    # identifiers are maximal-munch, so distinct generators need a separator
    assert parse_word("t1 t2") == parse_word(" t1   t2 ")
    assert parse_word("[t1,t2]t1") == parse_word("[t1, t2] t1")


def test_parse_commutator():
    w = parse_word("[t1,t2]")
    assert w == commutator(GroupWord.generator("t1"), GroupWord.generator("t2"))
    assert w.syllables == (("t1", 1), ("t2", 1), ("t1", -1), ("t2", -1))


def test_parse_nested_commutator_with_power():
    w = parse_word("[[t1,t2],t3]^2")
    inner = commutator(GroupWord.generator("t1"), GroupWord.generator("t2"))
    assert w == commutator(inner, GroupWord.generator("t3")) ** 2


def test_empty_and_one_are_identity():
    assert parse_word("").is_identity()
    assert parse_word("1").is_identity()


def test_free_reduction():
    w = GroupWord.generator("a") * GroupWord.generator("a", -1)
    assert w.is_identity()
    w = parse_word("t1 t2 t2^-1 t1")
    assert w == GroupWord.generator("t1", 2)


def test_cascading_reduction():
    w = parse_word("t1 t2 t2^-1 t1^-1")
    assert w.is_identity()


def test_inverse_and_power():
    w = parse_word("t1 t2")
    assert (w * w.inverse()).is_identity()
    assert w ** 0 == GroupWord.identity()
    assert w ** -2 == (w.inverse()) ** 2


def test_substitute_and_drop():
    w = parse_word("s1 t1")
    out = w.substitute({"s1": parse_word("t2 t3")})
    assert out == parse_word("t2 t3 t1")
    assert parse_word("[t1,t3]").drop({"t3"}).is_identity()


def test_format_round_trip():
    for text in ("t1", "t1^-2 t2", "[t1,t2]", "t1 t2 t1"):
        w = parse_word(text)
        assert parse_word(format_word(w)) == w
    assert format_word(GroupWord.identity()) == "1"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_word("[t1 t2]")
    with pytest.raises(ParseError):
        parse_word("t1^")
    with pytest.raises(ParseError):
        parse_word("t1 + t2")


def test_power_of_generator_at_modulus_size():
    # square-and-multiply: about 2 * 61 products, not 2**61
    k = 2**61 - 1
    assert GroupWord.generator("t1") ** k == GroupWord.generator("t1", k)


def test_power_matches_repeated_product():
    rng = random.Random(5)
    labels = ["t1", "t2", "t3"]
    for _ in range(10):
        w = GroupWord(tuple((rng.choice(labels), rng.choice((-2, -1, 1, 2)))
                            for _ in range(rng.randrange(6))))
        for k in range(-5, 21):
            base = w if k >= 0 else w.inverse()
            expected = GroupWord.identity()
            for _ in range(abs(k)):
                expected = expected * base
            assert w ** k == expected
