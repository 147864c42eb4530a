import pytest

from arithlink.errors import InputError
from arithlink.rings import ResidueRing


# 2**64 - 59 is the largest prime below the word bound
@pytest.mark.parametrize("q,p", [(2, 2), (9, 3), (2**61 - 1, 2**61 - 1),
                                 (2**63, 2), (3**40, 3),
                                 (2**64 - 59, 2**64 - 59)])
def test_prime_powers_accepted_with_base(q, p):
    ring = ResidueRing(q)
    assert ring.q == q and ring.p == p


@pytest.mark.parametrize("q", [0, 1, 6, 36, 3 * (2**61 - 1), 2**64, 2**64 + 1])
def test_non_prime_powers_and_out_of_range_rejected(q):
    with pytest.raises(InputError):
        ResidueRing(q)


def test_base_does_not_take_part_in_equality():
    assert ResidueRing(8) == ResidueRing(8)
    assert hash(ResidueRing(8)) == hash(ResidueRing(8))
    assert repr(ResidueRing(8)) == "ResidueRing(q=8)"
