"""The coefficient ring Z/q for a prime power q."""

from dataclasses import dataclass, field

from sympy import isprime, perfect_power

from .errors import InputError

_WORD_LIMIT = 1 << 64


def _prime_power_base(q):
    """Return the prime p with q = p**s, or None if q is not a prime power."""
    if isprime(q):
        return q
    # perfect_power picks the largest exponent, so its base is a prime
    # exactly when q is a prime power.
    power = perfect_power(q)
    if power and isprime(power[0]):
        return int(power[0])
    return None


@dataclass(frozen=True)
class ResidueRing:
    """Integers modulo q, where q = p**s is a prime power, 2 <= q < 2**64."""

    q: int
    p: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise InputError(f"modulus must be an integer >= 2, got {self.q!r}")
        if self.q >= _WORD_LIMIT:
            raise InputError(f"modulus {self.q} is not below the machine-word bound 2**64")
        p = _prime_power_base(self.q)
        if p is None:
            raise InputError(f"modulus {self.q} is not a prime power")
        object.__setattr__(self, "p", p)

    def __str__(self):
        return f"Z/{self.q}"
