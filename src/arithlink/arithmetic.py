"""Classical symbols over Q realizing the linking invariants for q = 2.

Legendre symbols and mod-2 linking numbers cover the depth-1 case; the Redei
triple symbol, computed through an explicit normalized solution of the conic
x^2 - p1*y^2 - p2*z^2 = 0, covers depth 2.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from sympy import isprime
from sympy.ntheory.residue_ntheory import sqrt_mod

from .errors import ConsistencyError, InputError, SearchBoundError


def _require_odd_prime(p, name="p"):
    if not isinstance(p, int) or p < 3 or p % 2 == 0 or not isprime(p):
        raise InputError(f"{name} = {p!r} is not an odd prime")


# ---------------------------------------------------------------------------
# quadratic symbols


def jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0, by the reciprocity chain."""
    if n <= 0 or n % 2 == 0:
        raise InputError(f"Jacobi symbol needs positive odd n, got {n}")
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def legendre(a, p):
    """Legendre symbol (a/p) in {-1, 0, +1} for an odd prime p."""
    _require_odd_prime(p)
    if a % p == 0:
        return 0
    return jacobi(a, p)


def legendre_euler(a, p):
    """Independent oracle: Euler's criterion a^((p-1)/2) mod p."""
    _require_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r == p - 1 else r


def mu_linking_number(p_i, p_j):
    """Mod-2 linking number: 0 iff p_i is a square mod p_j."""
    _require_odd_prime(p_i, "p_i")
    _require_odd_prime(p_j, "p_j")
    if p_i == p_j:
        raise InputError("linking number needs distinct primes")
    return 0 if legendre(p_i, p_j) == 1 else 1


# ---------------------------------------------------------------------------
# quadratic fields


def _require_squarefree(d):
    if d in (0, 1):
        raise InputError(f"d must be a square-free integer != 0, 1, got {d}")
    m = abs(d)
    f = 2
    while f * f <= m:
        if m % (f * f) == 0:
            raise InputError(f"d = {d} is not square-free")
        f += 1


def ramifies_in_quadratic(p, d):
    """Whether p ramifies in Q(sqrt(d)); p = 2 is allowed."""
    _require_squarefree(d)
    if not isinstance(p, int) or p < 2 or not isprime(p):
        raise InputError(f"p = {p!r} is not a prime")
    return d % p == 0 or (p == 2 and d % 4 != 1)


def ordering_extends_to_quadratic(d):
    """Whether the ordering of Q extends to Q(sqrt(d)): exactly when d > 0."""
    _require_squarefree(d)
    return d > 0


def single_globalization_exists(p):
    """Depth-1 globalization exists iff p = 1 mod 4; extension is Q(sqrt(p))."""
    _require_odd_prime(p)
    return p % 4 == 1


def linking_invariant_n1(p1, pj):
    """Depth-1 invariant: 0 iff the Frobenius at pj fixes Q(sqrt(p1))."""
    _require_odd_prime(p1, "p1")
    _require_odd_prime(pj, "pj")
    if p1 % 4 != 1:
        raise InputError(f"p1 = {p1} must be 1 mod 4")
    if p1 == pj:
        raise InputError("primes must be distinct")
    return 0 if legendre(p1, pj) == 1 else 1


def class_number_gate():
    """The base field Q has trivial class group, so the generation
    assumption behind the presentations holds unconditionally."""
    return True


# ---------------------------------------------------------------------------
# the conic and the Redei symbol


@dataclass(frozen=True)
class ConicSolution:
    """Primitive normalized solution of x^2 - p1*y^2 - p2*z^2 = 0.

    Normalization: y even and >= 0, z odd and > 0, x odd with sign fixed by
    x + y = 1 mod 4.  This pins down alpha = x + y*sqrt(p1) so that 2 stays
    unramified in the resulting octic extension.
    """

    p1: int
    p2: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        if self.x * self.x - self.p1 * self.y * self.y \
                - self.p2 * self.z * self.z != 0:
            raise InputError("not a solution of the conic")
        if gcd(gcd(self.x, self.y), self.z) != 1:
            raise InputError("solution is not primitive")
        if self.z <= 0 or self.z % 2 == 0:
            raise InputError("normalization needs z odd and positive")
        if self.y < 0 or self.y % 2:
            raise InputError("normalization needs y even and non-negative")
        if (self.x + self.y) % 4 != 1:
            raise InputError("normalization needs x + y = 1 mod 4")


def _check_redei_pair(p1, p2):
    _require_odd_prime(p1, "p1")
    _require_odd_prime(p2, "p2")
    if p1 == p2:
        raise InputError("primes must be distinct")
    if p1 % 4 != 1 or p2 % 4 != 1:
        raise InputError("both primes must be 1 mod 4")
    if legendre(p1, p2) != 1 or legendre(p2, p1) != 1:
        raise InputError(f"({p1}/{p2}) and ({p2}/{p1}) must both be +1")


def iter_conic_solutions(p1, p2, max_shell=20000):
    """Normalized primitive solutions in deterministic order.

    Enumerates the (y, z) grid in growing L-shaped shells, recovering x by
    integer square root, so identical inputs always yield the same sequence.
    """
    _check_redei_pair(p1, p2)
    for shell in range(1, max_shell + 1):
        if shell % 2:  # z on the shell edge, y sweeps below it
            cells = [(y, shell) for y in range(0, shell, 2)]
        else:  # y on the shell edge, z sweeps below it
            cells = [(shell, z) for z in range(1, shell, 2)]
        for y, z in cells:
            sq = p1 * y * y + p2 * z * z
            x = isqrt(sq)
            if x * x != sq:
                continue
            if gcd(gcd(x, y), z) != 1:
                continue
            if (x + y) % 4 != 1:
                x = -x
            if (x + y) % 4 != 1:
                continue
            yield ConicSolution(p1, p2, x, y, z)


def redei_solve_conic(p1, p2, max_shell=20000):
    """First normalized solution in enumeration order."""
    for sol in iter_conic_solutions(p1, p2, max_shell):
        return sol
    raise SearchBoundError(
        f"no conic solution for ({p1}, {p2}) within shell bound {max_shell}")


@dataclass(frozen=True)
class SymbolResult:
    """A +-1 symbol value together with the witnesses that produced it."""

    value: int
    witnesses: tuple  # sorted (key, value) pairs

    def __post_init__(self):
        if self.value not in (-1, 1):
            raise InputError(f"symbol value must be +-1, got {self.value}")
        object.__setattr__(self, "witnesses", tuple(sorted(self.witnesses)))

    def witness(self, key):
        return dict(self.witnesses)[key]


def redei_symbol(p1, p2, p3, solution=None):
    """Redei triple symbol [p1, p2, p3].

    +1 iff p3 splits completely in Q(sqrt(p1), sqrt(p2), sqrt(alpha)) with
    alpha = x + y*sqrt(p1) from the normalized conic solution; computed as
    the Legendre symbol of alpha mod p3 through a square root s of p1.  Both
    square roots must agree, otherwise the computation aborts.
    """
    _check_redei_pair(p1, p2)
    _require_odd_prime(p3, "p3")
    if p3 in (p1, p2):
        raise InputError("primes must be distinct")
    if legendre(p1, p3) != 1 or legendre(p2, p3) != 1:
        raise InputError(f"({p1}/{p3}) and ({p2}/{p3}) must both be +1")
    if solution is None:
        solution = next((sol for sol in iter_conic_solutions(p1, p2)
                         if sol.z % p3 != 0), None)
        if solution is None:
            raise SearchBoundError(
                f"no conic solution for ({p1}, {p2}) with z prime to {p3} "
                f"within the shell bound")
    elif solution.z % p3 == 0:
        raise InputError("supplied conic solution has z divisible by p3")
    s = sqrt_mod(p1, p3)
    values = {legendre(solution.x + solution.y * t, p3) for t in (s, p3 - s)}
    if len(values) != 1:
        raise ConsistencyError(
            f"square-root choices disagree for [{p1},{p2},{p3}]")
    value = values.pop()
    witnesses = (
        ("conic_x", solution.x), ("conic_y", solution.y),
        ("conic_z", solution.z), ("sqrt_p1_mod_p3", int(s)),
        ("legendre_p1_p2", legendre(p1, p2)),
        ("legendre_p2_p1", legendre(p2, p1)),
        ("legendre_p1_p3", legendre(p1, p3)),
        ("legendre_p2_p3", legendre(p2, p3)),
    )
    return SymbolResult(value, witnesses)


def linking_invariant_n2(p1, p2, pj):
    """Depth-2 invariant: 0 iff the Redei symbol [p1, p2, pj] is +1."""
    if isinstance(pj, int) and isprime(pj) and pj % 4 != 1:
        raise InputError(f"pj = {pj} must be 1 mod 4")
    return 0 if redei_symbol(p1, p2, pj).value == 1 else 1


def format_symbol_result(result):
    """Key-value text block used by the CLI and fixtures."""
    lines = [f"value {result.value:+d}", f"mod2 {0 if result.value == 1 else 1}"]
    for key, value in result.witnesses:
        lines.append(f"{key} {value}")
    return "\n".join(lines) + "\n"
