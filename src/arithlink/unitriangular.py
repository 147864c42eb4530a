"""Partial unitriangular matrix groups over Z/q.

A convex index set S inside the upper triangle of an (n+1) x (n+1) matrix
determines the group U_S of partial matrices supported on S: unipotent
diagonal, entries in Z/q, multiplication truncated to S.  U_n is the full
unitriangular group, V_n its one-dimensional center.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import CompatibilityError, InputError
from .rings import ResidueRing


# ---------------------------------------------------------------------------
# shapes


def is_convex(n, pairs):
    """True iff `pairs` is a convex subset of the index triangle for size n.

    Convexity: contains the diagonal, and with every (k, l) also every
    (k', l') squeezed between it and the diagonal (k <= k', l' <= l).
    """
    pairs = set(pairs)
    for (k, l) in pairs:
        if not (1 <= k <= l <= n + 1):
            raise InputError(f"index pair {(k, l)} out of range for n={n}")
    for k in range(1, n + 2):
        if (k, k) not in pairs:
            return False
    for (k, l) in pairs:
        for kp in range(k, l + 1):
            for lp in range(kp, l + 1):
                if (kp, lp) not in pairs:
                    return False
    return True


@dataclass(frozen=True)
class ConvexShape:
    """A convex index set S; matrices over it live in U_S."""

    n: int
    entries: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise InputError(f"matrix size parameter must be >= 0, got {self.n}")
        object.__setattr__(self, "entries", frozenset(self.entries))
        if not is_convex(self.n, self.entries):
            raise InputError(f"index set is not convex for n={self.n}")

    @classmethod
    def full(cls, n):
        """The full upper triangle; U over it is the unitriangular group U_n."""
        return cls(n, [(k, l) for k in range(1, n + 2) for l in range(k, n + 2)])

    @classmethod
    def diagonal(cls, n):
        return cls(n, [(k, k) for k in range(1, n + 2)])

    @classmethod
    def filtration(cls, n, r):
        """The band {(i, j) : j - i < r}; r=1 is the diagonal, r=n+1 everything."""
        if r < 1:
            raise InputError(f"filtration level must be >= 1, got {r}")
        return cls(n, [(k, l) for k in range(1, n + 2)
                       for l in range(k, min(k + r - 1, n + 1) + 1)])

    @classmethod
    def truncated(cls, n):
        """The shape of the quotient by the center: everything but (1, n+1)."""
        return cls.filtration(n, n) if n >= 1 else cls.full(n)

    def __contains__(self, pair):
        return pair in self.entries

    def issubset(self, other):
        return self.n == other.n and self.entries <= other.entries

    @property
    def off_diagonal(self):
        return sorted(p for p in self.entries if p[0] != p[1])

    def __repr__(self):
        return f"ConvexShape(n={self.n}, {sorted(self.entries)})"


# ---------------------------------------------------------------------------
# partial matrices


@dataclass(frozen=True)
class PartialMatrix:
    """Immutable partial unipotent matrix over a convex shape.

    Off-diagonal entries are stored sparsely and reduced mod q; the diagonal
    is implicitly 1.  Reading an index outside the shape is an error, never
    a silent zero.
    """

    shape: ConvexShape
    ring: ResidueRing
    data: tuple  # sorted ((k, l), value) pairs, value nonzero mod q

    def __post_init__(self):
        clean = {}
        for (k, l), v in dict(self.data).items():
            if (k, l) not in self.shape:
                raise InputError(f"entry {(k, l)} outside the shape")
            if k == l:
                if v % self.ring.q != 1:
                    raise InputError(f"diagonal entry {(k, l)} must be 1")
                continue
            v %= self.ring.q
            if v:
                clean[(k, l)] = v
        object.__setattr__(self, "data", tuple(sorted(clean.items())))

    @cached_property
    def _lookup(self):
        return dict(self.data)

    def entry(self, k, l):
        if (k, l) not in self.shape:
            raise InputError(f"entry {(k, l)} is not in the shape")
        if k == l:
            return 1
        return self._lookup.get((k, l), 0)

    @property
    def n(self):
        return self.shape.n

    def is_identity(self):
        return not self.data

    def rows(self):
        """Dense rows for display; entries outside the shape render as '.'."""
        size = self.n + 1
        out = []
        for k in range(1, size + 1):
            row = []
            for l in range(1, size + 1):
                if l < k or (k, l) not in self.shape:
                    row.append(".")
                else:
                    row.append(str(self.entry(k, l)))
            out.append(row)
        return out

    def __str__(self):
        return "\n".join(" ".join(row) for row in self.rows())


def from_entries(shape, ring, entries):
    """Build a PartialMatrix from a {(k, l): value} mapping of off-diagonal entries."""
    return PartialMatrix(shape, ring, tuple(dict(entries).items()))


def identity(shape, ring):
    return PartialMatrix(shape, ring, ())


def elementary(shape, k, l, r, ring):
    """Id + r*E_{kl}; for fixed (k, l) these form a copy of the additive group."""
    if k == l:
        raise InputError(f"elementary matrix needs an off-diagonal index, got {(k, l)}")
    if (k, l) not in shape:
        raise InputError(f"index {(k, l)} is not in the shape")
    return from_entries(shape, ring, {(k, l): r})


def mul(a, b):
    """Product in U_S: entry (k, l) is the convolution sum over k <= r <= l."""
    if a.shape != b.shape or a.ring != b.ring:
        raise CompatibilityError("matrix product needs matching shape and ring")
    q = a.ring.q
    entries = {}
    for (k, l) in a.shape.off_diagonal:
        s = 0
        for r in range(k, l + 1):
            if (k, r) in a.shape and (r, l) in b.shape:
                s += a.entry(k, r) * b.entry(r, l)
        entries[(k, l)] = s % q
    return from_entries(a.shape, a.ring, entries)


def inverse(a):
    """Group inverse, by back-substitution up the off-diagonal bands."""
    q = a.ring.q
    entries = {}
    # Solve (a * b)(k, l) = 0 for b band by band: each (k, l) entry of b
    # depends only on b-entries strictly closer to the diagonal.
    for (k, l) in sorted(a.shape.off_diagonal, key=lambda p: p[1] - p[0]):
        s = 0
        for r in range(k + 1, l + 1):
            if (k, r) in a.shape:
                s += a.entry(k, r) * entries.get((r, l), 1 if r == l else 0)
        entries[(k, l)] = (-s) % q
    return from_entries(a.shape, a.ring, entries)


def commutator(a, b):
    return mul(mul(a, b), mul(inverse(a), inverse(b)))


def matpow(a, e):
    """a**e by square-and-multiply, with no product by Id and no squaring
    past the top bit of e."""
    if e < 0:
        return matpow(inverse(a), -e)
    result = None
    while e:
        if e & 1:
            result = a if result is None else mul(result, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return identity(a.shape, a.ring) if result is None else result


def eval_word(assignment, word, shape, ring):
    """Image of a word under the homomorphism given by label -> matrix images."""
    result = identity(shape, ring)
    for label, exp in word.syllables:
        try:
            mat = assignment[label]
        except KeyError:
            raise InputError(f"generator {label!r} has no assigned matrix") from None
        result = mul(result, matpow(mat, exp))
    return result


# ---------------------------------------------------------------------------
# projections


def project(a, subshape):
    """Restrict entries to a convex subshape; a group homomorphism U_S -> U_S'."""
    if not subshape.issubset(a.shape):
        raise InputError("projection target is not a subshape")
    entries = {p: a.entry(*p) for p in subshape.off_diagonal}
    return from_entries(subshape, a.ring, entries)


def project_window(a, iota, subshape):
    """Pick out the submatrix along a strictly increasing index map.

    `iota` maps {1..m+1} into {1..n+1}; `subshape` is a convex subshape of
    a's shape whose superdiagonal indices all lie in the image of iota (this
    is what makes the map a homomorphism).  The result lives over the induced
    shape {(k, l) : (iota(k), iota(l)) in subshape}.
    """
    iota = tuple(iota)
    m = len(iota) - 1
    if any(not 1 <= v <= a.n + 1 for v in iota) or \
            any(x >= y for x, y in zip(iota, iota[1:])):
        raise InputError("index map must be strictly increasing into 1..n+1")
    if not subshape.issubset(a.shape):
        raise InputError("window shape is not a subshape")
    image = set(iota)
    for r in range(1, a.n + 1):
        if (r, r + 1) in subshape and r not in image:
            raise InputError(
                f"superdiagonal index {r} of the window shape misses the index map")
    bar = [(k, l) for k in range(1, m + 2) for l in range(k, m + 2)
           if (iota[k - 1], iota[l - 1]) in subshape]
    bar_shape = ConvexShape(m, bar)
    entries = {(k, l): a.entry(iota[k - 1], iota[l - 1])
               for (k, l) in bar_shape.off_diagonal}
    return from_entries(bar_shape, a.ring, entries)


def upper_left(a, m):
    """The homomorphism U_n -> U_m onto the upper-left window."""
    n = a.n
    if not 1 <= m <= n:
        raise InputError(f"window size {m} out of range for n={n}")
    sub = ConvexShape(n, [(k, k) for k in range(1, n + 2)]
                      + [(k, l) for k in range(1, m + 2) for l in range(k, m + 2)])
    return project_window(a, range(1, m + 2), sub)


def lower_right(a, m):
    """The homomorphism U_n -> U_m onto the lower-right window."""
    n = a.n
    if not 1 <= m <= n:
        raise InputError(f"window size {m} out of range for n={n}")
    lo = n - m + 1
    sub = ConvexShape(n, [(k, k) for k in range(1, n + 2)]
                      + [(k, l) for k in range(lo, n + 2) for l in range(k, n + 2)])
    return project_window(a, range(lo, n + 2), sub)


# ---------------------------------------------------------------------------
# fiber product structure


def fiber_decompose(a, m1, m2):
    """Split a in U_n into its two window projections (U_m1, U_m2)."""
    n = a.n
    if not (1 <= m1 <= n and 1 <= m2 <= n and m1 + m2 >= n):
        raise InputError(f"window sizes ({m1}, {m2}) invalid for n={n}")
    return upper_left(a, m1), lower_right(a, m2)


def fiber_glue(m1_mat, m2_mat, n):
    """Canonical preimage in U_n of a compatible pair (M1, M2).

    M1 fills the upper-left window, M2 the lower-right; the two must agree on
    the overlap window of size t = m1 + m2 - n, and all remaining entries
    are set to 0.
    """
    m1, m2 = m1_mat.n, m2_mat.n
    if m1_mat.ring != m2_mat.ring:
        raise CompatibilityError("glue needs matching rings")
    if not (1 <= m1 <= n and 1 <= m2 <= n and m1 + m2 >= n):
        raise InputError(f"window sizes ({m1}, {m2}) invalid for n={n}")
    if m1_mat.shape != ConvexShape.full(m1) or m2_mat.shape != ConvexShape.full(m2):
        raise InputError("glue operands must be full unitriangular matrices")
    t = m1 + m2 - n
    if t >= 1 and lower_right(m1_mat, t) != upper_left(m2_mat, t):
        raise CompatibilityError("overlap windows disagree")
    off = n - m2
    entries = {}
    for k in range(1, m1 + 2):
        for l in range(k + 1, m1 + 2):
            entries[(k, l)] = m1_mat.entry(k, l)
    for k in range(1, m2 + 2):
        for l in range(k + 1, m2 + 2):
            entries[(k + off, l + off)] = m2_mat.entry(k, l)
    return from_entries(ConvexShape.full(n), m1_mat.ring, entries)


def filtration_depth(a):
    """Largest r with a in V_{I(n,r)}: bands below r all vanish; n+1 for Id."""
    if a.is_identity():
        return a.n + 1
    return min(l - k for (k, l), _ in a.data)


# ---------------------------------------------------------------------------
# serialization and enumeration


def to_text(a):
    """Render as `U n q` header plus `k l value` lines for nonzero entries."""
    if a.shape != ConvexShape.full(a.n):
        raise InputError("text serialization is defined for full matrices only")
    lines = [f"U {a.n} {a.ring.q}"]
    for (k, l), v in a.data:
        lines.append(f"{k} {l} {v}")
    return "\n".join(lines) + "\n"


def from_text(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("U "):
        raise InputError("expected a `U n q` header")
    try:
        _, n_s, q_s = lines[0].split()
        n, q = int(n_s), int(q_s)
    except ValueError:
        raise InputError(f"malformed header: {lines[0]!r}") from None
    entries = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise InputError(f"malformed entry line: {ln!r}")
        k, l, v = (int(x) for x in parts)
        entries[(k, l)] = v
    return from_entries(ConvexShape.full(n), ResidueRing(q), entries)


def iter_group(shape, ring):
    """Enumerate all of U_S; intended for small exhaustive checks."""
    off = shape.off_diagonal
    for values in product(range(ring.q), repeat=len(off)):
        yield from_entries(shape, ring, dict(zip(off, values)))


def closure(generators, shape, ring):
    """Subgroup generated by `generators` under mul, as a set of matrices."""
    seen = {identity(shape, ring)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                b = mul(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# generation


def generates(generators, n, ring):
    """True iff `generators` generate the full unitriangular group U_n.

    U_n over Z/p^s is a finite p-group whose Frattini quotient is F_p^n, read
    off the superdiagonal.  By the Burnside basis theorem (M. Hall, The Theory
    of Groups, Thm 12.2.1) a set generates U_n iff its superdiagonal rows mod
    p span F_p^n; this is checked by Gaussian elimination over F_p, at a cost
    of O(n^2) per generator instead of enumerating the group.
    """
    shape = ConvexShape.full(n)
    p = ring.p
    rows = []
    for g in generators:
        if g.shape != shape or g.ring != ring:
            raise CompatibilityError("generators must be full matrices over the ring")
        rows.append([g.entry(l, l + 1) % p for l in range(1, n + 1)])
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inv % p
            if factor:
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank == n
