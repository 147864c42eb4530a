"""Truncated non-commutative series over Z/q and the Magnus construction.

Free generators map to 1-units via tau_j -> 1 + x_j; the coefficient of a
monomial x_{i_1}...x_{i_m} in the image of a word recovers its linking data,
and arranging those coefficients in a triangle gives a homomorphism into the
unitriangular group.  `magnus_matrix` and `eps` compute that homomorphism
directly in U_n; the series algebra is kept as their reference oracle.
"""

from dataclasses import dataclass

from .errors import CompatibilityError, InputError
from .rings import ResidueRing
from .unitriangular import ConvexShape, eval_word, from_entries


@dataclass(frozen=True)
class TruncatedSeries:
    """Polynomial in non-commuting variables, truncated beyond a degree bound.

    Coefficients are stored sparsely as ((letters...), value) with value
    nonzero mod q; `letters` are generator labels.
    """

    ring: ResidueRing
    degree: int
    coeffs: tuple = ()

    def __post_init__(self):
        if self.degree < 0:
            raise InputError(f"degree bound must be >= 0, got {self.degree}")
        clean = {}
        for word, c in dict(self.coeffs).items():
            word = tuple(word)
            if len(word) > self.degree:
                continue
            c %= self.ring.q
            if c:
                clean[word] = c
        object.__setattr__(self, "coeffs", tuple(sorted(
            clean.items(), key=lambda it: (len(it[0]), it[0]))))

    @classmethod
    def one(cls, ring, degree):
        return cls(ring, degree, (((), 1),))

    @classmethod
    def unit_plus_variable(cls, label, ring, degree):
        """The Magnus image 1 + x_label of a free generator."""
        coeffs = {(): 1}
        if degree >= 1:
            coeffs[(label,)] = 1
        return cls(ring, degree, tuple(coeffs.items()))

    def coefficient(self, letters):
        return dict(self.coeffs).get(tuple(letters), 0)

    @property
    def constant_term(self):
        return self.coefficient(())

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs:
            out[w] = out.get(w, 0) + c
        return TruncatedSeries(self.ring, self.degree, tuple(out.items()))

    def __mul__(self, other):
        self._check(other)
        out = {}
        for u, a in self.coeffs:
            for v, b in other.coeffs:
                if len(u) + len(v) > self.degree:
                    continue
                w = u + v
                out[w] = out.get(w, 0) + a * b
        return TruncatedSeries(self.ring, self.degree, tuple(out.items()))

    def _check(self, other):
        if self.ring != other.ring or self.degree != other.degree:
            raise CompatibilityError("series need matching ring and degree bound")

    def inverse_unit(self):
        """Inverse of a 1-unit via the terminating geometric series."""
        if self.constant_term != 1:
            raise InputError("only series with constant term 1 are inverted")
        one = TruncatedSeries.one(self.ring, self.degree)
        nilpart = TruncatedSeries(
            self.ring, self.degree,
            tuple((w, c) for w, c in self.coeffs if w))
        neg = TruncatedSeries(
            self.ring, self.degree,
            tuple((w, -c) for w, c in nilpart.coeffs))
        result = one
        term = one
        for _ in range(self.degree):
            term = term * neg
            if not term.coeffs:
                break
            result = result + term
        return result

    def __pow__(self, k):
        if k < 0:
            return self.inverse_unit() ** (-k)
        result = TruncatedSeries.one(self.ring, self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for w, c in self.coeffs:
            mono = ".".join(f"x{g}" for g in w) if w else "1"
            terms.append(f"{c} * {mono}" if w else str(c))
        return " + ".join(terms)


def magnus_eval(word, degree, ring):
    """Image of a group word under the Magnus homomorphism, truncated."""
    result = TruncatedSeries.one(ring, degree)
    for label, exp in word.syllables:
        gen = TruncatedSeries.unit_plus_variable(label, ring, degree)
        result = result * gen ** exp
    return result


def series_matrix(word, index, ring):
    """magnus_matrix read off magnus_eval's coefficients: its reference oracle."""
    index = tuple(index)
    n = len(index)
    series = magnus_eval(word, n, ring)
    entries = {(l, k): series.coefficient(index[l - 1:k - 1])
               for l in range(1, n + 1) for k in range(l + 1, n + 2)}
    return from_entries(ConvexShape.full(n), ring, entries)


def magnus_matrix(word, index, ring):
    """Magnus coefficients of `word` along the index tuple, as a matrix in U_n.

    For index (i_1, ..., i_n) the (l, k) entry is the coefficient of
    x_{i_l}...x_{i_{k-1}}.  It is computed through the homomorphism into U_n
    that sends generator t_j to Id + sum of E_{l,l+1} over the positions l
    with i_l = j; generators outside the index go to Id and are dropped first.
    """
    index = tuple(index)
    shape = ConvexShape.full(len(index))
    images = {}
    for l, label in enumerate(index, start=1):
        images.setdefault(label, {})[(l, l + 1)] = 1
    assignment = {label: from_entries(shape, ring, entries)
                  for label, entries in images.items()}
    return eval_word(assignment, word.drop(word.labels() - set(index)),
                     shape, ring)


def eps(word, letters, ring):
    """Magnus coefficient of x_{letters} in the image of `word`: the corner."""
    letters = tuple(letters)
    return magnus_matrix(word, letters, ring).entry(1, len(letters) + 1)
