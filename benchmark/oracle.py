"""Reference computations the benchmark checks arithlink's answers against.

Nothing here imports arithlink: Magnus images are dense integer matrices
built from the definition, quadratic characters come from Euler's criterion
and primality from Miller-Rabin, all with Python's own integer arithmetic.
"""

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def euler(a, p):
    """Legendre symbol (a/p) by Euler's criterion, in {-1, 0, 1}."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


# ---------------------------------------------------------------------------
# words as syllable lists and their Magnus images


def inverse_word(syllables):
    return [(g, -e) for g, e in reversed(syllables)]


def commutator_word(a, b):
    """[a, b] = a b a^-1 b^-1, matching arithlink's convention."""
    return a + b + inverse_word(a) + inverse_word(b)


def power_word(syllables, e):
    return (syllables if e >= 0 else inverse_word(syllables)) * abs(e)


def _binomial(e, k):
    """Generalized binomial coefficient C(e, k) for any integer e."""
    c = 1
    for i in range(k):
        c = c * (e - i) // (i + 1)
    return c


def _generator_power(positions, e, size, q):
    """Off-diagonal entries of (Id + N)^e with N = sum of E_{l,l+1}, l in positions.

    (Id + N)^e = sum_k C(e, k) N^k, finite because N is nilpotent.
    """
    n_mat = [[0] * size for _ in range(size)]
    for l in positions:
        n_mat[l][l + 1] = 1
    entries = {}
    power = n_mat
    for k in range(1, size):
        if not any(map(any, power)):
            break
        c = _binomial(e, k) % q
        for r in range(size):
            for col in range(size):
                if power[r][col]:
                    entries[(r, col)] = (entries.get((r, col), 0)
                                         + c * power[r][col]) % q
        power = [[sum(power[r][m] * n_mat[m][col] for m in range(size))
                  for col in range(size)] for r in range(size)]
    return [(r, col, v) for (r, col), v in entries.items() if v]


def magnus_image(syllables, index, q):
    """Dense Magnus matrix of a word along `index`, entries in 0..q-1.

    Generator j maps to Id + sum over positions l with index[l] == j of
    E_{l,l+1}; the image of a word is the product of its syllables' images,
    so the map is a homomorphism by construction.  Row and column numbers
    are 0-based: entry [k-1][l-1] is arithlink's entry (k, l).
    """
    size = len(index) + 1
    m = [[int(r == c) for c in range(size)] for r in range(size)]
    powers = {}
    for g, e in syllables:
        key = (g, e)
        if key not in powers:
            positions = [l for l, label in enumerate(index) if label == g]
            powers[key] = _generator_power(positions, e, size, q)
        step = powers[key]
        if not step:
            continue
        out = [row[:] for row in m]
        for r, col, v in step:
            for i in range(size):
                if m[i][r]:
                    out[i][col] = (out[i][col] + v * m[i][r]) % q
        m = out
    return m


def entries_of(dense):
    """Nonzero off-diagonal entries as a {(k, l): value} map, 1-based."""
    size = len(dense)
    return {(r + 1, c + 1): dense[r][c]
            for r in range(size) for c in range(r + 1, size) if dense[r][c]}


def filtration_depth(dense):
    """Smallest l - k over nonzero off-diagonal entries; size for Id."""
    gaps = [l - k for (k, l) in entries_of(dense)]
    return min(gaps) if gaps else len(dense)
