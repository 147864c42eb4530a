"""The benchmark's workloads: input generators, the timed operation, oracles.

Each workload draws its inputs from a seeded `random.Random` in rounds.  A
round is stratified over the input properties that set an operation's cost,
so that a run's total work varies little from seed to seed; the library only
ever sees the generated inputs.  `op` is the timed call sequence a user
makes; `check` compares its result with the oracles in `oracle.py` and
returns None or a description of the mismatch.  `frontier` gives inputs at
sizes the library is known not to finish.  Every op runs under the
workload's `deadline_s`, at least three times its slowest main-band op when
the benchmark was written, so a seed fails the same ops on every run; then
every frontier op ran into it.  `round_s` is a round's wall time, oracles
included, on a 2-core host when the benchmark was written; with `passes`,
how often a run times its sample, it sizes the sample.
"""

import bisect
import math
import random
from dataclasses import dataclass

import oracle
from arithlink import arithmetic, linking, magnus, unitriangular, words
from arithlink.rings import ResidueRing

# The Mersenne prime 2**61 - 1: a modulus one machine word can still hold.
FRONTIER_Q = (1 << 61) - 1


def _primes_1_mod_4(lo, hi):
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(hi - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, hi, i)))
    return [p for p in range(lo, hi) if sieve[p] and p % 4 == 1]


# ---------------------------------------------------------------------------
# redei: Redei triple symbols of admissible prime triples


@dataclass(frozen=True)
class Triple:
    p1: int
    p2: int
    p3: int
    swap_check: bool


class Redei:
    """One op is `redei_symbol(p1, p2, p3)`; loads `arithmetic` almost alone.

    Primes are log-uniform in [10**2, 10**4).  The conic search is Theta(p)
    with a heavy tail: above 10**4 single calls take seconds and a run's
    throughput stops repeating from seed to seed, so larger primes are left
    to the frontier, which draws them from [10**12, 10**13).  Every 16th
    triple is also checked with p1 and p2 swapped.
    """

    name = "redei"
    deadline_s = 2.0
    round_s = 0.17
    passes = 3
    round_size = 256
    swap_every = 16
    lo, hi = 10 ** 2, 10 ** 4

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.primes = _primes_1_mod_4(self.lo, self.hi)

    def _small_prime(self):
        x = math.exp(self.rng.uniform(math.log(self.lo), math.log(self.hi)))
        i = bisect.bisect_left(self.primes, x)
        return self.primes[min(i, len(self.primes) - 1)]

    def _large_prime(self):
        p = int(math.exp(self.rng.uniform(math.log(10 ** 12),
                                          math.log(10 ** 13))))
        p += (1 - p) % 4
        while not oracle.is_prime(p):
            p += 4
        return p

    def _triple(self, draw, swap_check):
        while True:
            p1, p2 = draw(), draw()
            if p1 == p2 or oracle.euler(p1, p2) != 1:
                continue
            for _ in range(64):
                p3 = draw()
                if p3 not in (p1, p2) and oracle.euler(p1, p3) == 1 \
                        and oracle.euler(p2, p3) == 1:
                    return Triple(p1, p2, p3, swap_check)

    def round(self):
        return [self._triple(self._small_prime, i % self.swap_every == 0)
                for i in range(self.round_size)]

    def frontier(self):
        return [self._triple(self._large_prime, False)]

    def op(self, t):
        return arithmetic.redei_symbol(t.p1, t.p2, t.p3)

    def check(self, t, res):
        x, y, z = (res.witness(k) for k in ("conic_x", "conic_y", "conic_z"))
        s = res.witness("sqrt_p1_mod_p3")
        if x * x - t.p1 * y * y - t.p2 * z * z != 0:
            return f"{t}: ({x}, {y}, {z}) is not on the conic"
        if z % t.p3 == 0:
            return f"{t}: conic z = {z} is divisible by p3"
        if (s * s - t.p1) % t.p3:
            return f"{t}: {s}^2 is not p1 mod p3"
        if res.value != oracle.euler(x + y * s, t.p3):
            return f"{t}: value {res.value} disagrees with Euler's criterion"
        if t.swap_check:
            swapped = arithmetic.redei_symbol(t.p2, t.p1, t.p3).value
            if swapped != res.value:
                return f"{t}: swapping p1 and p2 gives {swapped}"
        return None

    def band(self, t):
        return f"max_prime<10^{math.ceil(math.log10(max(t.p1, t.p2, t.p3)))}"

    def traits(self, t):
        return {}


# ---------------------------------------------------------------------------
# pairing: the Hoechsmann pairing fixture of `verify pairing`


@dataclass(frozen=True)
class PairingCase:
    n: int
    q: int
    e: int
    f: int
    a: int
    alpha: int


class Pairing:
    """One op is the `verify pairing` fixture path, with n in {1,2,3}, q in {2,4}.

    This is the mix of acceptance criterion 8.  Five of the six (n, q) cells
    have group order <= 4096, where `build_globalization` runs
    `unitriangular.closure` over all of U_{n+1}.  A round holds every cell
    with each exponent e of the nested commutator: 4 ops per cell, e running
    over 0..q-1 (twice for q = 2), because e sets the word length and so the
    cost of an op.
    """

    name = "pairing"
    deadline_s = 4.0
    round_s = 3.0
    passes = 2
    cells = [(n, q) for n in (1, 2, 3) for q in (2, 4)]

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def _case(self, n, q, e):
        r = self.rng
        return PairingCase(n, q, e, r.randrange(q), r.randrange(q),
                           r.randrange(q))

    def round(self):
        cases = [self._case(n, q, e % q) for n, q in self.cells
                 for e in range(4)]
        self.rng.shuffle(cases)
        return cases

    def frontier(self):
        return [self._case(1, FRONTIER_Q, self.rng.randrange(FRONTIER_Q))]

    def op(self, c):
        GroupWord = words.GroupWord
        ring = ResidueRing(c.q)
        taus = [f"t{i}" for i in range(1, c.n + 2)]
        nested = GroupWord.generator(taus[0])
        for label in taus[1:c.n]:
            nested = words.commutator(nested, GroupWord.generator(label))
        sigma_word = nested ** c.e * GroupWord.generator(taus[c.n]) ** c.f
        slots = [linking.Slot(t) for t in taus[:-1]] + [linking.Slot(taus[-1], "s")]
        pres = linking.LinkPresentation(ring, c.n + 1, tuple(slots),
                                        (("s", sigma_word),))
        rel = linking.Relator.linktype("t1", c.alpha, taus[c.n], "s", c.q,
                                       tau_exp=c.a)
        g_star = linking.build_globalization(pres)
        restricted = linking.Globalization(
            c.n, ring, tuple((label, unitriangular.upper_left(m, c.n))
                             for label, m in g_star.assignment))
        invariant = linking.linking_invariant(restricted, pres.sigma_word("s"))
        return invariant, linking.hoechsmann_pairing(g_star, rel)

    def check(self, c, res):
        # The corner of a nested commutator of the elementary generators is 1,
        # so the restricted invariant is e and the pairing is -a*e, both mod q.
        expected = (c.e % c.q, (-c.a * c.e) % c.q)
        if tuple(res) != expected:
            return f"{c}: (invariant, pairing) = {tuple(res)}, expected {expected}"
        return None

    def band(self, c):
        return f"n={c.n},q={c.q}"

    def traits(self, c):
        return {"closure": c.q ** ((c.n + 1) * (c.n + 2) // 2) <= 4096}


# ---------------------------------------------------------------------------
# presentations: parse, globalize, lift and read invariants


def balanced_commutator(labels):
    """A nested commutator of all labels, bracketed in halves.

    Its image in U_n is Id + E_{1,n+1}, like the left-normed commutator's,
    but its length grows as n**2 instead of 2**n.  Returns (text, syllables).
    """
    if len(labels) == 1:
        return labels[0], [(labels[0], 1)]
    mid = len(labels) // 2
    left_text, left = balanced_commutator(labels[:mid])
    right_text, right = balanced_commutator(labels[mid:])
    return f"[{left_text},{right_text}]", oracle.commutator_word(left, right)


@dataclass(frozen=True)
class PresentationCase:
    n: int
    q: int
    central: bool
    text: str
    taus: tuple
    sigma: str
    sigma_syllables: tuple
    relator_syllables: tuple
    z_text: str
    z_syllables: tuple
    index: tuple


class Presentations:
    """One op parses a generated presentation and globalizes it.

    When it globalizes, the op also reads the linking invariant of the
    balanced nested commutator and lifts the globalization from its two
    restricted windows; every op computes `magnus_matrix` and `eps` of the
    sigma word along three random tau labels.  n runs over 4..12 and the
    group order of U_n and of its windows stays above 4096, so `closure`
    never runs.

    A round holds every (n, central-or-random) cell once.  Everything that
    sets an op's cost is fixed per cell, so each run's latency percentiles
    fall on the same cells whatever the seed: the modulus (65537 makes
    `Relator.linktype` build tau'^q one letter at a time; the small prime
    powers are spread over the cells), the power of the central word, the
    sigma slot and tau' (together they change an op's time up to fivefold),
    alpha = 1 and the random word's length 2n.  Slots and tau' are spread
    over first, middle and last positions.  The seed draws the random words
    and the Magnus index.
    """

    name = "presentations"
    deadline_s = 6.0
    round_s = 5.8
    passes = 1
    # n -> (modulus, power of the central word, sigma slot, tau' index),
    # slot and tau' counted from 1.
    cells = {4: (65537, 2, 2, 3), 5: (9, 2, 1, 5), 6: (257, 2, 6, 1),
             7: (65537, 2, 4, 7), 8: (8, 2, 8, 2), 9: (5, 1, 5, 9),
             10: (257, 1, 1, 6), 11: (3, 1, 11, 4), 12: (2, 1, 7, 12)}

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def _case(self, n, q, e, slot_label, tau_label, central):
        r = self.rng
        taus = tuple(f"t{i}" for i in range(1, n + 1))
        slot = slot_label - 1
        sigma = f"s{slot_label}"
        z_text, z_syllables = balanced_commutator(taus)
        tau_prime = taus[tau_label - 1]
        while True:
            if central:
                sigma_text = f"{z_text}^{e}"
                sigma_syllables = oracle.power_word(z_syllables, e)
            else:
                sigma_syllables = [(r.choice(taus), r.choice((-2, -1, 1, 2)))
                                   for _ in range(2 * n)]
                sigma_text = " ".join(f"{g}^{x}" for g, x in sigma_syllables)
            relator = [(tau_prime, q)] + oracle.commutator_word(
                [(taus[slot], 1)], sigma_syllables)
            image = oracle.magnus_image(relator, taus, q)
            # A random sigma word whose relator dies by accident is drawn again,
            # so that a case globalizes exactly when it is central.
            if central or oracle.entries_of(image):
                break
        lines = [f"params n={n} q={q}"]
        for l, tau in enumerate(taus, start=1):
            lines.append(f"slot {l} tau={tau}"
                         + (f" sigma={sigma}" if l == slot + 1 else ""))
        lines.append(f"sigma {sigma} = {sigma_text}")
        lines.append(f"rel linktype tau'={tau_prime} alpha=1 "
                     f"tau={taus[slot]} sigma={sigma}")
        index = tuple(r.choice(taus) for _ in range(3))
        return PresentationCase(n, q, central, "\n".join(lines) + "\n", taus,
                                sigma, tuple(sigma_syllables), tuple(relator),
                                z_text, tuple(z_syllables), index)

    def round(self):
        cases = [self._case(n, *cell, central)
                 for n, cell in self.cells.items() for central in (True, False)]
        self.rng.shuffle(cases)
        return cases

    def frontier(self):
        n = self.rng.choice(list(self.cells))
        _, _, slot, tau_prime = self.cells[n]
        return [self._case(n, FRONTIER_Q, 1, slot, tau_prime, True)]

    def op(self, c):
        pres = linking.parse_presentation(c.text)
        glob = linking.build_globalization(pres)
        out = {"glob": glob}
        if isinstance(glob, linking.Globalization):
            z_word = words.parse_word(c.z_text)
            out["invariant"] = linking.linking_invariant(glob, z_word)
            upper = linking.build_globalization(
                linking.restrict_presentation(pres, "upper"))
            lower = linking.build_globalization(
                linking.restrict_presentation(pres, "lower"))
            out["lift"] = linking.fiber_lift(upper, lower, pres)
        w = pres.sigma_word(c.sigma)
        out["magnus"] = magnus.magnus_matrix(w, c.index, pres.ring)
        out["eps"] = magnus.eps(w, c.index, pres.ring)
        return out

    def check(self, c, res):
        q = c.q
        glob = res["glob"]
        globalized = isinstance(glob, linking.Globalization)
        if globalized != c.central:
            return f"{c.text!r}: globalized is {globalized}, expected {c.central}"
        if c.central:
            words_of = {t: [(t, 1)] for t in c.taus}
            words_of[c.sigma] = list(c.sigma_syllables)
            for label, mat in glob.assignment:
                expected = oracle.entries_of(
                    oracle.magnus_image(words_of[label], c.taus, q))
                if dict(mat.data) != expected:
                    return f"{c.text!r}: image of {label} differs from Magnus"
            z_image = oracle.entries_of(
                oracle.magnus_image(c.z_syllables, c.taus, q))
            if set(z_image) - {(1, c.n + 1)}:
                return f"{c.text!r}: oracle image of z is not central"
            if res["invariant"] != z_image.get((1, c.n + 1), 0):
                return f"{c.text!r}: invariant {res['invariant']} is wrong"
            lift = res["lift"]
            if not isinstance(lift, linking.Globalization) \
                    or dict(lift.assignment) != dict(glob.assignment):
                return f"{c.text!r}: lifted globalization differs"
        else:
            relator_image = oracle.magnus_image(c.relator_syllables, c.taus, q)
            if len(glob.failures) != 1:
                return f"{c.text!r}: {len(glob.failures)} failing relators, expected 1"
            [(_, image, depth)] = glob.failures
            if dict(image.data) != oracle.entries_of(relator_image) \
                    or depth != oracle.filtration_depth(relator_image):
                return f"{c.text!r}: obstruction differs from the oracle"
        m = oracle.magnus_image(list(c.sigma_syllables), c.index, q)
        if dict(res["magnus"].data) != oracle.entries_of(m):
            return f"{c.text!r}: magnus_matrix along {c.index} is wrong"
        if res["eps"] != m[0][-1]:
            return f"{c.text!r}: eps along {c.index} is not the corner"
        return None

    def band(self, c):
        return f"n={c.n},q={c.q}"

    def traits(self, c):
        return {"globalizes": c.central}


WORKLOADS = {w.name: w for w in (Redei, Pairing, Presentations)}
