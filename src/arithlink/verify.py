"""On-demand cross-module verification suites.

Each suite returns a {"cases": ..., "failures": ...} summary; the CLI and
the acceptance tests both run these.
"""

import random

from sympy import primerange

from . import unitriangular as ut
from .arithmetic import legendre, legendre_euler
from .errors import ConsistencyError
from .linking import (Globalization, LinkPresentation, Relator, Slot,
                      build_globalization, hoechsmann_pairing,
                      linking_invariant)
from .magnus import eps, magnus_matrix, series_matrix
from .rings import ResidueRing
from .words import GroupWord, commutator


def verify_reciprocity(max_p=200):
    """Chain-computed Legendre vs Euler's criterion, plus the reciprocity law."""
    cases = failures = 0
    primes = list(primerange(3, max_p))
    for p in primes:
        for a in range(1, p):
            cases += 1
            if legendre(a, p) != legendre_euler(a, p):
                failures += 1
    for p in primes:
        for r in primes:
            if p == r:
                continue
            cases += 1
            expect = (-1) ** (((p - 1) // 2) * ((r - 1) // 2))
            if legendre(p, r) * legendre(r, p) != expect:
                failures += 1
    return {"suite": "reciprocity", "max": max_p,
            "cases": cases, "failures": failures}


def verify_fiber(n=2, q=2):
    """Exhaustive check of the fiber-product decomposition of U_n."""
    ring = ResidueRing(q)
    shape = ut.ConvexShape.full(n)
    m = n - 1 if n >= 2 else 1
    t = 2 * m - n
    cases = failures = 0
    image = set()
    kernel = 0
    for a in ut.iter_group(shape, ring):
        cases += 1
        m1_mat, m2_mat = ut.fiber_decompose(a, m, m)
        if t >= 1 and ut.lower_right(m1_mat, t) != ut.upper_left(m2_mat, t):
            failures += 1
            continue
        image.add((m1_mat, m2_mat))
        if m1_mat.is_identity() and m2_mat.is_identity():
            kernel += 1
        glued = ut.fiber_glue(m1_mat, m2_mat, n)
        if ut.fiber_decompose(glued, m, m) != (m1_mat, m2_mat):
            failures += 1
    # surjectivity: image must be the whole fiber product
    shape_m = ut.ConvexShape.full(m)
    compatible = 0
    for m1_mat in ut.iter_group(shape_m, ring):
        for m2_mat in ut.iter_group(shape_m, ring):
            if t < 1 or ut.lower_right(m1_mat, t) == ut.upper_left(m2_mat, t):
                cases += 1
                compatible += 1
                if (m1_mat, m2_mat) not in image:
                    failures += 1
    # kernel size: V = Ker p' cap Ker p'' has one free entry per missing index
    order = q ** (n * (n + 1) // 2)
    if kernel * compatible != order:
        failures += 1
    return {"suite": "fiber", "n": n, "q": q,
            "cases": cases, "failures": failures,
            "fiber_product_size": compatible, "kernel_size": kernel}


def random_word(rng, labels, max_len=8):
    w = GroupWord.identity()
    for _ in range(rng.randrange(max_len + 1)):
        w = w * GroupWord.generator(rng.choice(labels), rng.choice((-2, -1, 1, 2)))
    return w


def nested_commutator(labels):
    """[[...[t1, t2], t3], ..., tn]; its image has maximal filtration depth."""
    w = GroupWord.generator(labels[0])
    for lab in labels[1:]:
        w = commutator(w, GroupWord.generator(lab))
    return w


def pairing_fixture(rng, n, q):
    """A random link-type relator over U_{n+1} with its expected pairing value.

    The commutator slot's sigma word is a power of a depth-n nested
    commutator times a power of the top tau generator, so its restriction
    one level down is central by construction.
    """
    taus = [f"t{i}" for i in range(1, n + 2)]
    e = rng.randrange(q)
    f = rng.randrange(q)
    a = rng.randrange(q)
    alpha = rng.randrange(q)
    sigma_word = (nested_commutator(taus[:n]) ** e
                  * GroupWord.generator(taus[n]) ** f)
    slots = [Slot(t) for t in taus[:-1]] + [Slot(taus[-1], "s")]
    pres = LinkPresentation(ResidueRing(q), n + 1, tuple(slots),
                            (("s", sigma_word),))
    rel = Relator.linktype("t1", alpha, taus[n], "s", q, tau_exp=a)
    return pres, rel, a


def verify_pairing(n=2, q=2, samples=100, seed=0):
    """Randomized check of the relator pairing identity.

    The corner entry of the relator image one level up must equal minus the
    tau exponent times the linking invariant of the restricted sigma word.
    """
    rng = random.Random(seed)
    cases = failures = 0
    for _ in range(samples):
        pres, rel, a = pairing_fixture(rng, n, q)
        g_star = build_globalization(pres)
        if not isinstance(g_star, Globalization):
            raise ConsistencyError(
                "pairing fixture is obstructed:\n" + g_star.describe())
        restricted = Globalization(
            n, pres.ring,
            tuple((label, ut.upper_left(mat, n))
                  for label, mat in g_star.assignment))
        invariant = linking_invariant(restricted, pres.sigma_word("s"))
        expected = (-a * invariant) % q
        cases += 1
        if hoechsmann_pairing(g_star, rel) != expected:
            failures += 1
    return {"suite": "pairing", "n": n, "q": q, "samples": samples,
            "cases": cases, "failures": failures}


def verify_magnus(n=2, q=2, samples=100, seed=0, max_len=8):
    """Magnus matrices match the series oracle, multiply like words, and
    have eps as their corner entry."""
    rng = random.Random(seed)
    ring = ResidueRing(q)
    labels = [f"t{i}" for i in range(1, n + 1)]
    index = tuple(labels)
    cases = failures = 0
    for _ in range(samples):
        w1 = random_word(rng, labels, max_len)
        w2 = random_word(rng, labels, max_len)
        w12 = w1 * w2
        m1, m2, m12 = (magnus_matrix(w, index, ring) for w in (w1, w2, w12))
        checks = [m12 == ut.mul(m1, m2),
                  m12.entry(1, n + 1) == eps(w12, index, ring)]
        checks += [m == series_matrix(w, index, ring)
                   for w, m in ((w1, m1), (w2, m2), (w12, m12))]
        cases += len(checks)
        failures += checks.count(False)
    return {"suite": "magnus", "n": n, "q": q, "samples": samples,
            "cases": cases, "failures": failures}


SUITES = {
    "reciprocity": verify_reciprocity,
    "fiber": verify_fiber,
    "pairing": verify_pairing,
    "magnus": verify_magnus,
}
