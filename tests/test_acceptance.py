"""Acceptance suite: one pass/fail line per criterion.

Each test prints its verdict on the real stdout so the lines survive pytest's
capture; a failing assertion marks the criterion FAIL before the test errors.
"""

import itertools
import random
import sys
import time
from contextlib import contextmanager

from sympy import primerange

from arithlink import unitriangular as ut
from arithlink.arithmetic import (iter_conic_solutions, legendre,
                                  legendre_euler, linking_invariant_n1,
                                  redei_symbol)
from arithlink.linking import (Globalization, LinkPresentation, Relator, Slot,
                               build_globalization, eval_word, fiber_lift,
                               hoechsmann_pairing, linking_invariant,
                               restrict_presentation)
from arithlink.magnus import eps, magnus_matrix
from arithlink.rings import ResidueRing
from arithlink.verify import pairing_fixture
from arithlink.words import GroupWord, commutator, parse_word


@contextmanager
def criterion(number, name, limit=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL", file=sys.__stdout__)
        raise
    elapsed = time.monotonic() - start
    if limit is not None:
        assert elapsed < limit, f"{name} took {elapsed:.1f}s, limit {limit}s"
    print(f"criterion {number} ({name}): PASS", file=sys.__stdout__)


def random_matrix(rng, shape, ring):
    return ut.from_entries(shape, ring,
                           {p: rng.randrange(ring.q) for p in shape.off_diagonal})


def random_word(rng, labels, max_len):
    w = GroupWord.identity()
    for _ in range(rng.randrange(max_len + 1)):
        w = w * GroupWord.generator(rng.choice(labels), rng.choice((-1, 1)))
    return w


# ---------------------------------------------------------------------------


def test_criterion_1_redei_golden():
    with criterion(1, "Redei golden value", limit=5.0):
        result = redei_symbol(5, 41, 61)
        assert result.value == -1
        for a, b in itertools.permutations((5, 41, 61), 2):
            assert legendre(a, b) == 1


def test_criterion_2_legendre_oracle():
    with criterion(2, "Legendre vs Euler oracle", limit=10.0):
        mismatches = 0
        for p in primerange(3, 500):
            for a in range(1, p):
                if legendre(a, p) != legendre_euler(a, p):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_3_group_laws():
    with criterion(3, "group-law suite"):
        # exhaustive for n <= 3, q = 2 via a Cayley table
        for n in (1, 2, 3):
            ring = ResidueRing(2)
            shape = ut.ConvexShape.full(n)
            elements = list(ut.iter_group(shape, ring))
            index = {m: i for i, m in enumerate(elements)}
            size = len(elements)
            table = [[index[ut.mul(a, b)] for b in elements] for a in elements]
            ident = index[ut.identity(shape, ring)]
            inv = [index[ut.inverse(a)] for a in elements]
            for i in range(size):
                assert table[i][ident] == i and table[ident][i] == i
                assert table[i][inv[i]] == ident and table[inv[i]][i] == ident
            for i in range(size):
                for j in range(size):
                    row = table[i][j]
                    for k in range(size):
                        assert table[row][k] == table[i][table[j][k]]
            # projection homomorphism laws and centrality of the corner
            sub = ut.ConvexShape.filtration(n, max(n, 2) - 1) \
                if n > 1 else ut.ConvexShape.diagonal(1)
            for a in elements:
                for b in elements:
                    prod = elements[table[index[a]][index[b]]]
                    assert ut.project(prod, sub) == \
                        ut.mul(ut.project(a, sub), ut.project(b, sub))
            for v in range(2):
                z = ut.elementary(shape, 1, n + 1, v, ring)
                for a in elements:
                    assert ut.mul(a, z) == ut.mul(z, a)
        # randomized for n <= 4, q in {4, 8}
        rng = random.Random(41)
        cases = 0
        while cases < 10_000:
            n = rng.choice((2, 3, 4))
            ring = ResidueRing(rng.choice((4, 8)))
            shape = ut.ConvexShape.full(n)
            a = random_matrix(rng, shape, ring)
            b = random_matrix(rng, shape, ring)
            c = random_matrix(rng, shape, ring)
            assert ut.mul(ut.mul(a, b), c) == ut.mul(a, ut.mul(b, c))
            assert ut.mul(a, ut.inverse(a)).is_identity()
            m = rng.randrange(1, n + 1)
            assert ut.upper_left(ut.mul(a, b), m) == \
                ut.mul(ut.upper_left(a, m), ut.upper_left(b, m))
            assert ut.lower_right(ut.mul(a, b), m) == \
                ut.mul(ut.lower_right(a, m), ut.lower_right(b, m))
            z = ut.elementary(shape, 1, n + 1, rng.randrange(ring.q), ring)
            assert ut.mul(a, z) == ut.mul(z, a)
            cases += 5


def test_criterion_4_fiber_product():
    with criterion(4, "fiber product enumeration", limit=30.0):
        for n in (2, 3):
            ring = ResidueRing(2)
            shape = ut.ConvexShape.full(n)
            m1 = m2 = n - 1
            t = m1 + m2 - n
            image = set()
            kernel = 0
            for a in ut.iter_group(shape, ring):
                pair = ut.fiber_decompose(a, m1, m2)
                image.add(pair)
                if pair[0].is_identity() and pair[1].is_identity():
                    kernel += 1
            # image is exactly the fiber product over U_t
            fiber = 0
            small = ut.ConvexShape.full(m1)
            for x in ut.iter_group(small, ring):
                for y in ut.iter_group(small, ring):
                    if t == 0 or ut.lower_right(x, t) == ut.upper_left(y, t):
                        fiber += 1
                        assert (x, y) in image
            assert len(image) == fiber
            assert kernel * fiber == 2 ** (n * (n + 1) // 2)


def test_criterion_5_magnus_homomorphism():
    with criterion(5, "Magnus matrix homomorphism"):
        rng = random.Random(43)
        pairs = 0
        while pairs < 1000:
            n = rng.choice((1, 2, 3))
            ring = ResidueRing(rng.choice((2, 4)))
            index = tuple(f"t{i}" for i in range(1, n + 1))
            w1 = random_word(rng, index, 8)
            w2 = random_word(rng, index, 8)
            m1 = magnus_matrix(w1, index, ring)
            m2 = magnus_matrix(w2, index, ring)
            m12 = magnus_matrix(w1 * w2, index, ring)
            assert m12 == ut.mul(m1, m2)
            assert m12.entry(1, n + 1) == eps(w1 * w2, index, ring)
            pairs += 1


def test_criterion_6_globalization_uniqueness():
    with criterion(6, "globalization uniqueness and surjectivity"):
        ring = ResidueRing(2)
        fixtures = {
            1: ("params n=1 q=2\nslot 1 tau=t1\nrel t1^2\n"),
            2: ("params n=2 q=2\n"
                "slot 1 tau=t1 sigma=s1\n"
                "slot 2 tau=t2 sigma=s2\n"
                "sigma s1 = [t1,t2]\n"
                "sigma s2 = [t2,t1]\n"
                "rel linktype tau'=t1 alpha=1 tau=t1 sigma=s1\n"
                "rel linktype tau'=t2 alpha=1 tau=t2 sigma=s2\n"),
        }
        from arithlink.linking import parse_presentation
        for n, text in fixtures.items():
            pres = parse_presentation(text)
            built = build_globalization(pres)
            assert isinstance(built, Globalization)
            shape = ut.ConvexShape.full(n)
            slots = {l: ut.elementary(shape, l, l + 1, 1, ring)
                     for l in range(1, n + 1)}
            matches = []
            for combo in itertools.product(ut.iter_group(shape, ring),
                                           repeat=n):
                assignment = {f"t{l}": m for l, m in enumerate(combo, start=1)}
                if any(assignment[f"t{l}"] != slots[l]
                       for l in range(1, n + 1)):
                    continue
                for slot in pres.slots:
                    if slot.sigma is not None:
                        assignment[slot.sigma] = eval_word(
                            assignment, pres.sigma_word(slot.sigma),
                            shape, ring)
                if all(eval_word(assignment, r.word, shape, ring).is_identity()
                       for r in pres.relators):
                    matches.append(assignment)
            assert len(matches) == 1
            for l in range(1, n + 1):
                assert matches[0][f"t{l}"] == built.matrix(f"t{l}")
            gens = [built.matrix(f"t{l}") for l in range(1, n + 1)]
            assert len(ut.closure(gens, shape, ring)) == \
                2 ** (n * (n + 1) // 2)
            assert ut.generates(gens, n, ring)


def _commutator_sigma(rng, labels):
    """Random element of the commutator subgroup whose restriction to any
    window with one generator dropped reduces to the identity."""
    if len(labels) == 2:
        base = [commutator(GroupWord.generator(labels[0]),
                           GroupWord.generator(labels[1]))]
    else:
        base = [commutator(commutator(GroupWord.generator(a),
                                      GroupWord.generator(b)),
                           GroupWord.generator(c))
                for a, b, c in itertools.permutations(labels, 3)]
    w = GroupWord.identity()
    for _ in range(rng.randrange(3)):
        w = w * rng.choice(base) ** rng.choice((-1, 1))
    return w


def _lift_fixtures(count=100):
    """Criterion 7's presentations: n in {2, 3}, commutator sigma words."""
    rng = random.Random(47)
    ring = ResidueRing(2)
    for _ in range(count):
        n = rng.choice((2, 3))
        labels = tuple(f"t{l}" for l in range(1, n + 1))
        slots = tuple(Slot(lab, f"s{l}")
                      for l, lab in enumerate(labels, start=1))
        sigma_words = tuple(
            (f"s{l}", _commutator_sigma(rng, labels))
            for l in range(1, n + 1))
        relators = tuple(
            Relator.linktype(lab, rng.randrange(2), lab, f"s{l}", 2)
            for l, lab in enumerate(labels, start=1))
        yield LinkPresentation(ring, n, slots, sigma_words, relators)


def test_criterion_7_fiber_lift():
    with criterion(7, "fiber lifting"):
        for pres in _lift_fixtures():
            n = pres.n
            g1 = build_globalization(restrict_presentation(pres, "upper"))
            g2 = build_globalization(restrict_presentation(pres, "lower"))
            assert isinstance(g1, Globalization)
            assert isinstance(g2, Globalization)
            lifted = fiber_lift(g1, g2, pres)
            assert isinstance(lifted, Globalization)
            for lab, _ in g1.assignment:
                assert ut.upper_left(lifted.matrix(lab), n - 1) == \
                    g1.matrix(lab)
            for lab, _ in g2.assignment:
                assert ut.lower_right(lifted.matrix(lab), n - 1) == \
                    g2.matrix(lab)


def test_fiber_lift_is_build_globalization():
    for pres in _lift_fixtures():
        g1 = build_globalization(restrict_presentation(pres, "upper"))
        g2 = build_globalization(restrict_presentation(pres, "lower"))
        assert fiber_lift(g1, g2, pres) == build_globalization(pres)


def test_criterion_8_pairing_identity():
    with criterion(8, "Hoechsmann pairing identity"):
        rng = random.Random(53)
        cases = 0
        while cases < 1000:
            n = rng.choice((1, 2, 3))
            q = rng.choice((2, 4))
            pres, rel, a = pairing_fixture(rng, n, q)
            g_star = build_globalization(pres)
            assert isinstance(g_star, Globalization)
            restricted = Globalization(
                n, pres.ring,
                tuple((lab, ut.upper_left(m, n))
                      for lab, m in g_star.assignment))
            inv = linking_invariant(restricted, pres.sigma_word("s"))
            assert hoechsmann_pairing(g_star, rel) == (-a * inv) % q
            cases += 1


def test_criterion_9_n1_equivalence():
    with criterion(9, "depth-1 equivalence with splitting"):
        mismatches = 0
        for p1 in primerange(3, 100):
            if p1 % 4 != 1:
                continue
            for pj in primerange(3, 100):
                if pj == p1:
                    continue
                splits = any((t * t - p1) % pj == 0 for t in range(pj))
                if (linking_invariant_n1(p1, pj) == 0) != splits:
                    mismatches += 1
        assert mismatches == 0


def test_criterion_10_redei_well_defined():
    with criterion(10, "Redei well-definedness"):
        triples = []
        pairs = ((5, 29), (5, 41), (5, 61), (13, 17), (41, 61))
        for p1, p2 in pairs:
            for p3 in primerange(3, 300):
                if p3 in (p1, p2):
                    continue
                if legendre(p1, p3) == 1 and legendre(p2, p3) == 1:
                    triples.append((p1, p2, p3))
                if len([t for t in triples if t[:2] == (p1, p2)]) == 2:
                    break
        assert len(triples) >= 10
        for p1, p2, p3 in triples:
            values = set()
            solutions = 0
            for sol in iter_conic_solutions(p1, p2):
                if sol.z % p3 == 0:
                    continue
                # redei_symbol itself checks both square roots agree
                values.add(redei_symbol(p1, p2, p3, solution=sol).value)
                solutions += 1
                if solutions == 3:
                    break
            assert solutions == 3
            assert len(values) == 1
