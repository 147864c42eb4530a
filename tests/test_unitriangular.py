import itertools
import random

import pytest

from arithlink import unitriangular as ut
from arithlink.errors import CompatibilityError, InputError
from arithlink.rings import ResidueRing

R2 = ResidueRing(2)
R4 = ResidueRing(4)


def full(n):
    return ut.ConvexShape.full(n)


def random_matrix(rng, shape, ring):
    return ut.from_entries(shape, ring,
                           {p: rng.randrange(ring.q) for p in shape.off_diagonal})


# ---------------------------------------------------------------------------
# shapes


def test_diagonal_is_convex():
    assert ut.is_convex(3, [(k, k) for k in range(1, 5)])


def test_filtration_band_is_convex():
    band = ut.ConvexShape.filtration(3, 3)
    assert ut.is_convex(3, band.entries)
    assert (1, 4) not in band
    assert (1, 3) in band


def test_hole_toward_diagonal_is_not_convex():
    pairs = [(k, k) for k in range(1, 4)] + [(1, 3)]
    assert not ut.is_convex(2, pairs)


def test_is_convex_rejects_out_of_range():
    with pytest.raises(InputError):
        ut.is_convex(2, [(1, 5)])


def test_filtration_extremes():
    assert ut.ConvexShape.filtration(3, 1) == ut.ConvexShape.diagonal(3)
    assert ut.ConvexShape.filtration(3, 4) == full(3)


# ---------------------------------------------------------------------------
# matrices and the group law


def test_entry_outside_shape_is_an_error():
    a = ut.identity(ut.ConvexShape.filtration(2, 2), R2)
    with pytest.raises(InputError):
        a.entry(1, 3)


def test_mul_identity():
    rng = random.Random(1)
    a = random_matrix(rng, full(3), R4)
    assert ut.mul(ut.identity(full(3), R4), a) == a
    assert ut.mul(a, ut.identity(full(3), R4)) == a


def test_mul_superdiagonal_example():
    a = ut.elementary(full(2), 1, 2, 1, R2)
    b = ut.elementary(full(2), 2, 3, 1, R2)
    c = ut.mul(a, b)
    assert c.entry(1, 2) == 1 and c.entry(2, 3) == 1 and c.entry(1, 3) == 1


def test_mul_mod4_cancellation():
    a = ut.elementary(full(1), 1, 2, 3, R4)
    b = ut.elementary(full(1), 1, 2, 1, R4)
    assert ut.mul(a, b).is_identity()


def test_mul_shape_mismatch():
    with pytest.raises(CompatibilityError):
        ut.mul(ut.identity(full(1), R2), ut.identity(full(2), R2))


def test_inverse_examples():
    assert ut.inverse(ut.identity(full(2), R2)).is_identity()
    e = ut.elementary(full(2), 1, 2, 1, R2)
    assert ut.inverse(e) == e  # 1 + 1 = 0 mod 2


@pytest.mark.parametrize("q,n", [(2, 3), (4, 2), (8, 2)])
def test_inverse_property(q, n):
    rng = random.Random(q * 10 + n)
    ring = ResidueRing(q)
    for _ in range(50):
        a = random_matrix(rng, full(n), ring)
        assert ut.mul(a, ut.inverse(a)).is_identity()
        assert ut.mul(ut.inverse(a), a).is_identity()


def test_elementary_additivity():
    for a in range(4):
        for b in range(4):
            lhs = ut.mul(ut.elementary(full(2), 1, 3, a, R4),
                         ut.elementary(full(2), 1, 3, b, R4))
            assert lhs == ut.elementary(full(2), 1, 3, (a + b) % 4, R4)


def test_elementary_rejects_diagonal_and_missing_index():
    with pytest.raises(InputError):
        ut.elementary(full(2), 1, 1, 1, R2)
    with pytest.raises(InputError):
        ut.elementary(ut.ConvexShape.filtration(2, 2), 1, 3, 1, R2)


def test_superdiagonal_elementaries_generate():
    gens = [ut.elementary(full(2), k, k + 1, 1, R2) for k in (1, 2)]
    assert len(ut.closure(gens, full(2), R2)) == 8


@pytest.mark.parametrize("n,q,size", [(2, 2, 8), (3, 2, 64), (2, 4, 64)])
def test_generation_count(n, q, size):
    ring = ResidueRing(q)
    gens = [ut.elementary(full(n), k, k + 1, 1, ring) for k in range(1, n + 1)]
    assert len(ut.closure(gens, full(n), ring)) == size
    assert ut.generates(gens, n, ring)


def _order_generated(table, start, gens):
    """Size of the subgroup generated by `gens` (indices into a Cayley table)."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = table[a][g]
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_generates_matches_closure_on_all_pairs(n, q):
    # Exhaustive over ordered pairs; the closure runs on a Cayley table built
    # with ut.mul, so U_2 over Z/4 (4096 pairs) stays fast.
    ring = ResidueRing(q)
    group = list(ut.iter_group(full(n), ring))
    index = {m: i for i, m in enumerate(group)}
    table = [[index[ut.mul(a, b)] for b in group] for a in group]
    start = index[ut.identity(full(n), ring)]
    outcomes = set()
    for i, j in itertools.product(range(len(group)), repeat=2):
        expected = _order_generated(table, start, (i, j)) == len(group)
        assert ut.generates([group[i], group[j]], n, ring) == expected, \
            (group[i].data, group[j].data)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_generates_matches_closure_on_random_sets():
    rng = random.Random(5)
    n, ring = 3, R2
    outcomes = set()
    for _ in range(40):
        gens = [random_matrix(rng, full(n), ring)
                for _ in range(rng.randrange(n + 2))]
        expected = len(ut.closure(gens, full(n), ring)) == 2 ** 6
        assert ut.generates(gens, n, ring) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("q", [2, 4])
def test_missing_generator_does_not_generate(q):
    ring = ResidueRing(q)
    gens = [ut.elementary(full(3), k, k + 1, 1, ring) for k in (1, 2, 3)]
    for drop in range(3):
        rest = gens[:drop] + gens[drop + 1:]
        assert len(ut.closure(rest, full(3), ring)) < q ** 6
        assert not ut.generates(rest, 3, ring)


@pytest.mark.parametrize("q,r", [(4, 2), (9, 3)])
def test_superdiagonal_entry_divisible_by_p_does_not_generate(q, r):
    ring = ResidueRing(q)
    gens = [ut.elementary(full(2), 1, 2, r, ring),
            ut.elementary(full(2), 2, 3, 1, ring)]
    assert len(ut.closure(gens, full(2), ring)) < q ** 3
    assert not ut.generates(gens, 2, ring)
    unit = [ut.from_entries(full(2), ring, {(1, 2): r + 1, (1, 3): r}),
            gens[1]]
    assert len(ut.closure(unit, full(2), ring)) == q ** 3
    assert ut.generates(unit, 2, ring)


def test_generates_rejects_mismatched_generators():
    with pytest.raises(CompatibilityError):
        ut.generates([ut.elementary(full(2), 1, 2, 1, R2)], 3, R2)
    with pytest.raises(CompatibilityError):
        ut.generates([ut.elementary(full(2), 1, 2, 1, R4)], 2, R2)


# ---------------------------------------------------------------------------
# projections


def test_project_to_own_shape_is_identity_map():
    rng = random.Random(2)
    a = random_matrix(rng, full(2), R2)
    assert ut.project(a, a.shape) == a


def test_project_drops_corner():
    a = ut.elementary(full(2), 1, 3, 1, R2)
    assert ut.project(a, ut.ConvexShape.filtration(2, 2)).is_identity()


def test_project_is_homomorphism():
    rng = random.Random(3)
    sub = ut.ConvexShape.filtration(3, 2)
    for _ in range(30):
        a = random_matrix(rng, full(3), R4)
        b = random_matrix(rng, full(3), R4)
        assert ut.project(ut.mul(a, b), sub) == \
            ut.mul(ut.project(a, sub), ut.project(b, sub))


def test_project_requires_subshape():
    a = ut.identity(ut.ConvexShape.filtration(2, 2), R2)
    with pytest.raises(InputError):
        ut.project(a, full(2))


def test_window_identity_map():
    rng = random.Random(4)
    a = random_matrix(rng, full(2), R2)
    assert ut.project_window(a, (1, 2, 3), full(2)) == a


def test_upper_left_kills_lower_entries():
    a = ut.elementary(full(2), 2, 3, 1, R2)
    assert ut.upper_left(a, 1).is_identity()


def test_windows_are_homomorphisms():
    rng = random.Random(5)
    for _ in range(30):
        a = random_matrix(rng, full(3), R4)
        b = random_matrix(rng, full(3), R4)
        for proj in (lambda m: ut.upper_left(m, 2),
                     lambda m: ut.lower_right(m, 2)):
            assert proj(ut.mul(a, b)) == ut.mul(proj(a), proj(b))


def test_superdiagonal_entry_is_additive():
    rng = random.Random(6)
    for _ in range(30):
        a = random_matrix(rng, full(3), R4)
        b = random_matrix(rng, full(3), R4)
        for l in (1, 2, 3):
            assert ut.mul(a, b).entry(l, l + 1) == \
                (a.entry(l, l + 1) + b.entry(l, l + 1)) % 4


def test_window_hypothesis_violation():
    a = ut.identity(full(2), R2)
    with pytest.raises(InputError):
        # superdiagonal index 2 of the window shape is not hit by the map
        ut.project_window(a, (1, 3), full(2))


# ---------------------------------------------------------------------------
# fiber product


def test_fiber_decompose_full_windows():
    rng = random.Random(7)
    a = random_matrix(rng, full(2), R2)
    assert ut.fiber_decompose(a, 2, 2) == (a, a)


def test_fiber_decompose_kills_corner():
    a = ut.elementary(full(2), 1, 3, 1, R2)
    m1, m2 = ut.fiber_decompose(a, 1, 1)
    assert m1.is_identity() and m2.is_identity()


def test_fiber_glue_identity_and_example():
    i1 = ut.identity(full(1), R2)
    assert ut.fiber_glue(i1, i1, 2).is_identity()
    e = ut.elementary(full(1), 1, 2, 1, R2)
    g = ut.fiber_glue(e, e, 2)
    assert g.entry(1, 2) == 1 and g.entry(2, 3) == 1 and g.entry(1, 3) == 0


def test_fiber_glue_mismatch():
    e = ut.elementary(full(2), 2, 3, 1, R2)
    with pytest.raises(CompatibilityError):
        ut.fiber_glue(e, ut.identity(full(2), R2), 3)


def test_fiber_round_trip_exhaustive_n2():
    for a in ut.iter_group(full(2), R2):
        m1, m2 = ut.fiber_decompose(a, 1, 1)
        glued = ut.fiber_glue(m1, m2, 2)
        assert ut.fiber_decompose(glued, 1, 1) == (m1, m2)


# ---------------------------------------------------------------------------
# filtration


def test_filtration_depth_identity():
    assert ut.filtration_depth(ut.identity(full(3), R2)) == 4


def test_filtration_depth_corner():
    a = ut.elementary(full(3), 1, 4, 1, R2)
    assert ut.filtration_depth(a) == 3


def test_commutator_adds_depths():
    rng = random.Random(8)
    for _ in range(50):
        a = random_matrix(rng, full(3), R4)
        b = random_matrix(rng, full(3), R4)
        c = ut.commutator(a, b)
        bound = ut.filtration_depth(a) + ut.filtration_depth(b)
        assert ut.filtration_depth(c) >= min(bound, 4)


def test_center_commutes_exhaustively():
    for a in ut.iter_group(full(3), R2):
        for v in (0, 1):
            z = ut.elementary(full(3), 1, 4, v, R2)
            assert ut.mul(a, z) == ut.mul(z, a)


# ---------------------------------------------------------------------------
# serialization


def test_text_round_trip():
    rng = random.Random(9)
    a = random_matrix(rng, full(3), R4)
    assert ut.from_text(ut.to_text(a)) == a


def test_text_header():
    a = ut.elementary(full(2), 1, 2, 1, R2)
    assert ut.to_text(a) == "U 2 2\n1 2 1\n"


def test_from_text_rejects_garbage():
    with pytest.raises(InputError):
        ut.from_text("not a matrix")
