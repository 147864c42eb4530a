import random

import pytest

from arithlink import unitriangular as ut
from arithlink.errors import (CompatibilityError, ConsistencyError,
                              InputError, ParseError, PreconditionError)
from arithlink.linking import (Globalization, LinkPresentation, Obstruction,
                               Relator, Slot, build_globalization,
                               check_link_type_vanishing, eval_word,
                               fiber_lift, format_presentation,
                               hoechsmann_pairing, linking_invariant,
                               massey_coordinates, parse_presentation,
                               restrict_presentation, truncate_globalization)
from arithlink.magnus import eps
from arithlink.rings import ResidueRing
from arithlink.verify import nested_commutator, pairing_fixture
from arithlink.words import GroupWord, commutator, parse_word

R2 = ResidueRing(2)


def presentation(text):
    return parse_presentation(text)


def glob_or_fail(pres):
    out = build_globalization(pres)
    assert isinstance(out, Globalization), getattr(out, "failures", out)
    return out


TRIVIAL_N2 = """
params n=2 q=2
slot 1 tau=t1 sigma=s1
slot 2 tau=t2 sigma=s2
sigma s1 = 1
sigma s2 = 1
rel linktype tau'=t1 alpha=1 tau=t1 sigma=s1
rel linktype tau'=t2 alpha=0 tau=t2 sigma=s2
"""

COMMUTATOR_N2 = """
params n=2 q=2
slot 1 tau=t1 sigma=s1
slot 2 tau=t2 sigma=s2
sigma s1 = [t1,t2]
sigma s2 = [t2,t1]
rel linktype tau'=t1 alpha=1 tau=t1 sigma=s1
rel linktype tau'=t2 alpha=1 tau=t2 sigma=s2
"""


# ---------------------------------------------------------------------------
# evaluation


def test_eval_empty_word():
    g = glob_or_fail(presentation(TRIVIAL_N2))
    assert g(GroupWord.identity()).is_identity()


def test_eval_tau_is_elementary():
    g = glob_or_fail(presentation(TRIVIAL_N2))
    assert g(parse_word("t1")) == ut.elementary(ut.ConvexShape.full(2), 1, 2, 1, R2)
    assert g(parse_word("t2")) == ut.elementary(ut.ConvexShape.full(2), 2, 3, 1, R2)


def test_eval_is_homomorphism():
    g = glob_or_fail(presentation(TRIVIAL_N2))
    rng = random.Random(21)
    for _ in range(30):
        w1 = _random_word(rng)
        w2 = _random_word(rng)
        assert g(w1 * w2) == ut.mul(g(w1), g(w2))


def test_eval_unassigned_label():
    g = glob_or_fail(presentation(TRIVIAL_N2))
    with pytest.raises(InputError):
        g(parse_word("t9"))


def _random_word(rng, labels=("t1", "t2"), max_len=6):
    w = GroupWord.identity()
    for _ in range(rng.randrange(max_len + 1)):
        w = w * GroupWord.generator(rng.choice(labels), rng.choice((-1, 1)))
    return w


# ---------------------------------------------------------------------------
# building globalizations


def test_build_n1_power_relator():
    pres = presentation("params n=1 q=2\nslot 1 tau=t1\nrel t1^2\n")
    g = glob_or_fail(pres)
    assert g.matrix("t1") == ut.elementary(ut.ConvexShape.full(1), 1, 2, 1, R2)


def test_build_trivial_sigma_success():
    g = glob_or_fail(presentation(TRIVIAL_N2))
    assert g(parse_word("s1")).is_identity()


def test_build_obstruction_reports_depth():
    pres = presentation("params n=2 q=2\n"
                        "slot 1 tau=t1 sigma=s1\n"
                        "slot 2 tau=t2\n"
                        "sigma s1 = t2\n"
                        "rel linktype tau'=t1 alpha=0 tau=t1 sigma=s1\n")
    out = build_globalization(pres)
    assert isinstance(out, Obstruction)
    ((rel, image, depth),) = out.failures
    assert depth == 2
    assert image.entry(1, 3) != 0
    assert "depth 2" in out.describe()


def test_generation_check_runs_above_old_enumeration_limit(monkeypatch):
    # |U_5| over Z/2 is 2**15, too large to enumerate; the check still runs
    pres = LinkPresentation(R2, 5, tuple(Slot(f"t{l}") for l in range(1, 6)))
    calls = []
    real = ut.generates
    monkeypatch.setattr(ut, "generates",
                        lambda *args: calls.append(args) or real(*args))
    assert isinstance(build_globalization(pres), Globalization)
    assert len(calls) == 1
    monkeypatch.setattr(ut, "generates", lambda gens, n, ring: False)
    with pytest.raises(ConsistencyError, match="failed to generate"):
        build_globalization(pres)


def test_build_uniqueness_by_enumeration_n2():
    # among all generator assignments, exactly one satisfies the slot
    # constraints together with the relators, and build returns it
    pres = presentation(COMMUTATOR_N2)
    g = glob_or_fail(pres)
    shape = ut.ConvexShape.full(2)
    matches = 0
    for m1 in ut.iter_group(shape, R2):
        for m2 in ut.iter_group(shape, R2):
            assignment = {"t1": m1, "t2": m2}
            if m1 != ut.elementary(shape, 1, 2, 1, R2):
                continue
            if m2 != ut.elementary(shape, 2, 3, 1, R2):
                continue
            for name in ("s1", "s2"):
                assignment[name] = eval_word(
                    assignment, pres.sigma_word(name), shape, R2)
            if all(eval_word(assignment, r.word, shape, R2).is_identity()
                   for r in pres.relators):
                matches += 1
                assert m1 == g.matrix("t1") and m2 == g.matrix("t2")
    assert matches == 1


def test_presentation_rejects_undeclared_generators():
    with pytest.raises(InputError):
        LinkPresentation(R2, 1, (Slot("t1"),),
                         relators=(Relator.free(parse_word("t1 t9")),))


# ---------------------------------------------------------------------------
# link-type vanishing


def test_vanishing_trivial_sigmas():
    assert check_link_type_vanishing(presentation(TRIVIAL_N2))


def test_vanishing_commutator_sigma():
    pres = presentation(COMMUTATOR_N2)
    assert check_link_type_vanishing(pres)
    assert isinstance(build_globalization(pres), Globalization)


def test_vanishing_false_for_shallow_sigma():
    pres = presentation("params n=2 q=2\n"
                        "slot 1 tau=t1 sigma=s1\n"
                        "slot 2 tau=t2\n"
                        "sigma s1 = t1\n"
                        "rel linktype tau'=t1 alpha=0 tau=t1 sigma=s1\n")
    assert not check_link_type_vanishing(pres)


def test_vanishing_rejects_free_relators():
    pres = presentation("params n=1 q=2\nslot 1 tau=t1\nrel t1^2\n")
    with pytest.raises(InputError):
        check_link_type_vanishing(pres)


# ---------------------------------------------------------------------------
# linking invariants


def test_invariant_of_empty_word_is_zero():
    g = glob_or_fail(presentation(TRIVIAL_N2))
    assert linking_invariant(g, GroupWord.identity()) == 0


def test_invariant_of_commutator():
    g = glob_or_fail(presentation(TRIVIAL_N2))
    assert linking_invariant(g, parse_word("[t1,t2]")) == 1


def test_invariant_requires_central_image():
    g = glob_or_fail(presentation(TRIVIAL_N2))
    with pytest.raises(PreconditionError) as err:
        linking_invariant(g, parse_word("t1"))
    assert "(1, 2)" in str(err.value)


def test_invariant_agrees_with_eps():
    g = glob_or_fail(presentation(TRIVIAL_N2))
    rng = random.Random(23)
    index = ("t1", "t2")
    checked = 0
    candidates = [parse_word("[t1,t2]"), parse_word("[t2,t1]"),
                  GroupWord.identity()]
    candidates += [_random_word(rng) for _ in range(200)]
    for w in candidates:
        try:
            inv = linking_invariant(g, w)
        except PreconditionError:
            continue
        checked += 1
        assert inv == eps(w, index, R2)
    assert checked >= 10


# ---------------------------------------------------------------------------
# lifting


def test_restrict_presentation_sides():
    pres = presentation(COMMUTATOR_N2)
    up = restrict_presentation(pres, "upper")
    lo = restrict_presentation(pres, "lower")
    assert up.tau_labels() == ["t1"] and lo.tau_labels() == ["t2"]
    assert up.sigma_word("s1").is_identity()


def test_fiber_lift_n2_projections():
    pres = presentation(COMMUTATOR_N2)
    g1 = glob_or_fail(restrict_presentation(pres, "upper"))
    g2 = glob_or_fail(restrict_presentation(pres, "lower"))
    g = fiber_lift(g1, g2, pres)
    assert isinstance(g, Globalization)
    assert ut.upper_left(g.matrix("t1"), 1) == g1.matrix("t1")
    assert ut.lower_right(g.matrix("t2"), 1) == g2.matrix("t2")


def test_fiber_lift_identical_inputs_n2():
    pres = presentation(COMMUTATOR_N2)
    g = fiber_lift(glob_or_fail(restrict_presentation(pres, "upper")),
                   glob_or_fail(restrict_presentation(pres, "lower")), pres)
    # the lift reproduces the directly built globalization
    assert g == glob_or_fail(pres)


def test_fiber_lift_n3_unique_up_to_corner():
    pres = _triple_commutator_presentation()
    g1 = glob_or_fail(restrict_presentation(pres, "upper"))
    g2 = glob_or_fail(restrict_presentation(pres, "lower"))
    g = fiber_lift(g1, g2, pres)
    assert isinstance(g, Globalization)
    # enumeration over the corner degrees of freedom: every assignment
    # extending the glue satisfies the relators (corner entries are central),
    # and the canonical lift is the one with zero corners
    shape = ut.ConvexShape.full(3)
    for c1 in (0, 1):
        for c2 in (0, 1):
            assignment = {
                "t1": _with_corner(g.matrix("t1"), c1),
                "t2": g.matrix("t2"),
                "t3": _with_corner(g.matrix("t3"), c2),
            }
            for slot in pres.slots:
                if slot.sigma is not None:
                    assignment[slot.sigma] = eval_word(
                        assignment, pres.sigma_word(slot.sigma), shape, R2)
            assert all(eval_word(assignment, r.word, shape, R2).is_identity()
                       for r in pres.relators)
    assert g.matrix("t1").entry(1, 4) == 0


def _with_corner(mat, value):
    entries = dict(mat.data)
    entries[(1, 4)] = value
    return ut.from_entries(mat.shape, mat.ring, entries)


def _triple_commutator_presentation():
    text = ("params n=3 q=2\n"
            "slot 1 tau=t1 sigma=s1\n"
            "slot 2 tau=t2 sigma=s2\n"
            "slot 3 tau=t3 sigma=s3\n"
            "sigma s1 = [[t1,t2],t3]\n"
            "sigma s2 = [[t2,t3],t1]\n"
            "sigma s3 = [[t1,t3],t2]\n"
            "rel linktype tau'=t1 alpha=1 tau=t1 sigma=s1\n"
            "rel linktype tau'=t2 alpha=0 tau=t2 sigma=s2\n"
            "rel linktype tau'=t3 alpha=1 tau=t3 sigma=s3\n")
    return presentation(text)


def test_fiber_lift_overlap_mismatch():
    pres = presentation(COMMUTATOR_N2)
    g1 = glob_or_fail(restrict_presentation(pres, "upper"))
    shape1 = ut.ConvexShape.full(1)
    bad = Globalization(1, R2, (("t2", ut.identity(shape1, R2)),))
    with pytest.raises(CompatibilityError):
        fiber_lift(g1, bad, pres)


def test_fiber_lift_rejects_nontrivial_sigma_window():
    pres = presentation("params n=2 q=2\n"
                        "slot 1 tau=t1 sigma=s1\n"
                        "slot 2 tau=t2\n"
                        "sigma s1 = t1^2\n"
                        "rel linktype tau'=t1 alpha=0 tau=t1 sigma=s1\n")
    up = restrict_presentation(pres, "upper")
    lo = restrict_presentation(pres, "lower")
    # upper window: sigma word t1^2 evaluates to Id mod 2, so this passes;
    # make it nontrivial over q=4 instead
    pres4 = presentation("params n=2 q=4\n"
                         "slot 1 tau=t1 sigma=s1\n"
                         "slot 2 tau=t2\n"
                         "sigma s1 = t1^2\n"
                         "rel linktype tau'=t1 alpha=0 tau=t1 sigma=s1\n")
    up4 = restrict_presentation(pres4, "upper")
    lo4 = restrict_presentation(pres4, "lower")
    g1 = build_globalization(up4)
    g2 = build_globalization(lo4)
    if isinstance(g1, Globalization) and isinstance(g2, Globalization):
        with pytest.raises(PreconditionError):
            fiber_lift(g1, g2, pres4)


# ---------------------------------------------------------------------------
# pairing


def test_pairing_zero_for_trivial_invariant():
    rng = random.Random(29)
    pres, rel, _ = pairing_fixture(rng, 2, 2)
    # force trivial sigma: replace with identity word
    pres = LinkPresentation(pres.ring, pres.n, pres.slots,
                            (("s", GroupWord.identity()),), pres.relators)
    g_star = glob_or_fail(pres)
    assert hoechsmann_pairing(g_star, rel) == 0


def test_pairing_n1_example():
    # two slots over U_2: sigma is t1, whose restriction to U_1 is not
    # central-trivial -- use sigma = t1 to realize invariant 1 at depth 1
    pres = presentation("params n=2 q=2\n"
                        "slot 1 tau=t1\n"
                        "slot 2 tau=t2 sigma=s\n"
                        "sigma s = t1\n")
    g_star = glob_or_fail(pres)
    rel = Relator.linktype("t1", 0, "t2", "s", 2)
    assert hoechsmann_pairing(g_star, rel) == 1  # -1*1 = 1 mod 2


def test_pairing_matches_contract():
    rng = random.Random(31)
    for n in (1, 2, 3):
        for q in (2, 4):
            for _ in range(20):
                pres, rel, a = pairing_fixture(rng, n, q)
                g_star = glob_or_fail(pres)
                restricted = Globalization(
                    n, pres.ring,
                    tuple((lab, ut.upper_left(m, n))
                          for lab, m in g_star.assignment))
                inv = linking_invariant(restricted, pres.sigma_word("s"))
                assert hoechsmann_pairing(g_star, rel) == (-a * inv) % q


def test_pairing_rejects_free_relator():
    g = glob_or_fail(presentation(TRIVIAL_N2))
    with pytest.raises(InputError):
        hoechsmann_pairing(g, Relator.free(parse_word("t1")))


# ---------------------------------------------------------------------------
# Massey coordinates


def test_massey_coordinates_from_globalization():
    pres = presentation(COMMUTATOR_N2)
    g = glob_or_fail(pres)
    coords = massey_coordinates(truncate_globalization(g), pres)
    assert len(coords) == 2
    for l, phi in enumerate(coords, start=1):
        for k, slot in enumerate(pres.slots, start=1):
            assert phi(GroupWord.generator(slot.tau)) == (1 if l == k else 0)
        assert phi(GroupWord.identity()) == 0


def test_massey_coordinates_are_additive():
    pres = presentation(COMMUTATOR_N2)
    g = glob_or_fail(pres)
    coords = massey_coordinates(truncate_globalization(g), pres)
    rng = random.Random(37)
    for _ in range(30):
        w1 = _random_word(rng)
        w2 = _random_word(rng)
        for phi in coords:
            assert phi(w1 * w2) == (phi(w1) + phi(w2)) % 2


def test_massey_rejects_broken_relators():
    shape = ut.ConvexShape.truncated(2)
    bad = {
        "t1": ut.elementary(shape, 1, 2, 1, R2),
        "t2": ut.elementary(shape, 2, 3, 1, R2),
    }
    pres_bad = presentation("params n=2 q=2\n"
                            "slot 1 tau=t1\nslot 2 tau=t2\n"
                            "rel t1\n")
    with pytest.raises(InputError):
        massey_coordinates(bad, pres_bad)


def test_massey_needs_truncated_shape():
    pres = presentation(COMMUTATOR_N2)
    g = glob_or_fail(pres)
    with pytest.raises(InputError):
        massey_coordinates(dict(g.assignment), pres)


# ---------------------------------------------------------------------------
# presentation files


def test_parse_round_trip():
    pres = presentation(COMMUTATOR_N2)
    assert parse_presentation(format_presentation(pres)) == pres


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        presentation("params n=1 q=2\nslot 1 tau=t1\nbogus directive\n")
    assert "line 3" in str(err.value)


def test_parse_requires_params():
    with pytest.raises(ParseError):
        presentation("slot 1 tau=t1\n")


def test_parse_checks_slot_range():
    with pytest.raises(ParseError):
        presentation("params n=2 q=2\nslot 1 tau=t1\n")


def test_comments_and_blank_lines_ignored():
    pres = presentation("# header\nparams n=1 q=2\n\nslot 1 tau=t1  # slot\n")
    assert pres.n == 1


def test_tau_exp_round_trip():
    pres = LinkPresentation(
        ResidueRing(4), 2, (Slot("t1", "s1"), Slot("t2", "s2")),
        (("s1", parse_word("[t1,t2]")), ("s2", parse_word("[t2,t1]"))),
        (Relator.linktype("t1", 1, "t1", "s1", 4),
         Relator.linktype("t1", 1, "t2", "s2", 4, tau_exp=3)))
    text = format_presentation(pres)
    assert text.count("tau_exp") == 1 and "tau_exp=3" in text
    back = parse_presentation(text)
    assert back == pres
    assert [r.word for r in back.relators] == [r.word for r in pres.relators]


def test_linktype_at_cryptographic_modulus():
    q = 2**61 - 1
    rel = Relator.linktype("t1", 1, "t2", "s", q)
    assert rel.word.syllables[0] == ("t1", q)


# ---------------------------------------------------------------------------
# fiber lift returns build_globalization's result


def test_fiber_lift_equals_build_globalization_n4():
    # nested commutators of all four taus: trivial in both windows, each with
    # a nonzero corner in U_4
    sigmas = ("[[[t1,t2],t3],t4]", "[[[t2,t1],t3],t4]",
              "[[t1,[t2,t3]],t4]", "[t1,[[t2,t3],t4]]")
    text = "params n=4 q=3\n"
    for l in range(1, 5):
        text += f"slot {l} tau=t{l} sigma=s{l}\n"
    for l, word in enumerate(sigmas, start=1):
        text += f"sigma s{l} = {word}\n"
    for l in range(1, 5):
        text += f"rel linktype tau'=t{l} alpha={l % 3} tau=t{l} sigma=s{l}\n"
    pres = presentation(text)
    g1 = glob_or_fail(restrict_presentation(pres, "upper"))
    g2 = glob_or_fail(restrict_presentation(pres, "lower"))
    lifted = fiber_lift(g1, g2, pres)
    assert lifted == glob_or_fail(pres)
    for l in range(1, 5):
        assert not lifted.matrix(f"s{l}").is_identity()


def test_fiber_lift_passes_obstruction_through():
    pres = presentation("params n=3 q=2\n"
                        "slot 1 tau=t1\nslot 2 tau=t2\nslot 3 tau=t3\n"
                        "rel [[t1,t2],t3]\n")
    g1 = glob_or_fail(restrict_presentation(pres, "upper"))
    g2 = glob_or_fail(restrict_presentation(pres, "lower"))
    lifted = fiber_lift(g1, g2, pres)
    assert isinstance(lifted, Obstruction)
    assert lifted == build_globalization(pres)
    [(_, image, depth)] = lifted.failures
    assert depth == 3
    assert image == ut.elementary(ut.ConvexShape.full(3), 1, 4, 1, R2)


def test_fiber_lift_rejects_noncentral_lift(monkeypatch):
    import arithlink.linking as linking
    pres = presentation(COMMUTATOR_N2)
    g1 = glob_or_fail(restrict_presentation(pres, "upper"))
    g2 = glob_or_fail(restrict_presentation(pres, "lower"))
    glob = glob_or_fail(pres)
    shape = ut.ConvexShape.full(2)
    skewed = Globalization(2, R2, tuple(
        (label, ut.elementary(shape, 1, 2, 1, R2) if label == "s1" else mat)
        for label, mat in glob.assignment))
    monkeypatch.setattr(linking, "build_globalization", lambda p: skewed)
    with pytest.raises(PreconditionError, match="s1"):
        fiber_lift(g1, g2, pres)
