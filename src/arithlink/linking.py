"""Link-type group presentations and their matrix globalizations.

A presentation assigns each slot l a tau-generator (mapped to the elementary
matrix Id + E_{l,l+1}) and optionally a sigma-generator defined by a word in
the tau-generators.  A globalization is the induced homomorphism into U_n;
it exists iff every relator evaluates to the identity matrix, and is then
unique.  The corner entry of the image of a central word is the linking
invariant generalizing the Legendre and Redei symbols.
"""

from dataclasses import dataclass

from . import unitriangular as ut
from .errors import (CompatibilityError, ConsistencyError, InputError,
                     ParseError, PreconditionError)
from .rings import ResidueRing
from .unitriangular import eval_word
from .words import GroupWord, commutator, format_word, parse_word


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Slot:
    """One ordered slot: its tau label and optional sigma label."""

    tau: str
    sigma: str = None


@dataclass(frozen=True)
class Relator:
    """A defining relator; link-type relators expose their decomposition.

    Link-type schema: tau_prime^(q*alpha) * [tau, sigma_hat], where tau and
    tau_prime are tau-generator words and sigma_hat is a sigma label.
    """

    word: GroupWord
    schema: str = "free"  # "free" | "linktype"
    tau_prime: str = None
    alpha: int = None
    tau: str = None
    tau_exp: int = 1
    sigma: str = None

    @classmethod
    def free(cls, word):
        return cls(word=word)

    @classmethod
    def linktype(cls, tau_prime, alpha, tau, sigma, q, tau_exp=1):
        word = (GroupWord.generator(tau_prime) ** (q * alpha)
                * commutator(GroupWord.generator(tau, tau_exp),
                             GroupWord.generator(sigma)))
        return cls(word=word, schema="linktype", tau_prime=tau_prime,
                   alpha=alpha, tau=tau, tau_exp=tau_exp, sigma=sigma)


@dataclass(frozen=True)
class LinkPresentation:
    """Slots, sigma-words and relators over Z/q, targeting U_n."""

    ring: ResidueRing
    n: int
    slots: tuple
    sigma_words: tuple = ()  # ((sigma label, GroupWord), ...)
    relators: tuple = ()

    def __post_init__(self):
        if len(self.slots) != self.n:
            raise InputError(f"expected {self.n} slots, got {len(self.slots)}")
        labels = [s.tau for s in self.slots] + \
                 [s.sigma for s in self.slots if s.sigma is not None]
        if len(set(labels)) != len(labels):
            raise InputError("slot labels must be distinct")
        tau_labels = self.tau_labels()
        sigma_map = dict(self.sigma_words)
        declared_sigmas = {s.sigma for s in self.slots if s.sigma is not None}
        for name, w in sigma_map.items():
            if name not in declared_sigmas:
                raise InputError(f"sigma word for undeclared label {name!r}")
            if not w.labels() <= set(tau_labels):
                raise InputError(
                    f"sigma word for {name!r} uses non-tau generators")
        for r in self.relators:
            if not r.word.labels() <= set(labels):
                unknown = sorted(r.word.labels() - set(labels))
                raise InputError(f"relator uses undeclared generators {unknown}")

    def tau_labels(self):
        return [s.tau for s in self.slots]

    def sigma_word(self, label):
        return dict(self.sigma_words).get(label, GroupWord.identity())


# ---------------------------------------------------------------------------
# globalizations


@dataclass(frozen=True)
class Globalization:
    """Generator-to-matrix assignment together with its word evaluation."""

    n: int
    ring: ResidueRing
    assignment: tuple  # ((label, PartialMatrix), ...)

    def matrix(self, label):
        try:
            return dict(self.assignment)[label]
        except KeyError:
            raise InputError(f"generator {label!r} has no assigned matrix") from None

    def labels(self):
        return [label for label, _ in self.assignment]

    def __call__(self, word):
        return eval_word(dict(self.assignment), word,
                         ut.ConvexShape.full(self.n), self.ring)


@dataclass(frozen=True)
class Obstruction:
    """Relators that fail to die, with their images and filtration depths."""

    failures: tuple  # ((Relator, PartialMatrix, depth), ...)

    def __bool__(self):
        return False

    def describe(self):
        lines = []
        for rel, image, depth in self.failures:
            lines.append(f"relator {format_word(rel.word)} has nonidentity "
                         f"image at filtration depth {depth}")
        return "\n".join(lines)


def _normalized_assignment(pres):
    """Tau generators to elementary matrices, then sigma images by evaluation."""
    shape = ut.ConvexShape.full(pres.n)
    assignment = {}
    for l, slot in enumerate(pres.slots, start=1):
        assignment[slot.tau] = ut.elementary(shape, l, l + 1, 1, pres.ring)
    for slot in pres.slots:
        if slot.sigma is not None:
            assignment[slot.sigma] = eval_word(
                assignment, pres.sigma_word(slot.sigma), shape, pres.ring)
    return assignment


def _relator_failures(assignment, relators, shape, ring):
    """Yield (relator, image, filtration depth) for each relator that survives."""
    for rel in relators:
        image = eval_word(assignment, rel.word, shape, ring)
        if not image.is_identity():
            yield rel, image, ut.filtration_depth(image)


def _require_central(image, what):
    """Raise PreconditionError naming the first entry of `image` off its corner."""
    corner = (1, image.n + 1)
    for pair, v in image.data:
        if pair != corner:
            raise PreconditionError(
                f"{what} lies outside the center: entry {pair} = {v}")


def build_globalization(pres):
    """The unique candidate globalization, or the obstruction that kills it.

    Slot l's tau generator goes to Id + E_{l,l+1}; sigma generators to the
    images of their words.  Success requires every relator to evaluate to the
    identity.  Surjectivity onto U_n is checked at every group order by
    `unitriangular.generates` (superdiagonal rank over F_p); a failure raises
    ConsistencyError.
    """
    assignment = _normalized_assignment(pres)
    failures = tuple(_relator_failures(assignment, pres.relators,
                                       ut.ConvexShape.full(pres.n), pres.ring))
    if failures:
        return Obstruction(failures)
    taus = [assignment[t] for t in pres.tau_labels()]
    if not ut.generates(taus, pres.n, pres.ring):
        raise ConsistencyError("tau images failed to generate U_n")
    return Globalization(pres.n, pres.ring, tuple(assignment.items()))


def check_link_type_vanishing(pres):
    """True iff every sigma-word image is central (lies in V_n).

    Then each link-type relator is automatically killed: the power part dies
    because elementary subgroups have exponent q, and the commutator part
    because V_n is central.  Requires all relators to carry the link-type
    schema.
    """
    for rel in pres.relators:
        if rel.schema != "linktype":
            raise InputError("vanishing check applies to link-type relators only")
    assignment = _normalized_assignment(pres)
    return all(ut.filtration_depth(assignment[slot.sigma]) >= pres.n
               for slot in pres.slots if slot.sigma is not None)


def linking_invariant(glob, z_word):
    """Corner entry of the image of z_word; requires the image central."""
    image = glob(z_word)
    _require_central(image, "image of word")
    return image.entry(1, glob.n + 1)


# ---------------------------------------------------------------------------
# fiber-product lifting


def restrict_presentation(pres, side):
    """Sub-presentation on slots 1..n-1 ('upper') or 2..n ('lower').

    Generators of the dropped slot disappear from sigma-words and relators
    (their images are trivial in the smaller structure).
    """
    if side not in ("upper", "lower"):
        raise InputError(f"side must be 'upper' or 'lower', got {side!r}")
    if pres.n < 2:
        raise InputError("restriction needs n >= 2")
    keep = pres.slots[:-1] if side == "upper" else pres.slots[1:]
    dropped_slot = pres.slots[-1] if side == "upper" else pres.slots[0]
    dropped = {dropped_slot.tau}
    if dropped_slot.sigma is not None:
        dropped.add(dropped_slot.sigma)
    sigma_words = tuple((name, w.drop(dropped))
                        for name, w in pres.sigma_words
                        if name not in dropped)
    relators = []
    for rel in pres.relators:
        if rel.schema == "linktype":
            if dropped & {rel.tau_prime, rel.tau, rel.sigma}:
                continue
            relators.append(Relator.linktype(rel.tau_prime, rel.alpha, rel.tau,
                                             rel.sigma, pres.ring.q,
                                             tau_exp=rel.tau_exp))
        else:
            relators.append(Relator.free(rel.word.drop(dropped)))
    return LinkPresentation(pres.ring, pres.n - 1, keep,
                            sigma_words, tuple(relators))


def fiber_lift(g1, g2, pres):
    """Lift globalizations over the two size-(n-1) windows to one over U_n.

    g1 covers slots 1..n-1, g2 covers slots 2..n; each must send its taus to
    Id + E_{l,l+1} and its sigma words to Id.  Such windows glue to the taus
    of `build_globalization`, so the lift is its result, an Obstruction
    included; the lifted sigma images must be central.
    """
    n = pres.n
    if n < 2:
        raise InputError("lifting needs n >= 2")
    if g1.n != n - 1 or g2.n != n - 1:
        raise CompatibilityError(
            f"window globalizations must live in U_{n - 1}")
    shape_m = ut.ConvexShape.full(n - 1)
    for side, g in (("upper", g1), ("lower", g2)):
        sub = restrict_presentation(pres, side)
        for l, slot in enumerate(sub.slots, start=1):
            expect = ut.elementary(shape_m, l, l + 1, 1, pres.ring)
            if g.matrix(slot.tau) != expect:
                raise CompatibilityError(
                    f"tau generator {slot.tau!r} is not normalized in its window")
        for slot in sub.slots:
            if slot.sigma is not None and \
                    not g(sub.sigma_word(slot.sigma)).is_identity():
                raise PreconditionError(
                    f"sigma word of {slot.sigma!r} is not trivial in the window")
    glob = build_globalization(pres)
    if isinstance(glob, Globalization):
        for slot in pres.slots:
            if slot.sigma is not None:
                _require_central(glob.matrix(slot.sigma),
                                 f"lifted sigma image of {slot.sigma!r}")
    return glob


# ---------------------------------------------------------------------------
# pairing identities


def hoechsmann_pairing(g_star, rel):
    """Corner entry of a link-type relator image one level up.

    g_star lives over U_{n+1}; the relator's commutator slot must restrict,
    one level down, to a central element.  The value equals minus the tau
    exponent times the linking invariant of the restricted sigma word.
    """
    if rel.schema != "linktype":
        raise InputError("pairing is defined for link-type relators")
    n = g_star.n - 1
    if n >= 1:
        _require_central(ut.upper_left(g_star.matrix(rel.sigma), n),
                         "restricted sigma image")
    return g_star(rel.word).entry(1, n + 2)


def massey_coordinates(assignment, pres):
    """Superdiagonal coordinate maps of an assignment into the central quotient.

    `assignment` maps generator labels to matrices over the truncated shape
    (everything but the corner).  All relators must die; the returned list
    holds, for l = 1..n, the map word -> (l, l+1) entry of its image, each a
    homomorphism to Z/q.
    """
    shape = ut.ConvexShape.truncated(pres.n)
    for mat in dict(assignment).values():
        if mat.shape != shape:
            raise InputError("assignment matrices must live over the truncated shape")
    assignment = dict(assignment)
    for rel, _, _ in _relator_failures(assignment, pres.relators, shape,
                                       pres.ring):
        raise InputError(
            f"relator {format_word(rel.word)} does not vanish in the quotient")

    def coordinate(l):
        def phi(word):
            return eval_word(assignment, word, shape, pres.ring).entry(l, l + 1)
        return phi

    return [coordinate(l) for l in range(1, pres.n + 1)]


def truncate_globalization(glob):
    """Project a globalization's matrices to the central-quotient shape."""
    shape = ut.ConvexShape.truncated(glob.n)
    return {label: ut.project(mat, shape) for label, mat in glob.assignment}


# ---------------------------------------------------------------------------
# presentation files


def parse_presentation(text):
    """Parse the line-oriented presentation format.

    params n=<n> q=<q>
    slot <l> tau=<label> [sigma=<label>]
    sigma <label> = <group-word>
    rel <group-word>
    rel linktype tau'=<label> alpha=<int> tau=<label> sigma=<label> [tau_exp=<int>]

    '#' starts a comment.
    """
    params = None
    slots = {}
    slot_sigmas = {}
    sigma_words = []
    relator_specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        try:
            if head == "params":
                kv = _keyvals(rest)
                params = (int(kv.pop("n")), int(kv.pop("q")))
                if kv:
                    raise ParseError(f"unknown params {sorted(kv)}")
            elif head == "slot":
                idx_s, _, kvs = rest.strip().partition(" ")
                idx = int(idx_s)
                kv = _keyvals(kvs)
                if idx in slots:
                    raise ParseError(f"duplicate slot {idx}")
                slots[idx] = kv.pop("tau")
                slot_sigmas[idx] = kv.pop("sigma", None)
                if kv:
                    raise ParseError(f"unknown slot fields {sorted(kv)}")
            elif head == "sigma":
                name, _, word_s = rest.partition("=")
                sigma_words.append((name.strip(), parse_word(word_s)))
            elif head == "rel":
                relator_specs.append(rest.strip())
            else:
                raise ParseError(f"unknown directive {head!r}")
        except ParseError as e:
            raise ParseError(str(e), line=lineno) from None
        except (KeyError, ValueError) as e:
            raise ParseError(f"malformed {head} line ({e})", line=lineno) from None
    if params is None:
        raise ParseError("missing `params n=... q=...` line")
    n, q = params
    if sorted(slots) != list(range(1, n + 1)):
        raise ParseError(f"expected slots 1..{n}, got {sorted(slots)}")
    ring = ResidueRing(q)
    slot_objs = tuple(Slot(slots[l], slot_sigmas[l]) for l in range(1, n + 1))
    relators = []
    for spec in relator_specs:
        if spec.startswith("linktype"):
            kv = _keyvals(spec[len("linktype"):])
            relators.append(Relator.linktype(
                kv.pop("tau'"), int(kv.pop("alpha")), kv.pop("tau"),
                kv.pop("sigma"), q, tau_exp=int(kv.pop("tau_exp", 1))))
            if kv:
                raise ParseError(f"unknown linktype fields {sorted(kv)}")
        else:
            relators.append(Relator.free(parse_word(spec)))
    return LinkPresentation(ring, n, slot_objs, tuple(sigma_words),
                            tuple(relators))


def _keyvals(text):
    out = {}
    for part in text.split():
        key, eq, value = part.partition("=")
        if not eq:
            raise ParseError(f"expected key=value, got {part!r}")
        out[key] = value
    return out


def format_presentation(pres):
    lines = [f"params n={pres.n} q={pres.ring.q}"]
    for l, slot in enumerate(pres.slots, start=1):
        line = f"slot {l} tau={slot.tau}"
        if slot.sigma is not None:
            line += f" sigma={slot.sigma}"
        lines.append(line)
    for name, w in pres.sigma_words:
        lines.append(f"sigma {name} = {format_word(w)}")
    for rel in pres.relators:
        if rel.schema == "linktype":
            exp = f" tau_exp={rel.tau_exp}" if rel.tau_exp != 1 else ""
            lines.append(f"rel linktype tau'={rel.tau_prime} alpha={rel.alpha} "
                         f"tau={rel.tau} sigma={rel.sigma}{exp}")
        else:
            lines.append(f"rel {format_word(rel.word)}")
    return "\n".join(lines) + "\n"
