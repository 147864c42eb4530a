"""Words in named group generators, with the shared text grammar.

A word is a freely reduced sequence of (generator, exponent) pairs.  The
grammar used by the CLI and presentation files:

    t1  t2^-1  [w1,w2]  juxtaposition for products  ^k for powers

Whitespace is insignificant; the empty string is the identity.
"""

import re
from dataclasses import dataclass

from .errors import ParseError


def _reduce(pairs):
    out = []
    for label, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == label:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((label, merged))
        else:
            out.append((label, exp))
    return tuple(out)


@dataclass(frozen=True)
class GroupWord:
    """Freely reduced word; immutable, supports * , ** and commutators."""

    syllables: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "syllables", _reduce(self.syllables))

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def generator(cls, label, exp=1):
        return cls(((label, exp),))

    def __mul__(self, other):
        return GroupWord(self.syllables + other.syllables)

    def inverse(self):
        return GroupWord(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, k):
        """w**k by square-and-multiply, so k may be as large as a modulus."""
        if k < 0:
            return self.inverse() ** (-k)
        result = GroupWord()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def is_identity(self):
        return not self.syllables

    def labels(self):
        return {g for g, _ in self.syllables}

    def substitute(self, mapping):
        """Replace each generator by a word; absent labels map to themselves."""
        w = GroupWord()
        for g, e in self.syllables:
            w = w * (mapping.get(g, GroupWord.generator(g)) ** e)
        return w

    def drop(self, labels):
        """Delete all occurrences of the given generators."""
        return GroupWord(tuple(s for s in self.syllables if s[0] not in labels))

    def __str__(self):
        return format_word(self)


def commutator(w1, w2):
    """[w1, w2] = w1 w2 w1^-1 w2^-1."""
    return w1 * w2 * w1.inverse() * w2.inverse()


def format_word(w):
    if w.is_identity():
        return "1"
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in w.syllables)


_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<caret>\^)|(?P<int>-?\d+)"
                    r"|(?P<open>\[)|(?P<comma>,)|(?P<close>\]))")


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r} "
                                 f"in word {text!r}")
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
        pos = m.end()
    return tokens


def parse_word(text):
    """Parse the shared group-word grammar; '1' and '' denote the identity."""
    text = text.strip()
    if text == "1":
        return GroupWord.identity()
    tokens = _tokenize(text)
    word, rest = _parse_product(tokens, ())
    if rest:
        raise ParseError(f"trailing tokens after word in {text!r}")
    return word


def _parse_product(tokens, stoppers):
    w = GroupWord.identity()
    while tokens and tokens[0][0] not in stoppers:
        atom, tokens = _parse_atom(tokens)
        w = w * atom
    return w, tokens


def _parse_atom(tokens):
    kind, value = tokens[0]
    if kind == "ident":
        atom = GroupWord.generator(value)
        tokens = tokens[1:]
    elif kind == "open":
        left, tokens = _parse_product(tokens[1:], ("comma", "close"))
        if not tokens or tokens[0][0] != "comma":
            raise ParseError("expected ',' inside commutator")
        right, tokens = _parse_product(tokens[1:], ("comma", "close"))
        if not tokens or tokens[0][0] != "close":
            raise ParseError("expected ']' closing commutator")
        atom = commutator(left, right)
        tokens = tokens[1:]
    else:
        raise ParseError(f"unexpected token {value!r} in word")
    if tokens and tokens[0][0] == "caret":
        if len(tokens) < 2 or tokens[1][0] != "int":
            raise ParseError("expected an integer exponent after '^'")
        atom = atom ** int(tokens[1][1])
        tokens = tokens[2:]
    return atom, tokens
