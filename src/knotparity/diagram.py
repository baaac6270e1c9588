"""Knot diagram codes and their traversal.

A diagram is a cyclic sequence of tokens read along the oriented knot:

* ``O<id><sign>`` / ``U<id><sign>`` -- the over/under passage of a classical
  crossing; each crossing id appears exactly twice, once per strand, with the
  same sign on both passages.
* ``x<m><sign>`` -- crossing side m of the fundamental polygon of a genus-g
  surface (m in 1..2g); ``+`` is the selected copy of the side (label
  exponent +1), ``-`` the non-selected copy (-1).  Genus-0 diagrams are
  ordinary Gauss codes and carry no side tokens.
* ``v<id>`` -- a degree-2 vertex from arc subdivision.  Not part of the file
  grammar for census data but accepted everywhere so that diagrams produced
  by the subdivision move can be printed and re-read.

The basepoint is always token position 0 of the parsed text.  Crossing ids
from input are renumbered 1..n in order of first appearance; renumbering is
harmless because every downstream quantity is either id-independent or
covariant with it.

Arcs come from one cyclic walk, ``walk``, which cuts the token sequence at
the tokens a per-token action stops at and accumulates a label vector
between them.  ``arcs`` stops at under-passages and vertices and counts side
tokens (the surface matrix); ``short_arcs`` stops at under-passages of
type-1/2 crossings and counts the s-exponent gained at type-0 crossings in a
one-entry label (the virtual matrix); the presentation matrix also stops at
type-0 over-passages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class DiagramError(ValueError):
    pass


class MalformedToken(DiagramError):
    pass


class CrossingSeenOnce(DiagramError):
    pass


class CrossingSeenTwiceSameStrand(DiagramError):
    pass


class SignMismatch(DiagramError):
    pass


class SideIndexOutOfRange(DiagramError):
    pass


@dataclass(frozen=True)
class Passage:
    crossing: int
    over: bool
    sign: int

    def text(self):
        return f"{'O' if self.over else 'U'}{self.crossing}{'+' if self.sign > 0 else '-'}"


@dataclass(frozen=True)
class SideToken:
    side: int
    sign: int

    def text(self):
        return f"x{self.side}{'+' if self.sign > 0 else '-'}"


@dataclass(frozen=True)
class Vertex:
    vid: int

    def text(self):
        return f"v{self.vid}"


_TOKEN_RE = re.compile(r"^(?:([OUx])(\d+)([+-])|v(\d+))$")


@dataclass(frozen=True)
class Diagram:
    """Validated diagram code; genus 0 is the Gauss-code case."""

    name: str
    genus: int
    tokens: tuple

    def __post_init__(self):
        seen = {}
        for tok in self.tokens:
            if isinstance(tok, SideToken):
                if not (1 <= tok.side <= 2 * self.genus):
                    raise SideIndexOutOfRange(
                        f"{self.name}: side {tok.side} > 2g = {2 * self.genus}"
                    )
            elif isinstance(tok, Passage):
                rec = seen.setdefault(tok.crossing, [])
                rec.append(tok)
        for cid, passages in seen.items():
            if len(passages) == 1:
                raise CrossingSeenOnce(f"{self.name}: crossing {cid} appears once")
            if len(passages) > 2 or passages[0].over == passages[1].over:
                raise CrossingSeenTwiceSameStrand(
                    f"{self.name}: crossing {cid} repeats a strand"
                )
            if passages[0].sign != passages[1].sign:
                raise SignMismatch(f"{self.name}: crossing {cid} signs disagree")
        # crossing id -> sign, in order of first appearance; a plain attribute,
        # not a field, so equality and hashing still see only the fields
        object.__setattr__(self, "_signs", {cid: ps[0].sign for cid, ps in seen.items()})

    @property
    def crossings(self):
        return list(self._signs)

    @property
    def vertex_ids(self):
        return [tok.vid for tok in self.tokens if isinstance(tok, Vertex)]

    def sign_of(self, crossing):
        return self._signs[crossing]

    def rotated(self, k):
        """Basepoint moved k tokens forward."""
        n = len(self.tokens)
        if n == 0:
            return self
        k %= n
        return Diagram(self.name, self.genus, self.tokens[k:] + self.tokens[:k])

    def renumbered(self, mapping):
        """Relabel crossing ids through the given dict."""
        toks = tuple(
            Passage(mapping[t.crossing], t.over, t.sign) if isinstance(t, Passage) else t
            for t in self.tokens
        )
        return Diagram(self.name, self.genus, toks)

    def homology_class(self):
        """Total signed side crossings, one entry per side 1..2g."""
        vec = [0] * (2 * self.genus)
        for tok in self.tokens:
            if isinstance(tok, SideToken):
                vec[tok.side - 1] += tok.sign
        return tuple(vec)

    def serialize(self):
        body = " ".join(tok.text() for tok in self.tokens)
        head = f"genus {self.genus}; " if self.genus else ""
        return f"{head}{self.name}: {body}".rstrip()

    def __str__(self):
        return self.serialize()


def _parse_tokens(name, genus, body):
    tokens = []
    for word in body.split():
        m = _TOKEN_RE.match(word)
        if not m:
            raise MalformedToken(f"{name}: bad token {word!r}")
        if m.group(4) is not None:
            tokens.append(Vertex(int(m.group(4))))
            continue
        kind, num, sign = m.group(1), int(m.group(2)), 1 if m.group(3) == "+" else -1
        if kind == "x":
            tokens.append(SideToken(num, sign))
        else:
            tokens.append(Passage(num, kind == "O", sign))
    # renumber crossings by first appearance
    order = {}
    for tok in tokens:
        if isinstance(tok, Passage) and tok.crossing not in order:
            order[tok.crossing] = len(order) + 1
    tokens = [
        Passage(order[t.crossing], t.over, t.sign) if isinstance(t, Passage) else t
        for t in tokens
    ]
    return Diagram(name, genus, tuple(tokens))


def parse_gauss(text):
    """Parse ``name: O1+ U2- ...`` into a genus-0 diagram."""
    line = text.strip()
    if ":" not in line:
        raise MalformedToken(f"missing 'name:' in {line!r}")
    name, body = line.split(":", 1)
    return _parse_tokens(name.strip(), 0, body)


def parse_surface(text):
    """Parse ``genus g; name: ...`` into a surface diagram."""
    line = text.strip()
    m = re.match(r"^genus\s+(\d+)\s*;\s*(.*)$", line)
    if not m:
        raise MalformedToken(f"missing 'genus g;' header in {line!r}")
    genus = int(m.group(1))
    rest = m.group(2)
    if ":" not in rest:
        raise MalformedToken(f"missing 'name:' in {line!r}")
    name, body = rest.split(":", 1)
    return _parse_tokens(name.strip(), genus, body)


def parse_line(text):
    """Parse either format (surface when the genus header is present)."""
    if text.lstrip().startswith("genus"):
        return parse_surface(text)
    return parse_gauss(text)


def parse_file(path, lenient=False):
    """Parse a census file, one diagram per non-comment line.

    With ``lenient`` malformed lines are collected instead of raised.
    Returns (diagrams, errors) where errors is a list of (lineno, message).
    """
    diagrams, errors = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                diagrams.append(parse_line(line))
            except DiagramError as exc:
                if not lenient:
                    raise
                errors.append((lineno, str(exc)))
    return diagrams, errors


# ---------------------------------------------------------------------------
# Arc extraction


@dataclass(frozen=True)
class Incidence:
    site: int            # crossing id, or vertex id for subdivision vertices
    site_kind: str       # "crossing" | "vertex" ("u" | "o" in the presentation walk)
    role: str            # "out" | "in" | "over"
    label: tuple         # label exponents accumulated since the arc's origin


@dataclass(frozen=True)
class Arc:
    origin: int
    origin_kind: str
    incidences: tuple


@dataclass(frozen=True)
class ArcTable:
    arcs: tuple

    def by_origin(self):
        return {(a.origin_kind, a.origin): a for a in self.arcs}

    def __len__(self):
        return len(self.arcs)


# what a token does to the walk: (STOP, site, kind) ends the running arc there
# and starts the next, (OVER, site, kind) records an over-incidence, (STEP, k,
# e) adds e to label coordinate k, and None ignores the token
STOP, OVER, STEP = "stop", "over", "step"


def walk(tokens, width, action):
    """Cut the cyclic token sequence into arcs at the tokens ``action`` stops at.

    ``action(token)`` says what each token does (see STOP, OVER, STEP).
    Each arc starts with an "out" incidence at its stop, records an "over"
    incidence at every over-token and ends with an "in" incidence at the
    next stop; its label, ``width`` exponents, is zero at the origin.  Arcs
    come in the order of their stops; no stop gives the empty table.
    """
    acts = [action(tok) for tok in tokens]
    n = len(acts)
    table = []
    for start in (i for i, a in enumerate(acts) if a is not None and a[0] == STOP):
        _, origin, okind = acts[start]
        label = [0] * width
        incs = [Incidence(origin, okind, "out", tuple(label))]
        i = start
        while True:
            i = (i + 1) % n
            act = acts[i]
            if act is None:
                continue
            what, a, b = act
            if what == STEP:
                label[a] += b
                continue
            incs.append(Incidence(a, b, "over" if what == OVER else "in", tuple(label)))
            if what == STOP:
                break
        table.append(Arc(origin, okind, tuple(incs)))
    return ArcTable(tuple(table))


def _surface_action(tok):
    if isinstance(tok, SideToken):
        return STEP, tok.side - 1, tok.sign
    if isinstance(tok, Vertex):
        return STOP, tok.vid, "vertex"
    return (OVER if tok.over else STOP), tok.crossing, "crossing"


def arcs(d):
    """Arcs of a diagram with accumulated side labels at every incidence.

    An arc starts just after an under-passage (or subdivision vertex) and
    ends at the next one; its label vector is zero at the origin and moves by
    +-1 in coordinate m at each side token.  The table is empty for a
    diagram with no delimiters.
    """
    return walk(d.tokens, 2 * d.genus, _surface_action)


def short_arcs(d, types):
    """Short arcs of a Gauss diagram under a type assignment.

    Arcs are delimited only by under-passages at crossings of types 1 and 2.
    Passing a type-0 crossing of sign e multiplies the running label by s^e
    on the under strand and s^-e on the over strand, so each incidence
    carries the one-entry label (s exponent,); over-passages at type-1/2
    crossings are recorded as incidences.  All crossings type 0 gives the
    empty table; a crossing missing from ``types`` raises KeyError.
    """

    def action(tok):
        if not isinstance(tok, Passage):
            return None
        if types[tok.crossing] == 0:
            return STEP, 0, -tok.sign if tok.over else tok.sign
        return (OVER if tok.over else STOP), tok.crossing, "crossing"

    return walk(d.tokens, 1, action)
