"""Constructors for the named groups used by the classifier and the
verification suite, keyed by structured tags.

Tags have a compact text syntax (``toric:3,4``, ``artin:333``,
``quintic:C4_3A2``, products with ``*``) that the CLI reads, and a JSON
form, ``GroupTag.to_json``.  A tag's parameters are the plain values its
text gives: ``toric:3,4`` holds ``(3, 4)``, ``raag:3;1-0`` holds
``(3, ((0, 1),))`` and ``gpolymod:3;1,1`` holds ``(3, (1, 1))``.
``_VARIANTS`` holds, for each variant, the reader of the text after the
colon, the check of the parameters and the builder of the presentation.
The check runs once, when a tag is made, so every ``GroupTag`` builds,
whether parsed or made in code; ``artin`` and ``coxeter`` labels are
>= 2.  Every text that is not a tag raises the one
``bad tag syntax '<text>'``.
"""

from __future__ import annotations

import string
from math import gcd
from typing import Dict, List

from .dsl import parse_presentation
from .presentations import Presentation
from .words import Word


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _no_text(text: str) -> tuple:
    raise ValueError("this variant takes no text after a colon")


def _read_labels(text: str) -> tuple:
    """``m,n,p``, or ``mnp`` with one digit per label."""
    return _ints(text) if "," in text else tuple(int(c) for c in text)


def _read_raag(text: str) -> tuple:
    """``n;i-j,...`` as ``(n, edges)``, each edge and the edge list sorted."""
    n, _, pairs = text.partition(";")
    edges = []
    for pair in filter(None, pairs.split(",")):
        i, j = sorted(int(x) for x in pair.split("-"))
        edges.append((i, j))
    return int(n), tuple(sorted(edges))


def _read_gpolymod(text: str) -> tuple:
    p, _, coeffs = text.partition(";")
    return int(p), _ints(coeffs)


def _int(*values) -> bool:
    return all(type(x) is int for x in values)


def _monic(coeffs) -> bool:
    """Ascending coefficients of a monic polynomial of degree >= 1."""
    return type(coeffs) is tuple and _int(*coeffs) and len(coeffs) >= 2 and coeffs[-1] == 1


def _simple_graph(n, edges) -> bool:
    """Edges ``(i, j)``, 0 <= i < j < n, listed once each and in order."""
    return (
        _int(n) and n >= 0 and type(edges) is tuple
        and all(_int(i, j) and 0 <= i < j < n for i, j in edges)
        and edges == tuple(sorted(set(edges)))
    )


def _gen_names(n: int) -> List[str]:
    letters = string.ascii_lowercase
    if n <= len(letters):
        return list(letters[:n])
    return [f"x{i+1}" for i in range(n)]


def _alternating(a: Word, b: Word, m: int) -> Word:
    """{a,b}^m = abab... of length m."""
    out = Word()
    for i in range(m):
        out = out * (a if i % 2 == 0 else b)
    return out


def _artin(n: int, edges, involutions: bool = False) -> Presentation:
    """n generators and, for each edge ``(a, b, m)``, the braid relation
    {a,b}^m = {b,a}^m; with ``involutions``, every generator squared first."""
    gens = [Word.gen(i) for i in range(n)]
    rels = [g * g for g in gens] if involutions else []
    for a, b, m in edges:
        rels.append(_alternating(gens[a], gens[b], m) * ~_alternating(gens[b], gens[a], m))
    return Presentation(_gen_names(n), rels)


def _braid(n: int) -> Presentation:
    """The complete graph on n - 1 vertices, the path labelled 3, the rest 2."""
    edges = [(a, b, 3 if b == a + 1 else 2) for a in range(n - 1) for b in range(a + 1, n - 1)]
    return _artin(n - 1, edges)


def _commutator(a: Word, b: Word) -> Word:
    return a * b * ~a * ~b


_A, _B, _C = (Word.gen(i) for i in range(3))


def _raag(n: int, edges) -> Presentation:
    return Presentation(_gen_names(n), [_commutator(Word.gen(i), Word.gen(j)) for i, j in edges])


def _gpolymod(p, coeffs) -> Presentation:
    """Z[t]/(T) extended by t acting as multiplication, T monic with
    ascending ``coeffs``; with p, each a_i also has order p (``gpoly`` is
    p = None)."""
    d = len(coeffs) - 1
    names = [f"a{i}" for i in range(d)] + ["t"]
    a = [Word.gen(i) for i in range(d)]
    t = Word.gen(d)
    rels = []
    for i in range(d):
        for j in range(i + 1, d):
            rels.append(_commutator(a[i], a[j]))
    # conjugation by t is multiplication by t on Z[t]/T: companion matrix
    for i in range(d):
        if i < d - 1:
            image = a[i + 1]
        else:
            image = Word()
            for j in range(d):
                image = image * a[j] ** (-coeffs[j])
        rels.append(t * a[i] * ~t * ~image)
    if p is not None:
        rels.extend(a[i] ** p for i in range(d))
    return Presentation(names, rels)


def _surface_data(g: int):
    names = [f"A{i+1}" for i in range(g)] + [f"B{i+1}" for i in range(g)]
    rel = Word()
    for i in range(g):
        rel = rel * _commutator(Word.gen(i), Word.gen(g + i))
    return names, [rel]


def _surfext(g: int, p: int) -> Presentation:
    names, (surf,) = _surface_data(g)
    t = Word.gen(2 * g)
    rels = [surf * t**-p] + [_commutator(Word.gen(i), t) for i in range(2 * g)]
    return Presentation(names + ["t"], rels)


def direct_product(left: Presentation, right: Presentation) -> Presentation:
    """Disjoint union of the presentations plus all cross commutators;
    colliding right-hand generator names get underscores appended."""
    names = list(left.generators)
    for name in right.generators:
        candidate = name
        while candidate in names:
            candidate += "_"
        names.append(candidate)
    shift = left.n_gens
    rels = list(left.relators)
    for w in right.relators:
        rels.append(Word(tuple(x + shift if x > 0 else x - shift for x in w.letters)))
    for i in range(left.n_gens):
        for j in range(right.n_gens):
            rels.append(_commutator(Word.gen(i), Word.gen(shift + j)))
    return Presentation(names, rels)


_QUINTIC_DSL: Dict[str, str] = {
    # irreducible quintics
    "C5_3A4": "<a,b | b = a b^4 a, a^2 = b^2 a^3 b^2>",
    "C5_A6_3A2": "<u,v | u^3 = v^7, v^7 = (u v^2)^2>",
    # quartic + line, line twice tangent
    "C4_3A2": "<a,b,c | aba = bab, bcb = cbc, a b c b^-1 a = b c b^-1 a b c b^-1>",
    # cubic + conic
    "C3_C2": "<a,b | a^3 b a^-3 b^-1, a b^2 = b a^2>",
    # cubic + two lines (the triangle Artin group on labels 2,3,4)
    "C3_A2_x3_x2x1": "<a,b,c | aca = cac, b c b^-1 c^-1, (ab)^2 = (ba)^2>",
    # conic + three lines, two shapes
    "C2_3C1_A": "<a,b,c | a b a^-1 b^-1, a c^-1 b c a^-1 c^-1 b^-1 c, (bc)^2 = (cb)^2>",
    "C2_3C1_B": "<a,b,c | (ac)^2 = (ca)^2, (ab)^2 = (ba)^2, b c b^-1 c^-1>",
}

# other names of two cases; the ``quintic`` tag reader turns them into the
# canonical name, so each group has one tag
_QUINTIC_ALIASES = {
    "C4_3A2_x2x2": "C4_3A2",
    "C3_A2": "C3_A2_x3_x2x1",
}


def quintic_cases() -> List[str]:
    return sorted(_QUINTIC_DSL)


def quintic_presentation(case: str) -> Presentation:
    try:
        return parse_presentation(_QUINTIC_DSL[case])
    except KeyError:
        raise ValueError(
            f"unknown quintic case {case!r}; known: {', '.join(quintic_cases())}"
        ) from None


# variant -> (reader of the text after the colon, check of the parameters,
#             builder of the presentation); the check and the builder take
# the parameters as their arguments, so a wrong count fails the check
_VARIANTS = {
    "free": (_ints, lambda n: _int(n) and n >= 1, lambda n: Presentation(_gen_names(n))),
    "braid": (_ints, lambda n: _int(n) and n >= 2, _braid),
    "spherebraid3": (_no_text, lambda: True,
                     lambda: parse_presentation("<s1, s2 | s1 s2 s1 = s2 s1 s2, s1 s2^2 s1>")),
    # labels of the edges (a,b), (b,c) and (a,c)
    "artin": (_read_labels, lambda m, n, p: _int(m, n, p) and min(m, n, p) >= 2,
              lambda m, n, p: _artin(3, [(0, 1, m), (0, 2, p), (1, 2, n)])),
    "coxeter": (_read_labels, lambda m, n, p: _int(m, n, p) and min(m, n, p) >= 2,
                lambda m, n, p: _artin(3, [(0, 1, m), (0, 2, p), (1, 2, n)], True)),
    "raag": (_read_raag, _simple_graph, _raag),
    "toric": (_ints, lambda p, q: _int(p, q) and gcd(p, q) == 1,  # (2, 2r) is toriceven
              lambda p, q: Presentation(["a", "b"], [_A**p * _B**-q])),
    "toriceven": (_ints, lambda r: _int(r) and r >= 1,
                  lambda r: Presentation(["a", "b"], [(_A * _B) ** r * (_B * _A) ** -r])),
    "gpoly": (lambda text: (_ints(text),), _monic, lambda coeffs: _gpolymod(None, coeffs)),
    "gpolymod": (_read_gpolymod, lambda p, coeffs: _int(p) and p >= 2 and _monic(coeffs),
                 _gpolymod),
    "gr": (_ints, lambda p, q, r: _int(p, q, r),
           lambda p, q, r: Presentation(["a", "b", "c"], [
               _A**p * _B**-q, _B**q * _C**-r, _C**r * ~(_A * _B * _C)])),
    "triangle": (_ints, lambda p, q, r: _int(p, q, r),
                 lambda p, q, r: Presentation(["a", "b"], [_A**p, _B**q, (_A * _B) ** r])),
    "surface": (_ints, lambda g: _int(g) and g >= 1, lambda g: Presentation(*_surface_data(g))),
    "surfext": (_ints, lambda g, p: _int(g, p) and g >= 0, _surfext),
    "product": (_no_text, lambda left, right: all(isinstance(t, GroupTag) for t in (left, right)),
                lambda left, right: direct_product(build(left), build(right))),
    "quintic": (lambda text: (_QUINTIC_ALIASES.get(text, text),), lambda case: case in _QUINTIC_DSL,
                quintic_presentation),
}


class GroupTag:
    """variant plus parameters, immutable like ``Word``; see ``_VARIANTS``
    for the presentation each variant builds."""

    __slots__ = ("variant", "params")

    def __init__(self, variant: str, *params):
        try:
            ok = _VARIANTS[variant][1](*params)
        except (LookupError, TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"no {variant!r} tag has the parameters {params!r}")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "params", params)

    def __setattr__(self, name, value):
        raise AttributeError("GroupTag is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupTag)
            and self.variant == other.variant
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash((self.variant, self.params))

    def __repr__(self) -> str:
        return f"GroupTag({', '.join(map(repr, (self.variant, *self.params)))})"

    def to_json(self):
        return {
            "variant": self.variant,
            "params": [x.to_json() if isinstance(x, GroupTag) else x for x in self.params],
        }


def build(tag: GroupTag) -> Presentation:
    """The standard presentation for a tag."""
    return _VARIANTS[tag.variant][2](*tag.params)


# ---------------------------------------------------------------------------
# compact text syntax


def parse_tag(text: str) -> GroupTag:
    """Parse the compact tag syntax; ``*`` builds direct products (left
    associative) and parentheses group.  Any text that is not a tag, nested
    however deep, raises ``bad tag syntax``."""
    try:
        return _parse(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"bad tag syntax {text!r}") from exc


def _parse(text: str) -> GroupTag:
    parts = _split_products(text)
    tag = _parse_simple(parts[0])
    for part in parts[1:]:
        tag = GroupTag("product", tag, _parse_simple(part))
    return tag


def _split_products(text: str) -> List[str]:
    parts = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return [p.strip() for p in parts]


def _parse_simple(text: str) -> GroupTag:
    if text.startswith("(") and text.endswith(")"):
        return _parse(text[1:-1])
    name, colon, arg = text.partition(":")
    name = name.strip().lower()
    if name not in _VARIANTS:
        raise ValueError(f"unknown variant {name!r}")
    # no colon, no parameters
    params = _VARIANTS[name][0](arg.strip()) if colon else ()
    return GroupTag(name, *params)
