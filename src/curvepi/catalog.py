"""Constructors for the named groups used by the classifier and the
verification suite, keyed by structured tags.

Tags have a compact text syntax (``toric:3,4``, ``artin:333``,
``quintic:C4_3A2``, products with ``*``) used by the CLI and serializable
to JSON.
"""

from __future__ import annotations

import string
from typing import Dict, List, Optional, Sequence, Tuple

from .dsl import parse_presentation
from .presentations import Presentation
from .words import Word


class LabeledGraph:
    """Simple graph with integer edge labels >= 2 (None encodes an
    unlabeled/infinite edge, which contributes no relator)."""

    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: Sequence[Tuple[int, int, Optional[int]]]):
        if n_vertices < 0:
            raise ValueError(f"negative vertex count {n_vertices}")
        seen = set()
        norm = []
        for v, w, m in edges:
            if not (0 <= v < n_vertices and 0 <= w < n_vertices) or v == w:
                raise ValueError(f"bad edge ({v}, {w})")
            if m is not None and m < 2:
                raise ValueError("edge labels must be >= 2")
            key = (min(v, w), max(v, w))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append((key[0], key[1], m))
        self.n_vertices = n_vertices
        self.edges = tuple(sorted(norm))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledGraph)
            and self.n_vertices == other.n_vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.edges))

    @classmethod
    def triangle(cls, m: int, n: int, p: int) -> "LabeledGraph":
        return cls(3, [(0, 1, m), (1, 2, n), (0, 2, p)])

    @classmethod
    def complete_with_path(cls, n_vertices: int, path_label: int = 3, other_label: int = 2):
        """Complete graph, spanning path labeled ``path_label``, rest
        ``other_label`` (the braid-group graph)."""
        edges = []
        for v in range(n_vertices):
            for w in range(v + 1, n_vertices):
                edges.append((v, w, path_label if w == v + 1 else other_label))
        return cls(n_vertices, edges)


class GroupTag:
    """variant plus parameters; see ``build`` for the presentation each
    variant produces."""

    __slots__ = ("variant", "params")

    VARIANTS = {
        "free",
        "braid",
        "spherebraid3",
        "artin",
        "coxeter",
        "raag",
        "toric",
        "toriceven",
        "gpoly",
        "gpolymod",
        "gr",
        "triangle",
        "surface",
        "surfext",
        "product",
        "quintic",
    }

    def __init__(self, variant: str, *params):
        if variant not in self.VARIANTS:
            raise ValueError(f"unknown group tag variant {variant!r}")
        self.variant = variant
        self.params = tuple(params)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupTag)
            and self.variant == other.variant
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash((self.variant, self.params))

    def __repr__(self) -> str:
        return f"GroupTag({format_tag(self)!r})"

    def to_json(self):
        def enc(x):
            if isinstance(x, GroupTag):
                return x.to_json()
            if isinstance(x, LabeledGraph):
                return {"vertices": x.n_vertices, "edges": [list(e) for e in x.edges]}
            return x

        return {"variant": self.variant, "params": [enc(x) for x in self.params]}


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


def _artin_relators(gens: List[Word], graph: LabeledGraph) -> List[Word]:
    rels = []
    for v, w, m in graph.edges:
        if m is None:
            continue
        rels.append(_alternating(gens[v], gens[w], m) * ~_alternating(gens[w], gens[v], m))
    return rels


def _commutator(a: Word, b: Word) -> Word:
    return a * b * ~a * ~b


def build(tag: GroupTag) -> Presentation:
    """The standard presentation for a tag."""
    v, params = tag.variant, tag.params

    if v == "free":
        (n,) = params
        if n < 1:
            raise ValueError("free rank must be >= 1")
        return Presentation(_gen_names(n))

    if v == "braid":
        (n,) = params
        if n < 2:
            raise ValueError("braid index must be >= 2")
        graph = LabeledGraph.complete_with_path(n - 1)
        names = _gen_names(n - 1)
        gens = [Word.gen(i) for i in range(n - 1)]
        return Presentation(names, _artin_relators(gens, graph))

    if v == "spherebraid3":
        return parse_presentation("<s1, s2 | s1 s2 s1 = s2 s1 s2, s1 s2^2 s1>")

    if v in ("artin", "coxeter"):
        (graph,) = params
        names = _gen_names(graph.n_vertices)
        gens = [Word.gen(i) for i in range(graph.n_vertices)]
        rels = _artin_relators(gens, graph)
        if v == "coxeter":
            rels = [g * g for g in gens] + rels
        return Presentation(names, rels)

    if v == "raag":
        (graph,) = params
        names = _gen_names(graph.n_vertices)
        gens = [Word.gen(i) for i in range(graph.n_vertices)]
        return Presentation(names, [_commutator(gens[a], gens[b]) for a, b, _ in graph.edges])

    if v == "toric":
        p, q = params
        from math import gcd

        if gcd(p, q) != 1:
            raise ValueError("toric:p,q requires gcd(p, q) = 1; use toriceven for (2, 2r)")
        a, b = Word.gen(0), Word.gen(1)
        return Presentation(["a", "b"], [a**p * b**-q])

    if v == "toriceven":
        (r,) = params
        if r < 1:
            raise ValueError("toriceven requires r >= 1")
        a, b = Word.gen(0), Word.gen(1)
        return Presentation(["a", "b"], [(a * b) ** r * ~((b * a) ** r)])

    if v == "gpoly" or v == "gpolymod":
        if v == "gpolymod":
            p, coeffs = params
            if p < 2:
                raise ValueError("modulus must be >= 2")
        else:
            (coeffs,) = params
            p = None
        coeffs = list(coeffs)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError("polynomial must be monic of degree >= 1 (ascending coefficients)")
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

    if v == "gr":
        p, q, r = params
        a, b, c = (Word.gen(i) for i in range(3))
        return Presentation(
            ["a", "b", "c"],
            [a**p * b**-q, b**q * c**-r, c**r * ~(a * b * c)],
        )

    if v == "triangle":
        p, q, r = params
        a, b = Word.gen(0), Word.gen(1)
        return Presentation(["a", "b"], [a**p, b**q, (a * b) ** r])

    if v == "surface":
        (g,) = params
        if g < 1:
            raise ValueError("genus must be >= 1")
        return Presentation(*_surface_data(g))

    if v == "surfext":
        g, p = params
        names, rels_src = _surface_data(g)
        names = names + ["t"]
        t = Word.gen(2 * g)
        surf = rels_src[0]
        rels = [surf * t**-p]
        for i in range(2 * g):
            rels.append(_commutator(Word.gen(i), t))
        return Presentation(names, rels)

    if v == "product":
        left, right = params
        return direct_product(build(left), build(right))

    if v == "quintic":
        (case,) = params
        return quintic_presentation(case)

    raise AssertionError(f"unhandled variant {v}")


def _surface_data(g: int):
    names = [f"A{i+1}" for i in range(g)] + [f"B{i+1}" for i in range(g)]
    rel = Word()
    for i in range(g):
        rel = rel * _commutator(Word.gen(i), Word.gen(g + i))
    return names, [rel]


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

_QUINTIC_ALIASES = {
    "C4_3A2_x2x2": "C4_3A2",
    "C3_A2": "C3_A2_x3_x2x1",
}


def quintic_cases() -> List[str]:
    return sorted(_QUINTIC_DSL)


def quintic_presentation(case: str) -> Presentation:
    case = _QUINTIC_ALIASES.get(case, case)
    try:
        return parse_presentation(_QUINTIC_DSL[case])
    except KeyError:
        raise ValueError(
            f"unknown quintic case {case!r}; known: {', '.join(quintic_cases())}"
        ) from None


# ---------------------------------------------------------------------------
# compact text syntax


def parse_tag(text: str) -> GroupTag:
    """Parse the compact tag syntax; ``*`` builds direct products
    (left associative)."""
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


# tags whose parameters are just comma-separated integers, by their count
_INT_ARITY = {
    "free": 1, "braid": 1, "toric": 2, "toriceven": 1,
    "gr": 3, "triangle": 3, "surface": 1, "surfext": 2,
}


def _parse_simple(text: str) -> GroupTag:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return parse_tag(text[1:-1])
    name, colon, arg = text.partition(":")
    name = name.strip().lower()
    arg = arg.strip()
    try:
        if name in _INT_ARITY:
            values = [int(x) for x in arg.split(",")]
            if len(values) != _INT_ARITY[name]:
                raise ValueError
            return GroupTag(name, *values)
        if name == "spherebraid3":
            if colon:
                raise ValueError
            return GroupTag("spherebraid3")
        if name in ("artin", "coxeter"):
            if "," in arg:
                m, n, p = (int(x) for x in arg.split(","))
            else:
                if len(arg) != 3:
                    raise ValueError
                m, n, p = (int(c) for c in arg)
            return GroupTag(name, LabeledGraph.triangle(m, n, p))
        if name == "raag":
            vtx, _, edges = arg.partition(";")
            edge_list = []
            for e in filter(None, edges.split(",")):
                i, j = e.split("-")
                edge_list.append((int(i), int(j), 2))
            return GroupTag("raag", LabeledGraph(int(vtx), edge_list))
        if name == "gpoly":
            return GroupTag("gpoly", tuple(int(x) for x in arg.split(",")))
        if name == "gpolymod":
            mod, _, coeffs = arg.partition(";")
            return GroupTag("gpolymod", int(mod), tuple(int(x) for x in coeffs.split(",")))
        if name == "quintic":
            return GroupTag("quintic", arg)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad tag syntax {text!r}") from exc
    raise ValueError(f"unknown tag {name!r}")


def format_tag(tag: GroupTag) -> str:
    v, params = tag.variant, tag.params
    if v == "product":
        return f"{format_tag(params[0])}*{format_tag(params[1])}"
    if v == "spherebraid3":
        return v
    if v in ("artin", "coxeter"):
        g: LabeledGraph = params[0]
        labels = {(a, b): m for a, b, m in g.edges}
        if g.n_vertices == 3 and len(labels) == 3:
            m, n, p = labels[(0, 1)], labels[(1, 2)], labels[(0, 2)]
            return f"{v}:{m},{n},{p}"
        return f"{v}:<graph>"
    if v == "raag":
        g = params[0]
        edges = ",".join(f"{a}-{b}" for a, b, _ in g.edges)
        return f"raag:{g.n_vertices};{edges}"
    if v == "gpoly":
        return "gpoly:" + ",".join(str(c) for c in params[0])
    if v == "gpolymod":
        return f"gpolymod:{params[0]};" + ",".join(str(c) for c in params[1])
    return v + ":" + ",".join(str(x) for x in params)
