"""The earlier ``build`` and ``format_tag`` of ``curvepi.catalog``, kept
verbatim (but for the imports) as the oracle for its variant table: one
branch per variant, where the table now holds each variant's builder and
writer."""

from curvepi.catalog import (
    GroupTag,
    _artin,
    _commutator,
    _gen_names,
    _surface_data,
    direct_product,
    quintic_presentation,
)
from curvepi.dsl import parse_presentation
from curvepi.presentations import Presentation
from curvepi.words import Word


def build(tag: GroupTag) -> Presentation:
    """The standard presentation for a tag."""
    v, params = tag.variant, tag.params

    if v == "free":
        (n,) = params
        return Presentation(_gen_names(n))

    if v == "braid":
        # the complete graph on n - 1 vertices, the path labelled 3, the rest 2
        (n,) = params
        edges = [(a, b, 3 if b == a + 1 else 2) for a in range(n - 1) for b in range(a + 1, n - 1)]
        return _artin(n - 1, edges)

    if v == "spherebraid3":
        return parse_presentation("<s1, s2 | s1 s2 s1 = s2 s1 s2, s1 s2^2 s1>")

    if v in ("artin", "coxeter"):
        # labels of the edges (a,b), (b,c) and (a,c)
        m, n, p = params
        return _artin(3, [(0, 1, m), (0, 2, p), (1, 2, n)], v == "coxeter")

    if v == "raag":
        n, edges = params
        gens = [Word.gen(i) for i in range(n)]
        return Presentation(_gen_names(n), [_commutator(gens[i], gens[j]) for i, j in edges])

    if v == "toric":
        p, q = params
        a, b = Word.gen(0), Word.gen(1)
        return Presentation(["a", "b"], [a**p * b**-q])

    if v == "toriceven":
        (r,) = params
        a, b = Word.gen(0), Word.gen(1)
        return Presentation(["a", "b"], [(a * b) ** r * ~((b * a) ** r)])

    if v == "gpoly" or v == "gpolymod":
        p, coeffs = params if v == "gpolymod" else (None, params[0])
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

    # the one variant left, quintic
    (case,) = params
    return quintic_presentation(case)


def format_tag(tag: GroupTag) -> str:
    v, params = tag.variant, tag.params
    if v == "product":
        left, right = (format_tag(t) for t in params)
        if params[1].variant == "product":
            right = f"({right})"
        return f"{left}*{right}"
    if v == "spherebraid3":
        return v
    if v == "raag":
        n, edges = params
        return f"raag:{n};" + ",".join(f"{i}-{j}" for i, j in edges)
    if v == "gpoly":
        return "gpoly:" + ",".join(map(str, params[0]))
    if v == "gpolymod":
        return f"gpolymod:{params[0]};" + ",".join(map(str, params[1]))
    return v + ":" + ",".join(map(str, params))
