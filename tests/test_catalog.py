import os
import re
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import catalog_oracle
from curvepi import format_presentation, parse_presentation, parse_word
from curvepi.abelian import InvariantFactors, abelian_invariants
from curvepi.catalog import (
    _VARIANTS,
    GroupTag,
    build,
    direct_product,
    parse_tag,
    quintic_cases,
    quintic_presentation,
)
from curvepi.coset_table import todd_coxeter
from curvepi.schreier import simplify, subgroup_presentation


README = os.path.join(os.path.dirname(__file__), "..", "README.md")

# one text per variant, and a product on the right, as catalog_oracle.format_tag
# prints them
_ROUND_TRIP = (
    "free:3", "braid:4", "spherebraid3", "artin:3,3,3", "coxeter:2,3,3",
    "toric:3,4", "toriceven:2", "gpoly:-1,0,1", "gpolymod:3;1,1",
    "gr:2,3,5", "triangle:2,3,7", "surface:3", "surfext:3,2",
    "quintic:C5_3A4", "free:1*braid:3", "raag:4;0-1,1-2", "free:3*(free:1*free:2)",
)


def built(text):
    return build(parse_tag(text))


def test_toric_example():
    assert format_presentation(built("toric:3,4")) == "< a, b | a^3 b^-4 >"
    with pytest.raises(ValueError):
        built("toric:2,4")  # not coprime; that family is toriceven


def test_braid_presentations():
    assert built("braid:3") == parse_presentation("<a,b | aba=bab>")
    b4 = built("braid:4")
    assert b4 == parse_presentation(
        "<a,b,c | aba=bab, a c a^-1 c^-1, bcb=cbc>"
    )


def test_artin_tag_examples():
    # artin:m,n,p labels the edges (a,b) = m, (b,c) = n, (a,c) = p
    assert built("artin:3,3,3") == parse_presentation(
        "<a,b,c | aba=bab, aca=cac, bcb=cbc>"
    )
    assert built("artin:2,2,2") == parse_presentation(
        "<a,b,c | a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1>"
    )
    assert built("artin:2,3,4") == parse_presentation(
        "<a,b,c | a b a^-1 b^-1, (ac)^2 = (ca)^2, bcb=cbc>"
    )
    # labels (2,4,4) match the conic-plus-lines presentation up to relabeling
    a244 = built("artin:2,4,4")
    assert abelian_invariants(a244) == abelian_invariants(built("quintic:C2_3C1_B"))
    with pytest.raises(ValueError):
        built("artin:1,3,3")


def test_coxeter_adds_involutions():
    cox = built("coxeter:2,3,3")
    assert parse_word(cox, "a^2") in cox.relators
    t = todd_coxeter(cox)
    assert t.n == 24


def test_orders_of_small_catalog_groups():
    assert todd_coxeter(built("spherebraid3")).n == 12
    assert todd_coxeter(built("triangle:2,3,3")).n == 12


def test_surface_presentations():
    s = built("surface:2")
    assert s.generators == ("A1", "A2", "B1", "B2")
    assert len(s.relators) == 1 and len(s.relators[0].letters) == 8
    for g in (1, 2, 3):
        assert abelian_invariants(built(f"surface:{g}")).display() in ("Z^2", "Z^4", "Z^6")


def test_surface_central_extension_relators():
    p = built("surfext:2,3")
    # product of commutators equals t^3; t commutes with everything
    assert p.generators[-1] == "t"
    assert len(p.relators) == 1 + 4
    assert abelian_invariants(p).display() == "Z^4 + Z/3"


def test_gpoly_companion_action():
    p = built("gpoly:-1,0,0,1")  # t^3 - 1
    assert p.generators == ("a0", "a1", "a2", "t")
    # t a2 t^-1 = a0 (multiplication by t wraps around for t^3 = 1)
    assert parse_word(p, "t a2 t^-1 a0^-1") in p.relators
    with pytest.raises(ValueError):
        built("gpoly:2,3")  # not monic


def test_gpolymod_torsion_and_index_two_subgroup():
    for mod in (3, 5):
        g = built(f"gpolymod:{mod};1,1")
        assert abelian_invariants(g).display() == "Z"
        sub = [parse_word(g, w) for w in ("a0", "t a0 t^-1", "t^2")]
        t = todd_coxeter(g, sub)
        assert t.n == 2
        inv = abelian_invariants(simplify(subgroup_presentation(g, t)))
        assert inv.display() == f"Z + Z/{mod}"


def test_gr_keeps_central_element():
    gr = built("gr:2,3,5")
    # the product abc is identified with the powers, not killed
    assert len(gr.relators) == 3
    assert abelian_invariants(gr) == InvariantFactors(0)
    # the quotient by a^2 is the order-60 rotation group
    from curvepi.presentations import Presentation

    q = Presentation(gr.generators, list(gr.relators) + [parse_word(gr, "a^2")])
    assert todd_coxeter(q).n == 60


def test_direct_product_abelianization_is_sum():
    cases = [("free:2", "braid:3"), ("toric:3,4", "free:1"), ("surface:1", "free:2")]
    for left, right in cases:
        a, b = built(left), built(right)
        prod = direct_product(a, b)
        ia, ib, ip = abelian_invariants(a), abelian_invariants(b), abelian_invariants(prod)
        assert ip.free_rank == ia.free_rank + ib.free_rank
        assert sorted(ip.torsion) == sorted(ia.torsion + ib.torsion)


def test_direct_product_renames_collisions():
    p = built("free:2*free:2")
    assert len(set(p.generators)) == 4


def test_quintic_cases_and_aliases():
    assert "C5_3A4" in quintic_cases()
    # an alias is read as its canonical name: one group, one tag, one text
    for alias, name in [("C4_3A2_x2x2", "C4_3A2"), ("C3_A2", "C3_A2_x3_x2x1")]:
        assert parse_tag(f"quintic:{alias}") == parse_tag(f"quintic:{name}")
        assert catalog_oracle.format_tag(parse_tag(f"quintic:{alias}")) == f"quintic:{name}"
        with pytest.raises(ValueError):
            quintic_presentation(alias)
    with pytest.raises(ValueError):
        quintic_presentation("C9_unknown")


def test_tag_round_trip():
    assert {parse_tag(t).variant for t in _ROUND_TRIP} == frozenset(_VARIANTS)
    for text in _ROUND_TRIP:
        tag = parse_tag(text)
        assert parse_tag(catalog_oracle.format_tag(tag)) == tag
        tag.to_json()  # serializable


@st.composite
def tag_texts(draw):
    """Small integers after a variant name, or a valid tag with one to three
    characters deleted, replaced or inserted; no digit is inserted, so every
    number stays small and every tag that parses builds at once."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(_VARIANTS)))
        values = draw(st.lists(st.integers(-2, 12), max_size=4))
        return f"{name}:" + draw(st.sampled_from(",;-")).join(map(str, values))
    chars = list(draw(st.sampled_from(_ROUND_TRIP)))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(chars) - 1))
        edit = draw(st.sampled_from(("delete", "replace", "insert")))
        if edit == "delete":
            del chars[k]
        elif edit == "replace":
            chars[k] = draw(st.sampled_from("0123456789,;-:*() ax"))
        else:
            chars.insert(k, draw(st.sampled_from(",;-:*() ax")))
    return "".join(chars)


@settings(max_examples=300, deadline=None)
@given(tag_texts())
def test_every_parsed_tag_builds_and_round_trips(text):
    try:
        tag = parse_tag(text)
    except ValueError:
        return
    build(tag)
    assert parse_tag(catalog_oracle.format_tag(tag)) == tag


_LABEL = st.integers(2, 5)
_MONIC = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(lambda c: tuple(c) + (1,))


def _raag_params(n):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    return st.tuples(st.just(n), edges.map(lambda e: tuple(sorted(e))))


# variant -> small valid parameters; product is drawn from two smaller tags
_PARAMS = {
    "free": st.tuples(st.integers(1, 4)),
    "braid": st.tuples(st.integers(2, 5)),
    "spherebraid3": st.just(()),
    "artin": st.tuples(_LABEL, _LABEL, _LABEL),
    "coxeter": st.tuples(_LABEL, _LABEL, _LABEL),
    "raag": st.integers(0, 4).flatmap(_raag_params),
    "toric": st.tuples(st.integers(-5, 7), st.integers(-5, 7)).filter(lambda pq: gcd(*pq) == 1),
    "toriceven": st.tuples(st.integers(1, 4)),
    "gpoly": st.tuples(_MONIC),
    "gpolymod": st.tuples(st.integers(2, 5), _MONIC),
    "gr": st.tuples(st.integers(-3, 5), st.integers(-3, 5), st.integers(-3, 5)),
    "triangle": st.tuples(st.integers(-3, 5), st.integers(-3, 5), st.integers(-3, 5)),
    "surface": st.tuples(st.integers(1, 3)),
    "surfext": st.tuples(st.integers(0, 3), st.integers(-3, 3)),
    "quintic": st.tuples(st.sampled_from(quintic_cases())),
}


def _tags(depth=2):
    simple = st.sampled_from(sorted(_PARAMS)).flatmap(
        lambda v: _PARAMS[v].map(lambda params: GroupTag(v, *params))
    )
    if not depth:
        return simple
    inner = _tags(depth - 1)
    return st.one_of(simple, st.builds(lambda a, b: GroupTag("product", a, b), inner, inner))


def test_the_differential_strategy_draws_every_variant():
    assert set(_PARAMS) | {"product"} == frozenset(_VARIANTS)


@settings(max_examples=300, deadline=None)
@given(_tags())
def test_table_builds_and_writes_as_the_branch_chain_did(tag):
    presentation = build(tag)
    assert presentation == catalog_oracle.build(tag)
    assert format_presentation(presentation) == format_presentation(catalog_oracle.build(tag))
    assert parse_tag(catalog_oracle.format_tag(tag)) == tag
    assert eval(repr(tag), {"GroupTag": GroupTag}) == tag


def test_repr_is_a_constructor_call():
    assert repr(parse_tag("toric:3,4")) == "GroupTag('toric', 3, 4)"
    assert repr(parse_tag("spherebraid3*raag:3;1-0")) == (
        "GroupTag('product', GroupTag('spherebraid3'), GroupTag('raag', 3, ((0, 1),)))"
    )


def test_tags_are_immutable():
    # a tag hashes by its variant and parameters, so changing either would
    # lose it in every set and dict that holds it
    tag = parse_tag("toric:3,4")
    held = {tag}
    for name, value in (("variant", "toriceven"), ("params", (2, 5))):
        with pytest.raises(AttributeError):
            setattr(tag, name, value)
    assert tag.variant == "toric" and tag.params == (3, 4)
    assert tag in held and parse_tag("toric:3,4") in held
    assert parse_tag("toric:2,5") not in held


def test_artin_digit_shorthand():
    assert parse_tag("artin:333") == parse_tag("artin:3,3,3")


def test_bad_tags_rejected():
    for text in (
        "unknown:1", "free:x", "artin:12", "gr:1", "toric:4", "spherebraid3:5",
        # a loop, a label below 2, and one edge listed twice
        "raag:2;0-0", "artin:1,3,3", "raag:2;0-1,1-0",
        # these used to parse and then fail in build with messages of their own
        "free:0", "braid:1", "toric:2,4", "toriceven:0", "gpoly:2,3",
        "gpolymod:1;1,1", "surface:0", "surfext:-1,2", "quintic:C9_unknown",
    ):
        with pytest.raises(ValueError, match=f"^bad tag syntax {re.escape(repr(text))}$"):
            built(text)


def test_labeled_graph_validation():
    # a loop, an edge listed twice, and a label below 2 are rejected
    for variant, params in (
        ("raag", (2, ((0, 0),))), ("raag", (2, ((0, 1), (0, 1)))), ("artin", (1, 3, 3)),
    ):
        with pytest.raises(ValueError):
            GroupTag(variant, *params)
    # an edge labelled 2 is a commutation, the relator a graph edge gives
    assert built("artin:2,2,2").relators == built("raag:3;0-1,0-2,1-2").relators
    assert built("raag:3;1-2").relators == parse_presentation("<a, b, c | b c = c b>").relators


def test_tags_made_in_code_are_checked():
    assert build(GroupTag("raag", 3, ((1, 2),))) == built("raag:3;1-2")
    for variant, params in (
        ("free", (0,)), ("free", (1, 2)), ("free", ("3",)), ("artin", (1, 3, 3)),
        ("raag", (2, ((1, 0),))), ("raag", (2, ((0, 1), (0, 1)))), ("gpoly", ([1, 1],)),
        ("product", (GroupTag("free", 1),)), ("nonsense", ()),
    ):
        with pytest.raises(ValueError):
            GroupTag(variant, *params)


def test_readme_names_every_tag_variant():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    paragraph = text[text.index("Group tags:"):].split("\n\n")[0]
    named = set(re.findall(r"`([a-z0-9]+)[:`]", paragraph))
    assert named == frozenset(_VARIANTS) - {"product"}
