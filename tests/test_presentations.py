import random

import pytest
from hypothesis import given, settings, strategies as st

from curvepi import (
    Presentation,
    SubstitutionMap,
    format_presentation,
    format_word,
    parse_presentation,
    parse_word,
    substitute,
)
from curvepi.catalog import _VARIANTS, build, parse_tag, quintic_cases
from curvepi.coset_table import todd_coxeter
from curvepi.presentations import compose
from curvepi.schreier import simplify, subgroup_presentation
from curvepi.words import Word
import presentation_oracles
from map_helpers import identity_map
from schreier_oracle import OracleRewriter
from word_oracles import substitute_by_products


def test_relators_cyclically_reduced():
    # a conjugated relator loses its conjugator on ingestion
    p = Presentation(["a", "b"], [Word([1, 2, 2, -1])])
    assert p.relators[0].letters == (2, 2)
    kept = Word([1, 2, -1, -2])
    p = Presentation(["a", "b", "c"], [Word([3, 1, 2, -3]), kept, Word([-2, -3, 1, 1, 3, 2])])
    assert [w.letters for w in p.relators] == [(1, 2), (1, 2, -1, -2), (1, 1)]
    assert p.relators[1] is kept  # nothing to strip, so the word itself


def test_undeclared_generator_rejected():
    with pytest.raises(ValueError):
        Presentation(["a"], [Word([2])])


@pytest.mark.parametrize("letter", [3, -3])
def test_undeclared_generator_message(letter):
    # letter n+1 or its inverse, for n = 2 declared generators
    with pytest.raises(ValueError) as info:
        Presentation(["a", "b"], [Word([1, 2]), Word([1, letter])])
    assert str(info.value) == f"relator Word([1, {letter}]) uses an undeclared generator"


def test_relator_without_generators_rejected():
    assert Presentation([], [Word()]).relators == ()
    for letter in (1, -1):
        with pytest.raises(ValueError, match="uses an undeclared generator"):
            Presentation([], [Word([letter])])


def test_relator_must_be_a_word():
    with pytest.raises(TypeError, match="relators must be Word values"):
        Presentation(["a"], [(1, 1)])


def test_relators_that_reduce_to_nothing_are_dropped():
    p = Presentation(["a", "b"], [Word([1, 2, -2, -1]), Word(), Word([2, 2])])
    assert [w.letters for w in p.relators] == [(2, 2)]


# the constructor against its earlier per-relator checks

# names are drawn with repetition, so that some lists declare one twice
_VALID_NAMES = ["a", "b", "c", "g10", "x_1", "y'"]
# names the DSL cannot read, and a non-string
_INVALID_NAMES = ["1", "x y", "", 7]


class _SubWord(Word):
    """A Word subclass, which the constructor accepts as ``isinstance`` does."""

    __slots__ = ()


@st.composite
def relator_items(draw, n):
    """A Word over the first ``n`` generators, perhaps conjugated, empty,
    holding a letter ±(n+1) at some position, of a Word subclass, or not a
    Word at all."""
    letters = st.builds(lambda g, sign: g * sign, st.integers(1, max(n, 1)), st.sampled_from([1, -1]))
    size = 8 if n else 0
    core = draw(st.lists(letters, max_size=size))
    kind = draw(st.sampled_from(["word"] * 6 + ["conjugated", "undeclared", "empty", "subclass", "other"]))
    if kind == "conjugated":
        by = draw(st.lists(letters, max_size=min(size, 3)))
        core = by + core + [-x for x in reversed(by)]
    elif kind == "undeclared":
        core.insert(draw(st.integers(0, len(core))), draw(st.sampled_from([n + 1, -n - 1])))
    elif kind == "empty":
        core = []
    elif kind == "subclass":
        return _SubWord(core)
    elif kind == "other":
        return draw(st.sampled_from([(1,), None, "a", [1, 2]]))
    return Word(core)


def _parts_or_error(build, generators, relators):
    try:
        return build(generators, relators)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _parts(generators, relators):
    p = Presentation(generators, relators)
    return p.generators, p.relators


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_constructor_matches_the_per_relator_oracle(data):
    valid = data.draw(st.booleans())
    pool = _VALID_NAMES if valid else _VALID_NAMES + _INVALID_NAMES
    names = data.draw(st.lists(st.sampled_from(pool), max_size=5))
    if valid:
        names = list(dict.fromkeys(names))  # so that the relators are checked
    rels = data.draw(st.lists(relator_items(len(names)), max_size=6))
    one_shot = data.draw(st.booleans())
    args = [(names, iter(rels) if one_shot else rels) for _ in range(2)]
    got = _parts_or_error(_parts, *args[0])
    expected = _parts_or_error(presentation_oracles.presentation_parts, *args[1])
    assert got == expected
    if isinstance(expected[0], tuple):
        # a relator kept as it was is the caller's Word itself
        given_ids = {id(w) for w in rels}
        kept = [id(b) in given_ids for b in expected[1]]
        assert [a is b for a, b in zip(got[1], expected[1])] == kept


def test_constructor_matches_the_oracle_on_a_large_schreier_presentation():
    # E6 over <a,b,c,d>: index 432, 2161 generators and 9072 relators, so
    # the per-relator check runs on 9072 relators
    p = parse_presentation(
        "<a,b,c,d,e,f | a^2,b^2,c^2,d^2,e^2,f^2, (ab)^3,(bc)^3,(cd)^3,(de)^3,(cf)^3, "
        "(ac)^2,(ad)^2,(ae)^2,(af)^2,(bd)^2,(be)^2,(bf)^2,(ce)^2,(df)^2,(ef)^2>"
    )
    t = todd_coxeter(p, [parse_word(p, x) for x in "abcd"])
    rw = OracleRewriter(p, t)
    words = [Word(rw._walk(c, r.letters)[1]) for c in range(t.n) for r in p.relators]
    got = Presentation(rw.names, words)
    assert (got.generators, got.relators) == presentation_oracles.presentation_parts(rw.names, words)
    assert len(got.relators) == len(words) == 9072
    assert all(a is b for a, b in zip(got.relators, words))
    assert subgroup_presentation(p, t) == got
    # one undeclared letter in the last relator: the same error as the oracle
    words[-1] = Word(words[-1].letters + (len(rw.names) + 1,))
    expected = _parts_or_error(presentation_oracles.presentation_parts, rw.names, words)
    assert expected[0] is ValueError
    assert _parts_or_error(_parts, rw.names, words) == expected


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Presentation(["a", "a"])


def test_names_the_dsl_cannot_read_are_rejected():
    # printed, these would give "< x y, 1 | x y^2 >", which does not parse
    with pytest.raises(ValueError, match="generator name 'x y' is not an identifier"):
        Presentation.from_json({"generators": ["x y", "1"], "relators": [[["x y", 2]]]})
    for name in ("1", "_a", "a-b", "é", "a\n", "", 1, None):
        with pytest.raises(ValueError, match="is not an identifier"):
            Presentation(["a", name])
    assert Presentation(["a", "b_1", "c'", "Z9"]).generators == ("a", "b_1", "c'", "Z9")


# one tag per variant, with generator names from every naming scheme
_TAGS = (
    "free:3", "free:30", "braid:4", "spherebraid3", "artin:3,3,3", "coxeter:2,3,3",
    "raag:4;0-1,1-2", "toric:3,4", "toriceven:2", "gpoly:-1,0,1", "gpolymod:3;1,1",
    "gr:2,3,5", "triangle:2,3,7", "surface:2", "surfext:2,2", "free:2*free:2",
    "free:1*braid:3",
) + tuple(f"quintic:{case}" for case in quintic_cases())


def test_every_printed_presentation_parses_back():
    assert {parse_tag(t).variant for t in _TAGS} == frozenset(_VARIANTS)
    for tag in _TAGS:
        p = build(parse_tag(tag))
        assert parse_presentation(format_presentation(p)) == p, tag
    # Schreier generators are named s<coset>_<generator>
    p = parse_presentation("<a,b | a^2, b^3, (ab)^5>")
    raw = subgroup_presentation(p, todd_coxeter(p, [parse_word(p, "b")]))
    for sp in (raw, simplify(raw)):
        assert sp.n_gens > 0
        assert parse_presentation(format_presentation(sp)) == sp


def test_substitute_examples():
    # c -> b^-1 x b turns b c b into x b^2
    pi = parse_presentation("<a,b,c | bcb = cbc>")
    art = parse_presentation("<a,b,x | bxb = xbx>")
    m = SubstitutionMap(
        pi, art, [parse_word(art, "a"), parse_word(art, "b"), parse_word(art, "b^-1 x b")]
    )
    image = substitute(m, parse_word(pi, "b c b"))
    assert image == parse_word(art, "x b^2")

    # a -> u v^2, b -> u sends ab to u v^2 u
    src = parse_presentation("<a,b |>")
    dst = parse_presentation("<u,v |>")
    m2 = SubstitutionMap(src, dst, [parse_word(dst, "u v^2"), parse_word(dst, "u")])
    assert substitute(m2, parse_word(src, "a b")) == parse_word(dst, "u v^2 u")


def test_identity_substitution():
    p = parse_presentation("<a,b | aba=bab>")
    m = identity_map(p)
    rng = random.Random(0)
    for _ in range(50):
        w = Word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 10))])
        assert substitute(m, w) == w


def test_substitute_distributes_over_concatenation():
    src = parse_presentation("<a,b |>")
    dst = parse_presentation("<u,v |>")
    rng = random.Random(1)
    m = SubstitutionMap(
        src, dst, [parse_word(dst, "u v^-1"), parse_word(dst, "v u v")]
    )
    for _ in range(200):
        u = Word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8))])
        v = Word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8))])
        assert substitute(m, u * v) == substitute(m, u) * substitute(m, v)


def test_substitute_matches_the_product_of_images():
    # few generators and short images, so that images cancel deeply
    rng = random.Random(18)

    def word(n_gens, longest):
        length = rng.randint(0, longest)
        return Word([rng.choice([-1, 1]) * rng.randint(1, n_gens) for _ in range(length)])

    for _ in range(300):
        src = Presentation([f"a{i}" for i in range(rng.randint(1, 3))])
        dst = Presentation([f"b{i}" for i in range(rng.randint(1, 3))])
        m = SubstitutionMap(src, dst, [word(dst.n_gens, 6) for _ in range(src.n_gens)])
        for _ in range(10):
            w = word(src.n_gens, 12)
            assert substitute(m, w) == substitute_by_products(m, w)


def test_compose():
    a = parse_presentation("<a |>")
    b = parse_presentation("<b |>")
    c = parse_presentation("<c |>")
    f = SubstitutionMap(a, b, [parse_word(b, "b^2")])
    g = SubstitutionMap(b, c, [parse_word(c, "c^-1")])
    gf = compose(g, f)
    assert substitute(gf, parse_word(a, "a")) == parse_word(c, "c^-2")


def test_image_validation():
    src = parse_presentation("<a |>")
    dst = parse_presentation("<u |>")
    with pytest.raises(ValueError):
        SubstitutionMap(src, dst, [Word([2])])
    with pytest.raises(ValueError):
        SubstitutionMap(src, dst, [])


# the atom-table writer against the run-by-run one it replaced

# single letters and multi-character names, such as Schreier generators
_WRITER_NAMES = ["a", "b", "c", "s12_a", "s0_b", "s431_f", "x'", "Z9"]


@st.composite
def printable_presentations(draw):
    """Relators as runs of letters and of inverse letters, single letters,
    free words (mostly without equal neighbours) and words whose first and
    last letters are equal."""
    names = draw(st.lists(st.sampled_from(_WRITER_NAMES), min_size=1, max_size=6, unique=True))
    letter = st.sampled_from([s * g for g in range(1, len(names) + 1) for s in (1, -1)])
    rels = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["single", "free", "runs", "ends equal"]))
        if kind == "single":
            letters = [draw(letter)]
        elif kind == "free":
            letters = draw(st.lists(letter, min_size=1, max_size=12))
        else:
            runs = draw(st.lists(st.tuples(letter, st.integers(1, 4)), min_size=1, max_size=6))
            letters = [x for x, k in runs for _ in range(k)]
            if kind == "ends equal":
                letters.append(letters[0])
        rels.append(Word(letters))
    return Presentation(names, rels)


@settings(max_examples=500, deadline=None)
@given(printable_presentations())
def test_format_presentation_matches_the_run_by_run_writer(p):
    assert format_presentation(p) == presentation_oracles.format_presentation(p)


def test_format_word_collapses_powers():
    p = parse_presentation("<a,b |>")
    w = parse_word(p, "a a a b^-1 b^-1")
    assert format_word(p, w) == "a^3 b^-2"
