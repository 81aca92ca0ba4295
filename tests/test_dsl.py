import random
import time

import pytest

from curvepi import ParseError, Presentation, format_presentation, parse_presentation, parse_word
from curvepi.words import Word


def test_toric_example():
    p = parse_presentation("<a,b | a^3 = b^4>")
    assert p.generators == ("a", "b")
    assert [w.letters for w in p.relators] == [(1, 1, 1, -2, -2, -2, -2)]


def test_free_group_no_relators():
    p = parse_presentation("<a | >")
    assert p.generators == ("a",)
    assert p.relators == ()


def test_three_relator_example():
    p = parse_presentation(
        "<a,b,c | aba=bab, bcb=cbc, a b c b^-1 a = b c b^-1 a b c b^-1>"
    )
    assert len(p.generators) == 3
    assert len(p.relators) == 3


def test_unicode_brackets():
    p = parse_presentation("⟨a,b | (ab)^2=(ba)^2⟩")
    assert len(p.relators) == 1


def test_juxtaposition_splitting():
    p = parse_presentation("<a,b | aba = bab>")
    assert p.relators[0].letters == (1, 2, 1, -2, -1, -2)


def test_longest_match_splitting():
    # declared generator names win by longest prefix
    p = parse_presentation("<a, ab | ab a>")
    assert p.relators[0].letters == (2, 1)


def test_exponent_binds_to_last_letter_of_run():
    p = parse_presentation("<a,b | ab^2 a>")
    assert p.relators[0].letters == (1, 2, 2, 1)


def test_parenthesized_powers():
    p = parse_presentation("<a,b | (ab)^-2>")
    assert p.relators[0].letters == (-2, -1, -2, -1)


def test_equality_normalized():
    p = parse_presentation("<a,b | b = a b^4 a>")
    # stored as lhs * rhs^-1, cyclically reduced
    q = parse_presentation("<a,b | b a^-1 b^-4 a^-1>")
    assert p.relators == q.relators


def test_trivial_relator_dropped():
    p = parse_presentation("<a | a = a>")
    assert p.relators == ()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("<a,b | c>", "undeclared"),
        ("<a | a^0>", "zero exponent"),
        ("<a,b a>", "expected |"),
        ("<a,b | a=b=ab>", "expected"),
        ("<a,b | (ab>", "expected"),
        ("<a,, b | a>", "identifier"),
        ("<a | a> junk", "trailing"),
        ("<a,a | >", "twice"),
        ("<, a | >", "identifier"),
        ("< | a>", "undeclared"),
    ],
)
def test_errors_carry_position(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert fragment in str(err.value)
    assert err.value.line >= 1 and err.value.col >= 1


def test_error_line_column_on_multiline():
    with pytest.raises(ParseError) as err:
        parse_presentation("<a,b |\n a q b>")
    assert err.value.line == 2


def random_presentation(rng):
    n = rng.randint(1, 4)
    gens = [f"g{i}" for i in range(n)]
    rels = []
    for _ in range(rng.randint(0, 4)):
        letters = [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 10))]
        rels.append(Word(letters))
    return Presentation(gens, rels)


def test_print_parse_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        p = random_presentation(rng)
        assert parse_presentation(format_presentation(p)) == p


@pytest.mark.parametrize("text", ["<|>", "< | >", "⟨ | ⟩", "<  |  >"])
def test_no_generators(text):
    assert parse_presentation(text) == Presentation([])


def test_print_parse_round_trip_with_no_generators():
    rng = random.Random(12)
    for p in [Presentation([])] + [random_presentation(rng) for _ in range(50)]:
        assert parse_presentation(format_presentation(p)) == p


def test_parse_word_over_presentation():
    p = parse_presentation("<a,b | aba=bab>")
    w = parse_word(p, "a b^-1 (ab)^2")
    assert w.letters == (1, -2, 1, 2, 1, 2)
    with pytest.raises(ParseError):
        parse_word(p, "a c")


def test_json_round_trip():
    p = parse_presentation("<a,b | a^3 = b^4, (ab)^2>")
    doc = p.to_json()
    assert doc["generators"] == ["a", "b"]
    assert Presentation.from_json(doc) == p


def test_json_exponents_keep_their_size():
    # an exponent is a count, not just a sign; exponent 0 adds nothing
    doc = {"generators": ["a", "b"], "relators": [[["a", 3], ["b", 0]], [["b", -2], ["a", 1]]]}
    assert Presentation.from_json(doc) == parse_presentation("<a,b | a^3, b^-2 a>")


def test_json_round_trip_of_many_generators_is_linear():
    # each name in the JSON resolves through one dict, not a list scan
    n = 20000
    p = Presentation([f"g{i}" for i in range(n)], [Word([i + 1, i + 1, -((i + 1) % n + 1)]) for i in range(n)])
    start = time.perf_counter()
    q = Presentation.from_json(p.to_json())
    assert time.perf_counter() - start < 1.0
    assert q == p
    with pytest.raises(KeyError, match="no generator named 'x'"):
        p.gen_index("x")


def test_long_generator_header_parses_in_linear_time():
    # the duplicate check looks each name up in a dict, not in the list
    names = [f"g{i}" for i in range(43201)]
    start = time.perf_counter()
    p = parse_presentation("<" + ",".join(names) + " | g0 g43200^2>")
    assert time.perf_counter() - start < 2.0
    assert p.generators == tuple(names)
    assert p.relators[0].letters == (1, 43201, 43201)


def test_duplicate_generator_error_keeps_its_position():
    with pytest.raises(ParseError) as err:
        parse_presentation("<a,b,a | >")
    assert str(err.value) == "generator 'a' declared twice (line 1, column 7)"


def test_exponent_digits_are_the_ones_int_reads():
    # a superscript two is a digit to str.isdigit but not to int()
    with pytest.raises(ParseError) as err:
        parse_presentation("<a | a^\u00b2>")
    assert str(err.value) == "expected an integer (line 1, column 8)"
    # Arabic-Indic three is a decimal digit, and int() reads it
    assert parse_presentation("<a | a^\u0663>") == parse_presentation("<a | a^3>")
