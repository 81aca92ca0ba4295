import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import dsl_oracle
from curvepi import ParseError, Presentation, format_presentation, parse_presentation, parse_word
from curvepi.words import MAX_LETTERS, Word


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


def test_second_exponent_is_an_error_after_a_split_run_too():
    # "ab^2^3" used to parse as (a b^2)^3, while "a^2^3" was an error
    for parse in (parse_presentation, dsl_oracle.parse_presentation):
        for text, column in (("<a,b | ab^2^3>", 12), ("<a,b | a^2^3>", 11)):
            message = rf"expected >/⟩, found '\^' \(line 1, column {column}\)"
            with pytest.raises(ParseError, match=message):
                parse(text)
    for parse in (parse_word, dsl_oracle.parse_word):
        with pytest.raises(ParseError, match="trailing input after word"):
            parse(parse_presentation("<a,b |>"), "ab^2^3")


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


# 2^62 letters are more than a list holds (MAX_LETTERS) but fewer than
# sys.maxsize; 2^63 = sys.maxsize + 1 on 64-bit builds.  Every case fails
# before allocating.
BIG = (2**62, sys.maxsize + 1)
TOO_LONG = f"power makes a word longer than {MAX_LETTERS} letters"


def test_a_power_longer_than_maxsize_is_a_parse_error():
    for big in BIG:
        cases = [
            (f"<a | a^{big}>", 1, 8),
            (f"<a | a^-{big}>", 1, 8),
            # two letters times half the count overflow too
            (f"<a,b | (ab)^{big // 2}>", 1, 13),
            # the exponent binds to the last letter of a split run
            (f"<a,b | ab^ {big}>", 1, 12),
            # a base that cancels takes no larger count either
            (f"<a,b |\n (a a^-1)^{big}>", 2, 11),
        ]
        for text, line, column in cases:
            for parse in (parse_presentation, dsl_oracle.parse_presentation):
                with pytest.raises(ParseError) as info:
                    parse(text)
                assert str(info.value) == f"{TOO_LONG} (line {line}, column {column})", text
        for parse in (parse_word, dsl_oracle.parse_word):
            with pytest.raises(ParseError) as info:
                parse(parse_presentation("<a,b |>"), f"b a^{big}")
            assert str(info.value) == f"{TOO_LONG} (line 1, column 5)"


def test_json_exponent_beyond_maxsize_is_rejected():
    for big in BIG:
        doc = {"generators": ["a", "b"], "relators": [[["b", 1], ["a", -big]]]}
        with pytest.raises(ValueError) as info:
            Presentation.from_json(doc)
        assert str(info.value) == TOO_LONG


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


# ---------------------------------------------------------------------------
# the token parser against the character-scanning oracle

# "a" and "ab" are prefixes of "ab" and "abc"; "x" is never declared
NAMES = ["a", "ab", "b", "abc", "c", "x1", "a'", "b_2", "x"]
SPACES = ["", "", " ", "  ", "\n", "\t", "\r\n"]
EXPONENTS = 3 * [
    "2", "-1", "+3", "-2", "10",
    "\u0663", "-\u0663",  # Arabic-Indic three, a digit int() reads
] + [
    "0", "-0", "+0",
    "\u00b2",  # superscript two, which int() does not read
    "-", "+", "+-1", "- 2", "x", "", "2^3", "1_0", "2a",
]
NOISE = [
    "\x0b", "\u00e9", "\u00b2", "\u0663", "=", "^", "(", ")", ",", "|", "<", ">",
    "\u27e8", "\u27e9", "-", "+", "0", "a", "ab", " ", "\n", "_", "'", "1", ", a", "^0",
]


def random_word_text(rng, names, depth=0):
    atoms = []
    for _ in range(rng.randint(1, 3)):
        if depth < 2 and rng.randint(0, 3) == 3:
            atom = "(" + rng.choice(SPACES) + random_word_text(rng, names, depth + 1) + rng.choice(SPACES) + ")"
        else:
            atom = "".join(rng.choice(names) for _ in range(rng.randint(1, 3)))
        if rng.randint(0, 1):
            atom += rng.choice(SPACES) + "^" + rng.choice(SPACES) + rng.choice(EXPONENTS)
        atoms.append(atom)
    text = atoms[0]
    for atom in atoms[1:]:
        text += rng.choice(SPACES) + atom
    if rng.randint(0, 2) == 2:
        text += rng.choice(SPACES) + "=" + rng.choice(SPACES) + random_word_text(rng, names, depth + 1)
    return text


def mutate(rng, text):
    """Insert stray fragments or cut pieces out, perhaps several times."""
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
        i = rng.randint(0, len(text))
        if rng.randint(0, 4) < 3:
            text = text[:i] + rng.choice(NOISE) + text[i:]
        else:
            text = text[:i] + text[i + rng.randint(1, 3):]
    return text


def random_dsl(rng):
    gens = []
    for _ in range(rng.randint(0, 4)):
        gens.append(rng.choice([g for g in NAMES[:8] if g not in gens]))
    # mostly declared names, sometimes an undeclared one
    names = gens + ["x"] if not gens or rng.randint(0, 4) == 4 else gens
    relators = [random_word_text(rng, names) for _ in range(rng.randint(0, 3))]

    def sep():
        return rng.choice(SPACES)

    text = rng.choice(["<", "\u27e8"]) + sep()
    text += (sep() + "," + sep()).join(gens) + sep() + "|" + sep()
    text += (sep() + "," + sep()).join(relators) + sep() + rng.choice([">", "\u27e9"])
    text += rng.choice(["", "", "", " ", "\n", " a", ">", "\u00e9", ", b"])
    return mutate(rng, text)


class Draws:
    """The ``choice`` and ``randint`` of random.Random, drawn by hypothesis
    so that a failing text shrinks."""

    def __init__(self, data):
        self.draw = data.draw

    def choice(self, seq):
        return self.draw(st.sampled_from(seq))

    def randint(self, a, b):
        return self.draw(st.integers(a, b))


def outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as err:
        return (str(err), err.line, err.col)


WORD_OVER = Presentation(NAMES[:8])


def assert_parsers_agree(rng):
    text = random_dsl(rng)
    parsed = outcome(parse_presentation, text)
    assert parsed == outcome(dsl_oracle.parse_presentation, text), text
    word = mutate(rng, random_word_text(rng, NAMES))
    word_parsed = outcome(parse_word, WORD_OVER, word)
    assert word_parsed == outcome(dsl_oracle.parse_word, WORD_OVER, word), word
    return parsed, word_parsed


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_token_parser_matches_the_scanner_oracle(data):
    assert_parsers_agree(Draws(data))


def test_token_parser_matches_the_scanner_oracle_on_seeded_corpus():
    # the corpus reaches every outcome of both entry points
    rng = random.Random(2026)
    messages = []
    for _ in range(4000):
        messages += [r[0] if isinstance(r, tuple) else "parsed" for r in assert_parsers_agree(rng)]
    starts = [
        "parsed", "expected </\u27e8, found", "expected an identifier", "declared twice",
        "expected |, found", "undeclared generator", "expected an integer",
        "zero exponent is not allowed", "expected ), found", "expected >/\u27e9, found",
        "found end of input", "trailing input after presentation", "trailing input after word",
    ]
    counts = {key: sum(key in m for m in messages) for key in starts}
    assert min(counts.values()) >= 10, counts


def test_a_first_group_that_reduces_to_nothing_is_still_an_atom():
    # the word before "=" has one atom and no letters
    text = "<a,b | (b b^-1) = b>"
    p = parse_presentation(text)
    assert format_presentation(p) == "< a, b | b^-1 >"
    assert p == dsl_oracle.parse_presentation(text)
    assert parse_word(WORD_OVER, "(b b^-1) a") == dsl_oracle.parse_word(WORD_OVER, "(b b^-1) a")


@pytest.mark.parametrize("exponent", ["^-1", "^ -1", "^-01", "^+1", "^-", "^-1^2"])
@pytest.mark.parametrize("atom", ["b", "ab"])
def test_exponent_spellings_match_the_oracle(atom, exponent):
    # "b" is a declared name, read inline; "ab" a juxtaposed run, split
    for text in (f"<a,b | {atom}{exponent}>", f"<a,b | a {atom}{exponent} a, b>"):
        got = outcome(parse_presentation, text)
        assert got == outcome(dsl_oracle.parse_presentation, text), text
    word = f"{atom}{exponent} b"
    assert outcome(parse_word, WORD_OVER, word) == outcome(dsl_oracle.parse_word, WORD_OVER, word)


def test_exponent_spellings_examples():
    p = parse_presentation("<a,b | b^-01 a^+1, a b ^ -1>")
    assert format_presentation(p) == "< a, b | b^-1 a, a b^-1 >"
    # the digits are missing after the sign, at the closing bracket
    for text, column in (("<a,b | b^->", 11), ("<a,b | ab^->", 12)):
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert str(err.value) == f"expected an integer (line 1, column {column})"
        assert err.value.col == column
    with pytest.raises(ParseError) as err:
        parse_presentation("<a,b | b^-1^2>")
    assert str(err.value) == "expected >/\u27e9, found '^' (line 1, column 12)"


def test_juxtaposed_runs_cost_does_not_grow_with_the_generator_count():
    # a run that is not a declared name is split by dict lookups of its
    # prefixes, not by a scan of every declared name, so 200 runs under
    # 10,801 generators add little to parsing the header alone
    names = [f"g{i}" for i in range(10801)]
    header = "<" + ",".join(names) + " | "
    runs = ", ".join(f"g{2 * i}g{2 * i + 1}" for i in range(200))

    def best_time(text):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            p = parse_presentation(text)
            times.append(time.perf_counter() - start)
        return min(times), p

    bare, _ = best_time(header + ">")
    split, p = best_time(header + runs + ">")
    assert p.relators[199].letters == (399, 400)
    assert split < 3 * bare
