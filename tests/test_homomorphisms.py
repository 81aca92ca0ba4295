import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import curvepi.homomorphisms as homomorphisms
import curvepi.verify as verify
import reference_homomorphisms
from curvepi import derive, parse_presentation, parse_word
from curvepi.abelian import IntMatrix
from curvepi.derive import MAX_STATES, Inconclusive, derive_relator
from curvepi.homomorphisms import (
    _QUICK_STATES,
    Refuted,
    Verified,
    _abelian_refuter,
    check_homomorphism,
    verify_isomorphism,
)
from curvepi.presentations import Presentation, SubstitutionMap
from curvepi.words import Word
from map_helpers import identity_map
from matrix_oracles import minors_gcd


def words(p, *texts):
    return [parse_word(p, t) for t in texts]


def test_refuted_by_abelianization():
    z3 = parse_presentation("<a | a^3>")
    z2 = parse_presentation("<a | a^2>")
    res = check_homomorphism(SubstitutionMap(z3, z2, words(z2, "a")))
    assert isinstance(res, Refuted)
    assert res.quotient == "abelianization"


def test_refuted_by_finite_quotient():
    # the abelianized image vanishes but the image acts nontrivially in the
    # finite target: a -> aba^-1 b^-1 into the symmetric group presentation
    s3 = parse_presentation("<a,b | a^2, b^2, (ab)^3>")
    src = parse_presentation("<x | x^2>")
    # x -> ab has order 3, so x^2 -> (ab)^2 is nontrivial yet has zero
    # exponent sums modulo the relator lattice
    res = check_homomorphism(SubstitutionMap(src, s3, words(s3, "a b")))
    assert isinstance(res, Refuted)
    assert "finite quotient" in res.quotient


def test_identity_maps_verified():
    for dsl in ("<a,b | aba=bab>", "<a,b | a^2, b^3, (ab)^7>", "<a |>"):
        p = parse_presentation(dsl)
        res = check_homomorphism(identity_map(p))
        assert isinstance(res, Verified)


def test_verified_traces_are_attached():
    p = parse_presentation("<a | a^4>")
    q = parse_presentation("<b | b^2>")
    res = check_homomorphism(SubstitutionMap(p, q, words(q, "b")))
    assert isinstance(res, Verified)
    assert len(res.traces) == 1


def test_inconclusive_on_tiny_budget():
    delta = parse_presentation("<a,b | a^2, b^3, (ab)^7>")
    q = parse_presentation("<u,v | u^3, v^7, (u v^2)^2>")
    m = SubstitutionMap(delta, q, words(q, "u v^2", "u"))
    res = check_homomorphism(m, 3)
    assert isinstance(res, Inconclusive)


def test_central_quotient_isomorphism():
    q = parse_presentation("<u,v | u^3, v^7, (u v^2)^2>")
    delta = parse_presentation("<a,b | a^2, b^3, (ab)^7>")
    phi = SubstitutionMap(delta, q, words(q, "u v^2", "u"))
    psi = SubstitutionMap(q, delta, words(delta, "b", "(ab)^3"))
    report = verify_isomorphism(phi, psi)
    assert report.verified, report.failures


def test_artin_isomorphism():
    pi = parse_presentation(
        "<a,b,c | aba=bab, bcb=cbc, a b c b^-1 a = b c b^-1 a b c b^-1>"
    )
    art = parse_presentation("<a,b,x | aba=bab, bxb=xbx, axa=xax>")
    fwd = SubstitutionMap(art, pi, words(pi, "a", "b", "b c b^-1"))
    bwd = SubstitutionMap(pi, art, words(art, "a", "b", "b^-1 x b"))
    report = verify_isomorphism(fwd, bwd)
    assert report.verified, report.failures


def test_isomorphism_failure_reported():
    z = parse_presentation("<a |>")
    z2 = parse_presentation("<a | a^2>")
    fwd = SubstitutionMap(z, z2, words(z2, "a"))
    bwd = SubstitutionMap(z2, z, words(z, "a"))
    report = verify_isomorphism(fwd, bwd)
    assert not report.verified
    assert isinstance(report.backward, Refuted)


def random_presentation(rng, n_gens):
    rels = [
        Word([rng.choice([1, -1]) * rng.randint(1, n_gens) for _ in range(rng.randint(1, 6))])
        for _ in range(rng.randint(0, 3))
    ]
    return Presentation([f"g{i}" for i in range(n_gens)], rels)


def test_fuzz_never_both_verified_and_refuted():
    """Soundness cross-check: the refuters may never contradict a
    verification on the same map."""
    rng = random.Random(77)
    verdicts = {"verified": 0, "refuted": 0, "inconclusive": 0}
    for _ in range(120):
        src = random_presentation(rng, rng.randint(1, 2))
        dst = random_presentation(rng, rng.randint(1, 2))
        images = [
            Word([rng.choice([1, -1]) * rng.randint(1, dst.n_gens) for _ in range(rng.randint(0, 4))])
            for _ in range(src.n_gens)
        ]
        m = SubstitutionMap(src, dst, images)
        with patch.object(derive, "_MAX_WORD_LENGTH", 24):
            res = check_homomorphism(m, 300)
        if isinstance(res, Verified):
            verdicts["verified"] += 1
            # replay every certificate
            from curvepi.derive import replay_trace

            for trace in res.traces:
                assert replay_trace(dst, trace)
            # and no refuter may fire
            from curvepi.homomorphisms import _abelian_refuter
            from curvepi.presentations import substitute

            for r in src.relators:
                assert not _abelian_refuter(dst, substitute(m, r))
        elif isinstance(res, Refuted):
            verdicts["refuted"] += 1
        else:
            verdicts["inconclusive"] += 1
    assert verdicts["verified"] > 10
    assert verdicts["refuted"] > 10


# ---------------------------------------------------------------------------
# The abelianization refuter against an independent oracle: v is in the row
# lattice of M exactly when [M; v] has the determinantal divisors and the
# rank of M (brute-force minors_gcd).


def vector_word(p, v):
    """A word with exponent-sum vector v in the generators of p."""
    return p.word(list(zip(p.generators, v)))


def lattice_target(rows, n):
    gens = Presentation([f"g{j}" for j in range(n)])
    return Presentation(gens.generators, [vector_word(gens, r) for r in rows])


def nonzero_divisors(A):
    """d_k = gcd of the k x k minors is nonzero exactly for k <= rank, so
    this list gives the determinantal divisors and the rank."""
    divisors = (minors_gcd(A, k) for k in range(1, min(A.rows, A.cols) + 1))
    return [d for d in divisors if d]


small = st.integers(-6, 6)


def vector(n):
    return st.lists(small, min_size=n, max_size=n)


def matrix_rows(n):
    return st.lists(vector(n), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(matrix_rows(n), vector(n))))
def test_abelian_refuter_agrees_with_determinantal_divisors(case):
    rows, v = case
    n = len(v)
    target = lattice_target(rows, n)
    same = nonzero_divisors(IntMatrix(rows + [v], cols=n)) == nonzero_divisors(IntMatrix(rows, cols=n))
    refuted = _abelian_refuter(target, vector_word(target, v))
    assert (refuted is None) == same
    if refuted is not None:
        assert refuted.quotient == "abelianization" and refuted.detail == v


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), matrix_rows(n), vector(4))))
def test_integer_combinations_of_relators_are_never_refuted(case):
    n, rows, x = case
    v = [sum(c * row[j] for c, row in zip(x, rows)) for j in range(n)]
    target = lattice_target(rows, n)
    assert _abelian_refuter(target, vector_word(target, v)) is None


def test_no_relators_refutes_every_image_with_nonzero_exponent_sums():
    free = parse_presentation("<a,b |>")
    for text in ("a", "b^-2", "a b a^-1", "a^3 b a^-2"):
        assert _abelian_refuter(free, parse_word(free, text)) is not None
    # trivial in the abelianization, so this refuter cannot speak
    assert _abelian_refuter(free, parse_word(free, "a b a^-1 b^-1")) is None
    src = parse_presentation("<x | x^2>")
    res = check_homomorphism(SubstitutionMap(src, free, words(free, "a")))
    assert isinstance(res, Refuted) and res.quotient == "abelianization"


def test_large_exponent_target():
    p = parse_presentation("<a | a^1000000>")
    a = Word.gen(0)
    assert _abelian_refuter(p, a**1000000) is None
    res = _abelian_refuter(p, a**999999)
    assert res is not None and res.detail == [999999]


def test_abelian_refuter_reports_the_first_refuted_image():
    z6 = parse_presentation("<a | a^6>")
    a = Word.gen(0)
    res = _abelian_refuter(z6, a**6, a**12, a**3, a)
    assert res is not None and res.relator_index == 2 and res.image == a**3


# ---------------------------------------------------------------------------
# Stage order: a bounded derivation runs before the finite-quotient refuter.
# Every result must equal that of the refuters-first reference, kept verbatim
# in reference_homomorphisms.


def s3_map():
    """x -> ab into S3: x^2 -> (ab)^2 vanishes in the abelianization but acts
    nontrivially in the order-6 regular action."""
    s3 = parse_presentation("<a,b | a^2, b^2, (ab)^3>")
    return SubstitutionMap(parse_presentation("<x | x^2>"), s3, words(s3, "a b"))


def triangle_map(source_text):
    """Into the infinite (2,3,10) triangle group, x -> a b^-1 and y -> a:
    (a b^-1)^10 derives, but only with 1360 states at a word-length cap of 24."""
    t = parse_presentation("<a,b | a^2, b^3, (ab)^10>")
    src = parse_presentation(source_text)
    return SubstitutionMap(src, t, words(t, "a b^-1", "a")[: src.n_gens])


@pytest.fixture
def derive_calls(monkeypatch):
    """(image, max_states) of every derive_relator call check_homomorphism
    makes."""
    calls = []

    def record(p, w, max_states):
        calls.append((w, max_states))
        return derive_relator(p, w, max_states)

    monkeypatch.setattr(homomorphisms, "derive_relator", record)
    return calls


def assert_same_result(new, old):
    assert type(new) is type(old)
    if isinstance(new, Refuted):
        assert (new.relator_index, new.image, new.quotient, new.detail) == (
            old.relator_index,
            old.image,
            old.quotient,
            old.detail,
        )
    elif isinstance(new, Verified):
        assert [(t.start, t.steps) for t in new.traces] == [(t.start, t.steps) for t in old.traces]
    else:
        assert new.reason == old.reason


def outcome(res, calls):
    if isinstance(res, Refuted):
        return f"refuted by {res.quotient.split(' of ')[0]}"
    if isinstance(res, Verified):
        full = any(states > _QUICK_STATES for _, states in calls)
        return "verified by the full budget" if full else "verified by the bounded attempt"
    return "inconclusive"


def verify_suite_maps(monkeypatch):
    """Every (map, max_states) that ``run_suite`` checks, with the
    reference result."""
    seen = []

    def record(m, max_states):
        old = reference_homomorphisms.check_homomorphism(m, max_states)
        seen.append((m, max_states, old))
        return old

    with monkeypatch.context() as mp:
        mp.setattr(verify, "check_homomorphism", record)
        mp.setattr(homomorphisms, "check_homomorphism", record)
        verify.run_suite()
    return seen


def test_stage_order_matches_the_refuters_first_reference(monkeypatch, derive_calls):
    # (map, (state cap, word-length cap), reference result or None)
    default = (MAX_STATES, derive._MAX_WORD_LENGTH)
    cases = [(m, (states, default[1]), old) for m, states, old in verify_suite_maps(monkeypatch)]
    assert len(cases) == 13
    rng = random.Random(2024)
    for states in (300, 2000):
        for _ in range(120):
            src = random_presentation(rng, rng.randint(1, 2))
            dst = random_presentation(rng, rng.randint(1, 2))
            images = [
                Word([rng.choice([1, -1]) * rng.randint(1, dst.n_gens) for _ in range(rng.randint(0, 4))])
                for _ in range(src.n_gens)
            ]
            cases.append((SubstitutionMap(src, dst, images), (states, 24), None))
    z2 = parse_presentation("<a | a^2>")
    free = parse_presentation("<a,b |>")
    cases += [
        (s3_map(), default, None),
        (SubstitutionMap(parse_presentation("<a | a^3>"), z2, words(z2, "a")), default, None),
        (SubstitutionMap(parse_presentation("<x | x^2>"), free, words(free, "a")), default, None),
        (triangle_map("<x | x^10>"), (2000, 24), None),
        (triangle_map("<x,y | y^2, x^10>"), (300, 24), None),
        (identity_map(parse_presentation("<a,b |>")), default, None),
    ]
    outcomes = set()
    for m, (states, length), old in cases:
        derive_calls.clear()
        with patch.object(derive, "_MAX_WORD_LENGTH", length):
            new = check_homomorphism(m, states)
            if old is None:
                old = reference_homomorphisms.check_homomorphism(m, states)
        outcomes.add(outcome(new, derive_calls))
        assert_same_result(new, old)
    assert outcomes == {
        "verified by the bounded attempt",
        "verified by the full budget",
        "refuted by abelianization",
        "refuted by finite quotient",
        "inconclusive",
    }


def test_finite_quotient_refutation_after_one_bounded_attempt(derive_calls):
    res = check_homomorphism(s3_map())
    assert isinstance(res, Refuted)
    assert (res.relator_index, res.quotient, res.detail) == (0, "finite quotient of order 6", 6)
    assert [states for _, states in derive_calls] == [_QUICK_STATES]


def test_full_budget_only_after_the_refuter(derive_calls):
    m = triangle_map("<x | x^10>")
    with patch.object(derive, "_MAX_WORD_LENGTH", 24):
        res = check_homomorphism(m, 2000)
    assert isinstance(res, Verified)
    assert [states for _, states in derive_calls] == [_QUICK_STATES, 2000]


def test_inconclusive_searches_each_image_at_most_once(derive_calls):
    m = triangle_map("<x,y | y^2, x^10>")
    with patch.object(derive, "_MAX_WORD_LENGTH", 24):
        res = check_homomorphism(m, 300)
    assert isinstance(res, Inconclusive)
    assert res.reason == "relator image not derived: state budget exhausted (300 states)"
    searched = [w for w, _ in derive_calls]
    assert len(searched) == len(set(searched)) == 2


def test_exhausted_search_space_is_not_searched_again(derive_calls):
    # Z/2 * Z is infinite, so the refuters cannot speak, and words of length
    # at most 8 run out well below the bounded attempt's cap
    target = parse_presentation("<a,b | a^2>")
    m = SubstitutionMap(parse_presentation("<x,y | x y x^-1 y^-1>"), target, words(target, "a", "b"))
    with patch.object(derive, "_MAX_WORD_LENGTH", 8):
        res = check_homomorphism(m)
    assert isinstance(res, Inconclusive)
    assert res.reason == "relator image not derived: search space exhausted within budget"
    assert [states for _, states in derive_calls] == [_QUICK_STATES]


def test_zero_relator_source_skips_the_target_enumeration(monkeypatch):
    def enumerate_target(*args, **kwargs):
        raise AssertionError("the target was enumerated")

    monkeypatch.setattr(homomorphisms, "todd_coxeter", enumerate_target)
    s3 = parse_presentation("<a,b | a^2, b^2, (ab)^3>")
    m = SubstitutionMap(parse_presentation("<x,y |>"), s3, words(s3, "a", "b^-1"))
    res = check_homomorphism(m)
    assert isinstance(res, Verified) and res.traces == ()
    # a nonpositive state budget is refused even where no search would run
    for max_states in (0, -1):
        with pytest.raises(ValueError):
            check_homomorphism(m, max_states)
