"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime and asserting the stated time bound."""

import random
import time
import tracemalloc

import pytest

from curvepi import parse_presentation, parse_word
from curvepi.abelian import IntMatrix, InvariantFactors, abelian_invariants, curve_abelianization
from curvepi.catalog import build, parse_tag
from curvepi.classify import CASES, classify, lookup_case
from curvepi.coset_table import Overflow, todd_coxeter, validate_table
from curvepi.presentations import Presentation, SubstitutionMap
from curvepi.homomorphisms import verify_isomorphism
from curvepi.schreier import subgroup_presentation, simplify
from curvepi.verify import run_suite
from curvepi.words import Word, reduce_letters
from matrix_oracles import minors_gcd


class timed:
    def __init__(self, number, description, bound):
        self.number = number
        self.description = description
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.bound else "FAIL"
        print(
            f"ACCEPTANCE {self.number:>2}: {status}  {self.description}"
            f"  [{elapsed:.2f}s < {self.bound}s]"
        )
        if exc_type is None:
            assert elapsed < self.bound, (
                f"criterion {self.number} exceeded its time bound: "
                f"{elapsed:.2f}s >= {self.bound}s"
            )
        return False


def test_criterion_1_order_320():
    with timed(1, "order-320 enumeration of the three-A4 quintic group", 5.0):
        p = parse_presentation("<a,b | b = a b^4 a, a^2 = b^2 a^3 b^2>")
        t = todd_coxeter(p)
        assert not isinstance(t, Overflow)
        assert t.n == 320
        assert validate_table(p, [], t).passed


def test_criterion_2_alternating_group_order_60():
    with timed(2, "order 60 with trivial abelianization", 1.0):
        q = parse_presentation("<a,b,c | a^2, b^3, c^5, abc>")
        t = todd_coxeter(q)
        assert t.n == 60
        assert abelian_invariants(q) == InvariantFactors(0)


def test_criterion_3_small_orders():
    for dsl_or_tag, expect in (
        ("spherebraid3", 12),
        ("coxeter:2,3,3", 24),
        ("<x,y | x^3, y^3, (xy)^2>", 12),
    ):
        with timed(3, f"enumeration of {dsl_or_tag} gives {expect}", 1.0):
            p = (
                parse_presentation(dsl_or_tag)
                if dsl_or_tag.startswith("<")
                else build(parse_tag(dsl_or_tag))
            )
            assert todd_coxeter(p).n == expect


def test_criterion_4_triangle_group_kernel():
    with timed(4, "(2,3,7) index-168 kernel abelianizes to Z^6", 60.0):
        [report] = run_suite(["V3"])
        assert report.passed, report.detail
        assert report.artifacts["abelianization"] == "Z^6"
        assert report.artifacts["index"] == 168


def test_criterion_5_artin_isomorphism():
    with timed(5, "two-sided isomorphism with the (3,3,3) Artin group", 5.0):
        pi = build(parse_tag("quintic:C4_3A2"))
        art = parse_presentation("<a,b,x | aba=bab, bxb=xbx, axa=xax>")
        fwd = SubstitutionMap(art, pi, [parse_word(pi, w) for w in ("a", "b", "b c b^-1")])
        bwd = SubstitutionMap(pi, art, [parse_word(art, w) for w in ("a", "b", "b^-1 x b")])
        assert verify_isomorphism(fwd, bwd).verified


def test_criterion_6_raag_kernel():
    with timed(6, "index-2 kernel: 6 commutators on K(2,3), Z^5", 5.0):
        [report] = run_suite(["V8"])
        assert report.passed, report.detail
        assert report.artifacts["abelianization"] == "Z^5"
        assert len(report.artifacts["kernel_generators"]) == 5
        assert report.artifacts["relators"] == 6


def test_criterion_7_blow_up_replay():
    with timed(7, "all thirteen self-intersections and inequalities", 1.0):
        [report] = run_suite(["V10"])
        assert report.passed, report.detail
        assert len(report.artifacts) == 13


def test_criterion_8_classifier_goldens():
    with timed(8, "classifier goldens and the degree formula", 5.0):
        for label, row in CASES.items():
            entry = lookup_case(label)
            if row.type is not None:
                assert classify(row.type).group_name == entry.group_name, label
            if entry.presentation is not None:
                assert abelian_invariants(entry.presentation) == curve_abelianization(
                    row.degrees
                ), label


def test_criterion_9_property_suites():
    with timed(9, "SNF, rank, certificate and reduction property suites", 60.0):
        rng = random.Random(2025)

        # Smith normal form determinantal divisors, 500 random matrices
        from curvepi.abelian import smith_normal_form

        for _ in range(500):
            rows, cols = rng.randint(0, 6), rng.randint(1, 6)
            A = IntMatrix(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            diag = smith_normal_form(A)
            prod = 1
            for k in range(1, min(rows, cols) + 1):
                prod *= diag[k - 1]
                assert minors_gcd(A, k) == prod

        # Nielsen-Schreier ranks for k <= 3, n <= 6
        for k in (2, 3):
            fk = Presentation([f"g{i}" for i in range(k)])
            a = Word.gen(0)
            for n in range(1, 7):
                shifts = [1] + [rng.randrange(n) for _ in range(k - 1)]
                words = [
                    a**j * Word.gen(i) * a ** -((j + shifts[i]) % n)
                    for j in range(n)
                    for i in range(k)
                ]
                t = todd_coxeter(fk, words)
                sp = subgroup_presentation(fk, t)
                assert t.n == n and len(sp.generators) == n * (k - 1) + 1
                assert sp.relators == ()

        # coset-table certificates on a fuzz corpus
        checked = 0
        for _ in range(120):
            n_gens = rng.randint(1, 4)
            rels = [
                Word([rng.choice([1, -1]) * rng.randint(1, n_gens) for _ in range(rng.randint(1, 12))])
                for _ in range(rng.randint(1, 6))
            ]
            p = Presentation([f"g{i}" for i in range(n_gens)], rels)
            res = todd_coxeter(p, [], 2000)
            if not isinstance(res, Overflow):
                checked += 1
                assert validate_table(p, [], res).passed
        assert checked > 40

        # free-reduction laws
        for _ in range(1000):
            raw = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 24)))
            red = reduce_letters(raw)
            assert reduce_letters(red) == red
            assert len(red) <= len(raw)
            w = Word(raw)
            assert not (w * ~w)


E6 = (
    "<a,b,c,d,e,f | a^2,b^2,c^2,d^2,e^2,f^2, (ab)^3,(bc)^3,(cd)^3,(de)^3,(cf)^3, "
    "(ac)^2,(ad)^2,(ae)^2,(af)^2,(bd)^2,(be)^2,(bf)^2,(ce)^2,(df)^2,(ef)^2>"
)


def e6_subgroup_presentation(gens):
    p = parse_presentation(E6)
    t = todd_coxeter(p, [parse_word(p, g) for g in gens])
    return t.n, subgroup_presentation(p, t)


def test_scale_e6_index_432_simplifies():
    with timed("S1", "E6 index 432: simplify to <= 10 generators, Z/2", 30.0):
        index, raw = e6_subgroup_presentation("abcd")
        assert (index, len(raw.generators), len(raw.relators)) == (432, 2161, 9072)
        slim = simplify(raw)
        assert len(slim.generators) <= 10
        assert abelian_invariants(slim).display() == "Z/2"


def test_scale_e6_index_72_raw_abelianization():
    with timed("S2", "E6 index 72: SNF of the raw 1512 x 361 matrix, Z/2", 3.0):
        index, raw = e6_subgroup_presentation("abcde")
        assert (index, len(raw.generators), len(raw.relators)) == (72, 361, 1512)
        assert abelian_invariants(raw).display() == "Z/2"


def test_scale_e6_index_432_raw_abelianization():
    # held densely, the raw 9072 x 2161 relator matrix needs over 300 MiB
    # under tracemalloc; its sparse exponent rows need under 10 MiB
    with timed("S4", "E6 index 432: raw 9072 x 2161 relators, Z/2, < 40 MiB", 20.0):
        index, raw = e6_subgroup_presentation("abcd")
        assert (index, len(raw.generators), len(raw.relators)) == (432, 2161, 9072)
        tracemalloc.start()
        try:
            inv = abelian_invariants(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inv.display() == "Z/2"
        assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_scale_e6_index_2160_raw_abelianization():
    # without its fold phase the elimination peaks near 46 MiB under
    # tracemalloc; the fold takes nearly every row before it runs
    with timed("S5", "E6 index 2160: raw 45360 x 10801 relators, Z/2, < 32 MiB", 20.0):
        index, raw = e6_subgroup_presentation("abc")
        assert (index, len(raw.generators), len(raw.relators)) == (2160, 10801, 45360)
        tracemalloc.start()
        try:
            inv = abelian_invariants(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inv.display() == "Z/2"
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_scale_e6_index_2160_rewriting():
    # the tuple-keyed walk, which re-reduced every relator, peaked near
    # 14 MiB under tracemalloc; the label walk builds each relator once
    with timed("S6", "E6 index 2160: Reidemeister-Schreier presentation, < 10 MiB", 20.0):
        p = parse_presentation(E6)
        t = todd_coxeter(p, [parse_word(p, g) for g in "abc"])
        assert t.n == 2160
        tracemalloc.start()
        try:
            raw = subgroup_presentation(p, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(raw.generators), len(raw.relators)) == (10801, 45360)
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


E7 = (
    "<a,b,c,d,e,f,g | a^2,b^2,c^2,d^2,e^2,f^2,g^2, (ab)^3,(bc)^3,(cd)^3,(de)^3,(ef)^3,(cg)^3, "
    "(ac)^2,(ad)^2,(ae)^2,(af)^2,(ag)^2,(bd)^2,(be)^2,(bf)^2,(bg)^2,(ce)^2,(cf)^2,"
    "(dg)^2,(df)^2,(eg)^2,(fg)^2>"
)


def test_scale_e7_index_120960():
    with timed("S3", "E7 over <a,b,c>: index 120960 within 200000 cosets", 15.0):
        p = parse_presentation(E7)
        sub = [parse_word(p, g) for g in "abc"]
        t = todd_coxeter(p, sub, 200_000)
        assert not isinstance(t, Overflow), t
        assert t.n == 120960


def test_criterion_10_deterministic_verify_json():
    with timed(10, "verify --json is byte-identical across two runs", 120.0):
        import io
        from contextlib import redirect_stdout

        from curvepi.cli import main

        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(["verify", "--json"])
            assert code == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
