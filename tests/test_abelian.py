import copy
import random
import time
from math import gcd

import pytest
from hypothesis import event, given, settings, strategies as st

from curvepi import parse_presentation, parse_word
from curvepi.abelian import (
    IntMatrix,
    InvariantFactors,
    _fold,
    abelian_invariants,
    abelian_presentation,
    curve_abelianization,
    exponent_row,
    invariants_of_rows,
    smith_normal_form,
)
from curvepi.coset_table import todd_coxeter
from curvepi.presentations import Presentation
from curvepi.schreier import subgroup_presentation
from curvepi.words import Word
from matrix_oracles import determinant, minors_gcd


E6 = (
    "<a,b,c,d,e,f | a^2,b^2,c^2,d^2,e^2,f^2, (ab)^3,(bc)^3,(cd)^3,(de)^3,(cf)^3, "
    "(ac)^2,(ad)^2,(ae)^2,(af)^2,(bd)^2,(be)^2,(bf)^2,(ce)^2,(df)^2,(ef)^2>"
)


def snf_checked(A):
    """Run SNF and assert every structural postcondition."""
    diag = smith_normal_form(A)
    assert len(diag) == min(A.rows, A.cols)
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[: len(nonzero)] == nonzero  # zeros trail
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    return diag


def sparse_rows(A):
    """The rows of dense A as ``{col: value}`` dicts of their nonzeros."""
    return [{j: x for j, x in enumerate(row) if x} for row in A.entries]


def dense_invariants(A):
    """Invariant factors of dense A by ``smith_normal_form``."""
    diag = snf_checked(A)
    return InvariantFactors(A.cols - sum(1 for d in diag if d), [d for d in diag if d > 1])


def test_snf_examples():
    assert snf_checked(IntMatrix([[2, 3], [-1, -4]])) == [1, 5]
    assert snf_checked(IntMatrix([[0, 0], [0, 0]])) == [0, 0]
    assert snf_checked(IntMatrix([[1, 0], [0, 1]])) == [1, 1]
    # rank-deficient and not square: one zero on the diagonal
    assert snf_checked(IntMatrix([[2, 4], [1, 2], [0, 0]])) == [1, 0]


def test_snf_of_empty_shapes():
    for rows, cols, want in ((0, 0, "0"), (0, 3, "Z^3"), (3, 0, "0")):
        A = IntMatrix([[0] * cols for _ in range(rows)], cols=cols)
        assert snf_checked(A) == []
        assert dense_invariants(A).display() == want
        assert invariants_of_rows(sparse_rows(A), cols).display() == want


def test_snf_determinantal_divisors_500_random():
    # gcd of k x k minors equals d1 ... dk, against a brute-force oracle
    rng = random.Random(99)
    for _ in range(500):
        rows = rng.randint(0, 6)
        cols = rng.randint(1, 6)
        A = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        diag = snf_checked(A)
        prod = 1
        for k in range(1, min(rows, cols) + 1):
            prod *= diag[k - 1]
            assert minors_gcd(A, k) == prod


def test_exponent_row_examples():
    p = parse_presentation("<a,b | b^-1 a b^4 a, a^2 b^-2 a^-3 b^-2>")
    assert [exponent_row(w) for w in p.relators] == [{0: 2, 1: 3}, {0: -1, 1: -4}]
    assert abelian_invariants(p).display() == "Z/5"

    free = parse_presentation("<a,b,c |>")
    assert [exponent_row(w) for w in free.relators] == []
    assert abelian_invariants(free).display() == "Z^3"

    b3 = parse_presentation("<a,b | a b a b^-1 a^-1 b^-1>")
    assert [exponent_row(w) for w in b3.relators] == [{0: 1, 1: -1}]
    # generators whose exponent sum is 0 are left out of the row
    assert exponent_row(Word([1, 2, 2, -1, -2])) == {1: 1}
    assert exponent_row(Word()) == {}


def test_abelian_invariants_examples():
    assert abelian_invariants(parse_presentation("<g1,g2,g3,g4 | g4 g3 g2 g1>")).display() == "Z^3"
    assert abelian_invariants(parse_presentation("<a |>")).display() == "Z"
    assert abelian_invariants(parse_presentation("<a | a^5>")).display() == "Z/5"
    # relators a^n, t a t^-1 a: gcd(n, 2) torsion kills nothing for odd n
    for n in (3, 5):
        p = parse_presentation(f"<a,t | a^{n}, t a t^-1 a>")
        assert abelian_invariants(p).display() == "Z"


def test_invariance_under_presentation_moves():
    rng = random.Random(5)
    base = parse_presentation("<a,b,c | a^2 b^-3, (abc)^2, c^4>")
    want = abelian_invariants(base)
    rels = list(base.relators)
    for _ in range(50):
        moved = []
        for w in rels:
            letters = w.letters
            if rng.random() < 0.5:
                letters = tuple(-x for x in reversed(letters))  # invert
            k = rng.randrange(len(letters)) if letters else 0
            letters = letters[k:] + letters[:k]  # cyclic permute
            moved.append(Word(letters))
        rng.shuffle(moved)
        assert abelian_invariants(Presentation(base.generators, moved)) == want


def test_invariant_factors_type():
    inv = InvariantFactors(2, [2, 4])
    assert inv.display() == "Z^2 + Z/2 + Z/4"
    assert inv.to_json() == {"free_rank": 2, "torsion": [2, 4]}
    with pytest.raises(ValueError):
        InvariantFactors(0, [1])
    with pytest.raises(ValueError):
        InvariantFactors(0, [4, 2])  # chain must divide
    assert InvariantFactors(0, []).is_trivial
    assert InvariantFactors(0, []).display() == "0"
    with pytest.raises(ValueError, match="free rank"):
        InvariantFactors(-2)


def test_curve_abelianization_examples():
    assert curve_abelianization([1, 1, 1, 1]).display() == "Z^3"
    assert curve_abelianization([5]).display() == "Z/5"
    assert curve_abelianization([2, 1, 1]).display() == "Z^2"
    assert curve_abelianization([2, 2]).display() == "Z + Z/2"
    for d in range(2, 6):
        assert curve_abelianization([d]).display() == f"Z/{d}"
    with pytest.raises(ValueError):
        curve_abelianization([])
    with pytest.raises(ValueError):
        curve_abelianization([0])


def test_abelian_presentation_round_trip():
    for inv in (
        InvariantFactors(3, []),
        InvariantFactors(0, [5]),
        InvariantFactors(1, [2]),
        InvariantFactors(2, [2, 6]),
        InvariantFactors(0, []),
    ):
        assert abelian_invariants(abelian_presentation(inv)) == inv


def test_invariants_of_rows_counts_missing_columns():
    # 1x3 matrix of rank 1: free rank 2
    inv = invariants_of_rows([{0: 2, 1: 4, 2: 6}], 3)
    assert inv.free_rank == 2 and inv.torsion == (2,)
    assert invariants_of_rows([{0: 2, 1: 4}], 3).display() == "Z^2 + Z/2"
    assert dense_invariants(IntMatrix([[2, 4, 6]])) == inv
    assert dense_invariants(IntMatrix([[2, 4, 0]], cols=3)).display() == "Z^2 + Z/2"


def test_int_matrix_rejects_a_width_that_disagrees_with_cols():
    with pytest.raises(ValueError, match="columns"):
        IntMatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError, match="columns"):
        smith_normal_form(IntMatrix([[2, 4]], cols=3))
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix([[1, 2], [3]])
    A = IntMatrix([[1, 2]], cols=2)
    assert (A.rows, A.cols) == (1, 2)
    E = IntMatrix([], cols=3)
    assert (E.rows, E.cols) == (0, 3)


@pytest.mark.parametrize("col", [-1, 3, 8])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_column_outside_the_range_is_rejected_wherever_it_is_read(col, at):
    # the sparse entry rejects it as IntMatrix rejects a wrong width: -1
    # would wrap to the fold's zero root, 3 is that root, 8 is past it;
    # the bad entry is in the first, a middle or the last row, there as an
    # explicit zero
    rows = [{0: 1, 1: -1}, {1: 2, 2: 4}, {0: 3}]
    rows[at] = {**rows[at], col: 0 if at == 2 else 1}
    with pytest.raises(ValueError, match="outside columns 0..2"):
        invariants_of_rows(rows, 3)
    with pytest.raises(ValueError, match="outside columns 0..2"):
        invariants_of_rows(iter(rows), 3)


def test_rows_from_a_generator_match_a_list():
    rng = random.Random(22)
    for _ in range(50):
        cols = rng.randint(1, 6)
        rows = [
            {j: rng.randint(-3, 3) for j in rng.sample(range(cols), rng.randint(0, cols))}
            for _ in range(rng.randint(0, 8))
        ]
        want = invariants_of_rows(rows, cols)
        assert invariants_of_rows((dict(row) for row in rows), cols) == want
    p = parse_presentation("<a,b,c | a^2 b^-1, b c^3, a c a^-1 c^-1, (a b c)^4>")
    assert abelian_invariants(p) == invariants_of_rows([exponent_row(w) for w in p.relators], 3)


def apply_unimodular(entries, ops):
    """Apply elementary unimodular row and column operations: swap, negate,
    and add c times one line to another."""
    a = [row[:] for row in entries]
    for on_rows, kind, i, j, c in ops:
        lines = len(a) if on_rows else len(a[0]) if a else 0
        if not lines:
            continue
        i, j = i % lines, j % lines
        if on_rows:
            if kind == "swap":
                a[i], a[j] = a[j], a[i]
            elif kind == "negate":
                a[i] = [-x for x in a[i]]
            elif i != j:
                a[j] = [y + c * x for x, y in zip(a[i], a[j])]
        else:
            for row in a:
                if kind == "swap":
                    row[i], row[j] = row[j], row[i]
                elif kind == "negate":
                    row[i] = -row[i]
                elif i != j:
                    row[j] += c * row[i]
    return a


elementary_op = st.tuples(
    st.booleans(),
    st.sampled_from(["swap", "negate", "add"]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(-3, 3),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda cols: st.tuples(
            st.just(cols),
            st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), max_size=4),
            st.lists(elementary_op, max_size=8),
        )
    )
)
def test_invariants_unchanged_by_unimodular_operations(case):
    cols, entries, ops = case
    moved = apply_unimodular(entries, ops)
    A, B = IntMatrix(moved, cols=cols), IntMatrix(entries, cols=cols)
    assert dense_invariants(A) == dense_invariants(B)
    assert invariants_of_rows(sparse_rows(A), cols) == invariants_of_rows(sparse_rows(B), cols)


# sparse, mostly +-1 entries: the shape of relator matrices from rewriting,
# on which nearly every pivot of the elimination is a unit
sparse_entry = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3])


def sparse_matrix(rows, cols):
    return st.lists(
        st.lists(sparse_entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda entries: IntMatrix(entries, cols=cols))


def exact_rank(entries):
    """Rank by Gaussian elimination over the rationals."""
    from fractions import Fraction

    a = [[Fraction(x) for x in row] for row in entries]
    rank = 0
    for j in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][j] / a[rank][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(lambda rc: sparse_matrix(*rc)))
def test_sparse_snf_matches_determinantal_divisors(A):
    diag = snf_checked(A)
    prod = 1
    for k in range(1, min(A.rows, A.cols) + 1):
        prod *= diag[k - 1]
        assert minors_gcd(A, k) == prod


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: sparse_matrix(n, n)))
def test_sparse_snf_matches_determinant_and_rank(A):
    diag = snf_checked(A)
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(determinant(A))
    assert sum(1 for d in diag if d) == exact_rank(A.entries)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda cols: st.tuples(
            st.just(cols),
            st.lists(st.lists(sparse_entry, min_size=cols, max_size=cols), max_size=5),
            st.lists(st.integers(0, 9), max_size=3),
            st.integers(0, 2),
            st.booleans(),
        )
    )
)
def test_invariants_of_rows_match_dense_snf_and_minors(case):
    # degenerate shapes too: 0 x n, n x 0, all-zero rows and repeated rows
    cols, entries, repeats, zero_rows, keep_zeros = case
    entries = entries + [entries[k % len(entries)] for k in repeats if entries]
    entries = entries + [[0] * cols for _ in range(zero_rows)]
    A = IntMatrix(entries, cols=cols)
    rows = [{j: x for j, x in enumerate(line) if x or keep_zeros} for line in entries]
    before = copy.deepcopy(rows)
    got = invariants_of_rows(rows, cols)
    assert rows == before  # the caller's rows are not changed
    assert got == dense_invariants(A)
    # d_k = D_k / D_(k-1), where D_k is the gcd of the k x k minors, up to the rank
    minors = [minors_gcd(A, k) for k in range(min(A.rows, A.cols) + 1)]
    rank = max(k for k, d in enumerate(minors) if d)
    divisors = [minors[k] // minors[k - 1] for k in range(1, rank + 1)]
    assert got == InvariantFactors(cols - rank, [d for d in divisors if d > 1])


# no +-1 entries at all: every pivot is taken by the smallest-entry scan and
# reduced by Euclidean steps
unit_free_entry = st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, 6, -9, 10])


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
        lambda rc: st.lists(
            st.lists(unit_free_entry, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ).map(lambda entries: IntMatrix(entries, cols=rc[1]))
    )
)
def test_unit_free_snf_matches_determinantal_divisors(A):
    diag = snf_checked(A)
    prod = 1
    for k in range(1, min(A.rows, A.cols) + 1):
        prod *= diag[k - 1]
        assert minors_gcd(A, k) == prod


# the dense elimination that smith_normal_form once ran on what its unit
# pivots left, kept as an independent reference for the sparse one
def _dense_pivots(a):
    """Dense elimination of ``a`` in place; returns the absolute values of
    its nonzero pivots, not yet a divisor chain.

    Pivoting: smallest nonzero absolute value, deterministic tie-break by
    position.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        asrc, adst = a[src], a[dst]
        for j in range(cols):
            adst[j] += c * asrc[j]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]

    k = 0
    n = min(rows, cols)
    while k < n:
        # locate the smallest nonzero |entry| in the trailing block
        pivot = None
        for i in range(k, rows):
            ai = a[i]
            for j in range(k, cols):
                x = ai[j]
                if x and (pivot is None or abs(x) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        # clear row and column k, restarting when remainders appear
        while True:
            p = a[k][k]
            dirty = False
            for i in range(k + 1, rows):
                x = a[i][k]
                if x:
                    q = x // p
                    add_row(k, i, -q)
                    if a[i][k]:
                        swap_rows(k, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(k + 1, cols):
                x = a[k][j]
                if x:
                    q = x // p
                    add_col(k, j, -q)
                    if a[k][j]:
                        swap_cols(k, j)
                        dirty = True
                        break
            if not dirty:
                break
        k += 1

    return [abs(a[i][i]) for i in range(k)]


def _reference_diagonal(entries):
    """The SNF diagonal by the dense elimination above, on a copy of
    ``entries``, then a gcd/lcm pass into a divisor chain."""
    pivots = _dense_pivots([row[:] for row in entries])
    for i in range(len(pivots)):
        for j in range(i + 1, len(pivots)):
            g = gcd(pivots[i], pivots[j])
            pivots[i], pivots[j] = g, pivots[i] * pivots[j] // g
    cols = len(entries[0]) if entries else 0
    return pivots + [0] * (min(len(entries), cols) - len(pivots))


def test_sparse_elimination_matches_the_dense_reference():
    rng = random.Random(2025)
    kinds = {
        "dense": lambda: rng.randint(-9, 9),
        "sparse": lambda: rng.choice([0] * 6 + [1, -1, 1, -1, 2, -3]),
        "unit-free": lambda: rng.choice([0, 0, 0, 2, -2, 3, 4, 6, -9, 10]),
    }
    for n in range(1200):
        entry = list(kinds.values())[n % 3]
        rows, cols = rng.randint(0, 20), rng.randint(0, 20)
        entries = [[entry() for _ in range(cols)] for _ in range(rows)]
        A = IntMatrix(entries, cols=cols)
        assert snf_checked(A) == _reference_diagonal(entries)
    # a fourth kind from its own generator: rows of exactly three +-1
    # entries, which the fold cannot take, so the elimination's own unit
    # pivots and their fill-in are checked
    rng = random.Random(34)
    for _ in range(300):
        rows, cols = rng.randint(0, 40), rng.randint(3, 40)
        entries = [[0] * cols for _ in range(rows)]
        for row in entries:
            for j in rng.sample(range(cols), 3):
                row[j] = rng.choice((1, -1))
        A = IntMatrix(entries, cols=cols)
        assert snf_checked(A) == _reference_diagonal(entries)


def test_elimination_branches():
    # column remainder: 6 - 4 leaves 2 under the pivot 4, which becomes the pivot
    assert snf_checked(IntMatrix([[4], [6]])) == [2]
    # row remainder once the column is clear: 6 mod 4 leaves 2 beside the pivot
    assert snf_checked(IntMatrix([[4, 6]])) == [2]
    assert snf_checked(IntMatrix([[4, 0], [0, 6]])) == [2, 12]
    # unit pivots
    assert snf_checked(IntMatrix([[1, 2], [3, 4]])) == [1, 2]
    assert snf_checked(IntMatrix([[0, -1, 5], [1, 7, 0]])) == [1, 1]


def test_large_entries():
    big = 10**30
    A = IntMatrix([[big, big + 1, 3], [2 * big - 1, 5, big], [7, big * big, -big]])
    diag = snf_checked(A)
    prod = 1
    for k in range(1, 4):
        prod *= diag[k - 1]
        assert minors_gcd(A, k) == prod
    assert snf_checked(IntMatrix([[2 * big, 0], [0, 3 * big]])) == [big, 6 * big]


# ---------------------------------------------------------------------------
# the fold phase of the elimination


def reference_fold(rows, ncols, seen):
    """The fold of ``abelian._fold`` done another way: in passes over all
    rows until one folds nothing, with the substitution held explicitly, as ``image[j] = (sign,
    root)`` or None for 0, and rewritten in full at each fold step.  Adds to
    ``seen`` the fold cases that the rows reach."""
    image = {j: (1, j) for j in range(ncols)}

    def short_unit(row):
        return len(row) <= 2 and all(x in (1, -1) for x in row.values())

    folds = 0
    while True:
        before = folds
        kept = []
        for line in rows:
            row = {}
            for j, x in line.items():
                if image[j] is None:
                    continue
                s, r = image[j]
                v = row.get(r, 0) + s * x
                if v:
                    row[r] = v
                else:
                    row.pop(r, None)
            if not row:
                continue
            if not short_unit(row):
                kept.append(row)
                if len(row) == 1 and short_unit(line) and len(line) == 2:
                    seen.add("sign cycle leaves 2g = 0")
                continue
            if not short_unit(line):
                seen.add("row short only after substitution")
            if len(row) == 1:
                ((g, _),) = row.items()
                if any(k != g and im and im[1] == g for k, im in image.items()):
                    seen.add("zero spreads through a merge")
                for k, im in image.items():
                    if im and im[1] == g:
                        image[k] = None
            else:
                (g, x), (h, y) = row.items()
                for k, im in image.items():
                    if im and im[1] == g:
                        image[k] = (-x * y * im[0], h)
            folds += 1
        rows = kept
        if folds == before:
            return folds, rows


FOLD_CASES = {
    "sign cycle leaves 2g = 0",
    "zero spreads through a merge",
    "row short only after substitution",
}


def divisors_after_fold(folds, kept, ncols):
    """The nonzero SNF divisors of a fold's result: a pivot 1 per fold, then
    the dense reference diagonal of the rows it kept."""
    rest = _reference_diagonal([[row.get(j, 0) for j in range(ncols)] for row in kept])
    return [1] * folds + [d for d in rest if d]


def check_folded_elimination(rows, ncols, seen):
    """The fold and the reference fold each leave rows whose divisors, after
    the fold's pivots 1, are those of the dense reference elimination, and
    so does the folded elimination; returns the matrix and its diagonal."""
    entries = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    want = [d for d in _reference_diagonal(entries) if d]
    assert divisors_after_fold(*_fold(rows, ncols), ncols) == want
    assert divisors_after_fold(*reference_fold(rows, ncols, seen), ncols) == want
    A = IntMatrix(entries, cols=ncols)
    diag = snf_checked(A)
    assert [d for d in diag if d] == want
    assert invariants_of_rows(rows, ncols) == dense_invariants(A)
    return A, diag


# rows of one to four entries over a few columns, nearly all +-1: the fold
# takes most rows, and substitution makes many of the others short
FOLD_ENTRIES = [1, -1, 1, -1, 1, -1, 2, -2, 3]
fold_entry = st.sampled_from(FOLD_ENTRIES)


def fold_rows(max_rows, max_cols):
    return st.integers(0, max_cols).flatmap(
        lambda cols: st.tuples(
            st.just(cols),
            st.lists(
                st.dictionaries(st.integers(0, cols - 1), fold_entry, min_size=1, max_size=4)
                if cols
                else st.just({}),
                max_size=max_rows,
            ),
        )
    )


@settings(max_examples=300, deadline=None)
@given(fold_rows(6, 6))
def test_fold_matches_dense_snf_and_minors(case):
    cols, rows = case
    seen = set()
    A, diag = check_folded_elimination(rows, cols, seen)
    for name in sorted(seen):
        event(name)
    prod = 1
    for k in range(1, min(A.rows, A.cols) + 1):
        prod *= diag[k - 1]
        assert minors_gcd(A, k) == prod


def test_fold_reaches_every_case_on_a_seeded_corpus():
    rng = random.Random(16)
    counts = dict.fromkeys(FOLD_CASES, 0)
    for _ in range(3000):
        cols = rng.randint(1, 12)
        rows = [
            {rng.randrange(cols): rng.choice(FOLD_ENTRIES) for _ in range(rng.randint(1, 4))}
            for _ in range(rng.randint(0, 14))
        ]
        seen = set()
        check_folded_elimination(rows, cols, seen)
        for name in seen:
            counts[name] += 1
    assert min(counts.values()) >= 50, counts


def test_fold_sign_cycle_leaves_2g():
    # a = -b, then a - b = -2b: the second row reads {1: -2} and is kept
    rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert _fold(rows, 2) == (1, [{1: -2}])
    assert invariants_of_rows(rows, 2).display() == "Z/2"
    assert smith_normal_form(IntMatrix([[1, 1], [1, -1]])) == [1, 2]
    # the same cycle with the signs that cancel: a = -b, then a + b = 0
    assert _fold([{0: 1, 1: 1}, {0: -1, 1: -1}], 2) == (1, [])
    assert smith_normal_form(IntMatrix([[1, 1], [-1, -1]])) == [1, 0]


def test_fold_zero_spreads_through_a_merge():
    # a = b, b = c, then c = 0 sets a, b and c to 0; the last row is empty
    rows = [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1}, {0: 2, 1: 3, 2: -5, 3: 4}]
    assert _fold(rows, 4) == (3, [{3: 4}])
    assert invariants_of_rows(rows, 4).display() == "Z/4"
    entries = [[row.get(j, 0) for j in range(4)] for row in rows]
    assert smith_normal_form(IntMatrix(entries)) == [1, 1, 1, 4]


def test_fold_row_short_only_after_substitution():
    # the first row has three entries; the merge b = -c marks it, and the
    # next round reads it as a = 0
    rows = [{0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}, {0: 3, 2: 6}]
    assert _fold(rows, 3) == (2, [{2: 6}])
    assert invariants_of_rows(rows, 3).display() == "Z/6"
    entries = [[row.get(j, 0) for j in range(3)] for row in rows]
    assert smith_normal_form(IntMatrix(entries)) == [1, 1, 6]


def test_fold_of_a_chain_takes_linear_time():
    # row k reads x_k + 2 x_(k+1), and the last row sets x_(n-1) to 0: each
    # fold frees only the row before it, so passes over all rows in order
    # would make n passes, about n^2 / 2 row substitutions
    n = 20000
    rows = [{k: 1, k + 1: 2} for k in range(n - 1)] + [{n - 1: 1}]
    start = time.perf_counter()
    assert _fold(rows, n) == (n, [])
    assert time.perf_counter() - start < 5.0
    assert invariants_of_rows(rows, n).is_trivial


def test_fold_leaves_few_rows_and_no_unit_on_a_schreier_presentation():
    # the traffic the elimination after the fold is sized for: the raw
    # Schreier rows of E6 over <a,b,c,d,e> (index 72, 1512 x 361) fold to
    # 360 rows over 5 columns with no +-1 entry left.  Each elimination
    # step scans every nonzero, so a change to the fold or the walk that
    # leaves a large matrix full of units should fail here
    p = parse_presentation(E6)
    t = todd_coxeter(p, [parse_word(p, g) for g in "abcde"])
    raw = subgroup_presentation(p, t)
    assert (t.n, raw.n_gens, len(raw.relators)) == (72, 361, 1512)
    folds, kept = _fold([exponent_row(w) for w in raw.relators], raw.n_gens)
    assert (folds, len(kept), len(set().union(*kept))) == (356, 360, 5)
    assert all(abs(x) > 1 for row in kept for x in row.values())


def test_fold_degenerate_inputs():
    # no columns: only empty rows fit
    assert invariants_of_rows([{}, {}], 0).display() == "0"
    assert smith_normal_form(IntMatrix([[], []], cols=0)) == []
    # an explicit 0 entry is skipped: the row is {1: 1}, which sets b to 0
    assert _fold([{0: 0, 1: 1}], 2) == (1, [])
    assert invariants_of_rows([{0: 0, 1: 1}], 2).display() == "Z"
    assert invariants_of_rows([{0: 0}], 1).display() == "Z"
    for row in ({2: 1}, {-1: 1}, {0: 1, 5: 0}):
        with pytest.raises(ValueError, match="columns"):
            invariants_of_rows([row], 2)
    # huge entries stay exact beside the +-1 entries the fold takes
    big = 10**30
    rows = [{0: 1, 1: -1}, {2: 1, 3: 1}, {0: big, 2: 1, 3: 1}]
    assert _fold(rows, 4) == (2, [{1: big}])
    assert invariants_of_rows(rows, 4) == InvariantFactors(1, [big])
    entries = [[row.get(j, 0) for j in range(4)] for row in rows]
    assert smith_normal_form(IntMatrix(entries)) == [1, 1, big]
