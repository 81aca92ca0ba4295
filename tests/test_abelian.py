import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from curvepi import parse_presentation
from curvepi.abelian import (
    IntMatrix,
    InvariantFactors,
    abelian_invariants,
    abelian_presentation,
    curve_abelianization,
    invariants_of_matrix,
    relator_matrix,
    smith_normal_form,
)
from curvepi.presentations import Presentation
from curvepi.words import Word


def snf_checked(A):
    """Run SNF and assert every structural postcondition."""
    D = smith_normal_form(A)
    n = min(D.rows, D.cols)
    diag = [D[i, i] for i in range(n)]
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D[i, j] == 0
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[: len(nonzero)] == nonzero  # zeros trail
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    return diag


def test_snf_examples():
    assert snf_checked(IntMatrix([[2, 3], [-1, -4]])) == [1, 5]
    assert snf_checked(IntMatrix([[0, 0], [0, 0]])) == [0, 0]
    assert snf_checked(IntMatrix([[1, 0], [0, 1]])) == [1, 1]


def test_snf_of_empty_shapes():
    for rows, cols, want in ((0, 0, "0"), (0, 3, "Z^3"), (3, 0, "0")):
        A = IntMatrix.zero(rows, cols)
        assert snf_checked(A) == []
        D = smith_normal_form(A)
        assert (D.rows, D.cols) == (rows, cols)
        assert invariants_of_matrix(A).display() == want


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
            assert A.minors_gcd(k) == prod


def test_relator_matrix_examples():
    p = parse_presentation("<a,b | b^-1 a b^4 a, a^2 b^-2 a^-3 b^-2>")
    assert relator_matrix(p).entries == [[2, 3], [-1, -4]]
    assert abelian_invariants(p).display() == "Z/5"

    free = parse_presentation("<a,b,c |>")
    m = relator_matrix(free)
    assert (m.rows, m.cols) == (0, 3)

    b3 = parse_presentation("<a,b | a b a b^-1 a^-1 b^-1>")
    assert relator_matrix(b3).entries == [[1, -1]]


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


def test_invariants_of_matrix_counts_missing_columns():
    # 1x3 matrix of rank 1: free rank 2
    inv = invariants_of_matrix(IntMatrix([[2, 4, 6]]))
    assert inv.free_rank == 2 and inv.torsion == (2,)
    assert invariants_of_matrix(IntMatrix([[2, 4, 0]], cols=3)).display() == "Z^2 + Z/2"


def test_int_matrix_rejects_a_width_that_disagrees_with_cols():
    with pytest.raises(ValueError, match="columns"):
        IntMatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError, match="columns"):
        invariants_of_matrix(IntMatrix([[2, 4]], cols=3))
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix([[1, 2], [3]])
    A = IntMatrix([[1, 2]], cols=2)
    assert (A.rows, A.cols) == (1, 2)
    E = IntMatrix([], cols=3)
    assert (E.rows, E.cols) == (0, 3)


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
    assert invariants_of_matrix(IntMatrix(moved, cols=cols)) == invariants_of_matrix(
        IntMatrix(entries, cols=cols)
    )


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
        assert A.minors_gcd(k) == prod


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: sparse_matrix(n, n)))
def test_sparse_snf_matches_determinant_and_rank(A):
    diag = snf_checked(A)
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(A.determinant())
    assert sum(1 for d in diag if d) == exact_rank(A.entries)


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
        assert A.minors_gcd(k) == prod


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
        assert A.minors_gcd(k) == prod
    assert snf_checked(IntMatrix([[2 * big, 0], [0, 3 * big]])) == [big, 6 * big]
