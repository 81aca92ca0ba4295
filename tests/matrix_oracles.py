"""Exact integer-matrix oracles for the Smith normal form tests: the
determinant and the gcd of the k x k minors, by brute force."""

from itertools import combinations
from math import gcd

from curvepi.abelian import IntMatrix


def determinant(M: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    m = [row[:] for row in M.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minors_gcd(M: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 if none are nonzero); brute force."""
    if k == 0:
        return 1
    g = 0
    for rows in combinations(range(M.rows), k):
        for cols in combinations(range(M.cols), k):
            sub = IntMatrix([[M.entries[i][j] for j in cols] for i in rows])
            g = gcd(g, determinant(sub))
    return g
