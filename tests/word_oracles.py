"""Booth's least-rotation algorithm, the oracle for the library's
least-rotation kernel and for the verbatim copies of its earlier word
kernels in test_words.py; and substitution as a product of image words,
the oracle for presentations.substitute."""

from curvepi.words import Word


def least_rotation(letters):
    """Index of the lexicographically least rotation (Booth's algorithm)."""
    n = len(letters)
    if n <= 1:
        return 0
    s = letters + letters
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def substitute_by_products(m, w):
    """The image of ``w`` under ``m``, multiplied out one image word per
    letter of ``w``."""
    m.source.check_word(w)
    out = Word()
    for x in w.letters:
        img = m.images[abs(x) - 1]
        out = out * (img if x > 0 else ~img)
    return out
