"""Dense linear algebra over the prime field GF(p).

A matrix is a nonempty rectangular sequence of rows, each a sequence of
Python ints; results are lists of lists with entries reduced mod p.  Row
reduction is the only elimination routine; rank and kernels are read off
from it.
"""

from __future__ import annotations


def rref(a, p: int):
    """Reduced row echelon form mod p; returns (matrix, pivot columns)."""
    a = [[x % p for x in row] for row in a]
    rows, piv = len(a), []
    for c in range(len(a[0])):
        r = len(piv)
        i = next((i for i in range(r, rows) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], p - 2, p)
        top = a[r] = [x * inv % p for x in a[r]]
        for k in range(rows):
            f = a[k][c]
            if f and k != r:
                a[k] = [(x - f * y) % p for x, y in zip(a[k], top)]
        piv.append(c)
        if len(piv) == rows:
            break
    return a, piv


def rank(a, p: int) -> int:
    """Rank mod p; a matrix with no rows has rank 0."""
    return len(rref(a, p)[1]) if len(a) else 0


def nullspace(a, p: int) -> list:
    """Basis of the right kernel, one vector per row: the vector of free
    column c is 1 at c and 0 at the other free columns."""
    r, piv = rref(a, p)
    cols = len(r[0])
    basis = []
    for c in (c for c in range(cols) if c not in piv):
        v = [0] * cols
        v[c] = 1
        for i, pc in enumerate(piv):
            v[pc] = -r[i][c] % p
        basis.append(v)
    return basis
