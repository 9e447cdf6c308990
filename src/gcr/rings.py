"""Dense linear algebra over the prime field GF(p).

Matrices are numpy int64 arrays with entries reduced mod p.  Row reduction
is the only elimination routine; rank and kernels are read off from it.
"""

from __future__ import annotations

import numpy as np


def rref(a: np.ndarray, p: int):
    """Reduced row echelon form mod p; returns (matrix, pivot columns)."""
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    piv = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        piv.append(c)
        r += 1
    return a, piv


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel, one vector per row."""
    a = np.atleast_2d(np.array(a, dtype=np.int64))
    cols = a.shape[1]
    if a.size == 0:
        return np.eye(cols, dtype=np.int64)
    r, piv = rref(a, p)
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(piv):
            basis[k, pc] = (-int(r[i, c])) % p
    return basis
