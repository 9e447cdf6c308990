"""Helpers that exist only to check ``gcr``: no table result or cross-check
uses them, so they live with the tests.

- the one-parameter subgroups x_+(t) and x_-(t) of an explicit rank-one
  module, for the group-law tests of its divided powers
- the full root set, the simple roots and the simple reflections of a root
  system, for the Euclidean-model and Weyl-invariance tests
- the composition factors and the dimension of a module expression's
  character, and the H^1 criterion for a simple rank-one module
"""

from collections import Counter

import numpy as np

from gcr.modrep import (A1Module, ModExpr, a1_simple_weights, a1_top_weight,
                        g2_comp_factors, module_weights, peel_characters)
from gcr.rootsystem import Root, RootSystem


# -- rank-one groups ---------------------------------------------------------

def _exp(mod: A1Module, ops: dict[int, np.ndarray], t: int) -> np.ndarray:
    out = np.eye(mod.dim, dtype=np.int64)
    for a, m in ops.items():
        out = (out + pow(t, a, mod.p) * m) % mod.p
    return out


def x_plus(mod: A1Module, t: int) -> np.ndarray:
    """x_+(t) = sum_a t^a E[a] over GF(p)."""
    return _exp(mod, mod.E, t)


def x_minus(mod: A1Module, t: int) -> np.ndarray:
    """x_-(t) = sum_a t^a F[a] over GF(p)."""
    return _exp(mod, mod.F, t)


# -- root systems -------------------------------------------------------------

def roots(rs: RootSystem) -> list[Root]:
    """Every root: the positive ones, then their negatives."""
    return list(rs.positive) + [tuple(-c for c in r) for r in rs.positive]


def simple(rs: RootSystem, i: int) -> Root:
    """The simple root alpha_i, i 1-based."""
    return tuple(int(j == i - 1) for j in range(rs.rank))


def reflect(rs: RootSystem, r: Root, i: int) -> Root:
    """Simple reflection s_i (1-based) applied to r."""
    k = rs.pairing_index(r, i - 1)
    return tuple(c - k * (j == i - 1) for j, c in enumerate(r))


# -- module expressions -------------------------------------------------------

def a1_comp_factors(weights, p: int) -> Counter:
    """Composition factor multiset of any module with the given T-weights,
    by greedy removal of simple characters from the top."""
    return peel_characters(weights, a1_top_weight,
                           lambda n: a1_simple_weights(n, p))


def h1_irreducible(lam: int, p: int) -> bool:
    """Whether H^1 of the rank-one group with coefficients in L(lam) is
    nonzero: lam = (2p-2) p^s."""
    if lam <= 0:
        return False
    while lam % p == 0:
        lam //= p
    return lam == 2 * p - 2


def module_comp_factors(e: ModExpr, p: int,
                        subst: dict[str, int] | None = None) -> Counter:
    """Composition factor multiset of the expression's character."""
    char = module_weights(e, p, subst)
    if any(isinstance(w, tuple) for w in char):
        return g2_comp_factors(char, p)
    return a1_comp_factors(list(char.elements()), p)


def module_dim(e: ModExpr, p: int, subst: dict[str, int] | None = None) -> int:
    return sum(module_weights(e, p, subst).values())
