"""Non-G-cr A1 and G2 subgroups of exceptional groups in good characteristic.

Reproduces the tables of Levi-irreducible A1 and G2 subgroups X with
nonzero H^1(X, V) on some level V of a parabolic's unipotent radical, for
E6, E7 and E8 at p = 5 and 7.  The modules cover root systems, the levels
of standard parabolics and their Levi summands, rank-one and G2 characters
with explicit rank-one operators, exact H^1 of twisted tilting products,
the candidate scan, and the diff of a scan against the golden tables.
"""

__version__ = "0.1.0"
