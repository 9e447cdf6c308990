"""Reference Freudenthal multiplicities for the tests: the formula applied at
every weight of the module, not only at the dominant ones, so that it shares
neither the dominant-weight enumeration nor the orbit expansion of
``gcr.modrep.freudenthal``.

Each weight mu = lam - sum c_i alpha_i carries its depth c, so on the root
system's Gram matrix g scaled by 3 every term is an integer:
3(omega_i, alpha_j) = delta_ij g[i][i]/2, and
3((lam+rho)^2 - (mu+rho)^2) = sum c_i (lam_i+1) g[i][i] - 3(c, c).
Root strings through weights are unbroken, so mu - alpha_j is a weight
exactly when the alpha_j-string runs more than -mu_j steps above mu, and the
terms mu + k alpha of the formula stop at the first non-weight.
"""

from gcr.rootsystem import build_root_system
from oracles import pairing_index


def freudenthal_all_weights(name: str, lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    rs = build_root_system(name)
    n = rs.rank
    half = [rs._gram3[i][i] // 2 for i in range(n)]
    # per positive root alpha: its weight, the vector 3(omega_j, alpha) and
    # 3(alpha, alpha)
    pos = [(tuple(pairing_index(rs, r, i) for i in range(n)),
            tuple(h * c for h, c in zip(half, r)), rs._form3(r, r))
           for r in rs.positive]
    # (lam_i + 1) g[i][i], the first term of the scaled denominator
    lam_rho = [2 * h * (x + 1) for h, x in zip(half, lam)]
    mult = {lam: 1}
    depth = {lam: (0,) * n}
    frontier = [lam]
    while frontier:
        nxt = {}
        for w in frontier:
            c = depth[w]
            for j, s in enumerate(rs.cartan):
                t = 1 - w[j]
                if t <= 0 or tuple(a + t * b for a, b in zip(w, s)) in mult:
                    mu = tuple(a - b for a, b in zip(w, s))
                    nxt[mu] = c[:j] + (c[j] + 1,) + c[j + 1:]
        frontier = sorted(nxt)
        for mu in frontier:
            c = depth[mu] = nxt[mu]
            total = 0
            for omega, r_half, r_norm in pos:
                mu_r = sum(a * b for a, b in zip(mu, r_half))
                up, k = tuple(a + b for a, b in zip(mu, omega)), 1
                while up in mult:
                    total += mult[up] * (mu_r + k * r_norm)
                    up, k = tuple(a + b for a, b in zip(up, omega)), k + 1
            denom = sum(a * b for a, b in zip(c, lam_rho)) - rs._form3(c, c)
            val, rem = divmod(2 * total, denom)
            if rem or val <= 0:
                raise ArithmeticError(f"Freudenthal gave {2 * total}/{denom} at {mu}")
            mult[mu] = val
    return mult
