"""Finite fields, Artin-Schreier towers, and the weight coset Lambda_chi.

The restricted weights compatible with a character chi solve, coordinate by
coordinate, the Artin-Schreier equation x^p - x = chi(h_i)^p.  For zero trace
the solutions stay in the same field; otherwise the degree multiplies by p.
Either way the solution set is a single coset of F_p^r.
"""

from lieram.modular import PChar, mod_blocks
from lieram.rootdata import build_root_system
from lieram.scalars import artin_schreier_solve, make_field
from lieram.selftest import enumerate_lambda_chi

F3 = make_field(3, 1)
print("fields are deterministic: F_27 uses the lexicographically smallest")
F27 = make_field(3, 3)
print(f"monic irreducible cubic, coefficients {list(F27.modulus)}")

x, K = artin_schreier_solve(F3.from_int(1))
print(f"\nx^3 - x = 1 has no F_3 solution (trace 1 != 0); a solution in "
      f"F_{{3^{K.e}}} is {x}")
print("its three translates by F_3 exhaust the solutions:",
      [str(x + K.from_int(j)) for j in range(3)])

rs = build_root_system("A1")
chi = PChar(rs, 3, values=(F3.from_int(1),))
weights, ambient = enumerate_lambda_chi(chi)
print(f"\nLambda_chi for sl2, p=3, chi(h)=1 lives in F_{{3^{ambient.e}}}:")
for w in weights:
    print("  lambda(h) =", w[0])

blocks = mod_blocks(chi)
print(f"\nthis regular semisimple character has {len(blocks)} blocks, "
      f"all of dimension {blocks[0].dim} (fully Azumaya)")
