"""The unramified criteria and why two routes are kept for each of them.

Modular side: a block is unramified iff its component dimension is one; the
quick test checks (lambda+rho)(h_alpha) outside F_p - {0} on simple roots
only, the definitional test compares two stabilizer subsystem orders.  They
must agree on all of Lambda_chi -- a disagreement would be a finding about
the simple-root criterion, so neither route is allowed to replace the other.

Quantum side: the component-coordinate test checks beta(u)^{2l} = 1 implies
beta(u)^2 = 1 over all positive roots; the highest-weight test checks the
affine-simple set Delta union {-alpha_0} after a W-conjugation, read off the
alcove descent of 2 ell t (the Delta-tilde nodes with Kac coordinate 0 are a
simple system of the conjugated root set).  Both agree with dimension one via
the Harish-Chandra shift.
"""

from fractions import Fraction

from lieram.modular import PChar, block_unramified, dim_C
from lieram.quantum import QChar, TorusElement, hc_shift, q_unramified, w_t
from lieram.rootdata import build_root_system
from lieram.scalars import make_field
from lieram.selftest import enumerate_lambda_chi

rs = build_root_system("B2")
chi = PChar(rs, 3, values=(make_field(3, 1).zero(), make_field(3, 1).one()),
            support=(0,))
weights, _ambient = enumerate_lambda_chi(chi)
agree = 0
for lam in weights:
    flags = block_unramified(rs, lam)
    a, b = flags["simpleRootCriterion"], flags["definitional"]
    c = dim_C(rs, tuple(v + 1 for v in lam)) == 1  # at eta = lam + rho
    assert a == b == c
    agree += a
print(f"B2, p=3, mixed Levi character: {agree}/{len(weights)} weights "
      "unramified; simple-root, definitional and dim-1 tests all agree")

ell = 5
chiq = QChar(rs, ell)
agree = 0
labels = []
for k1 in range(ell):
    for k2 in range(ell):
        labels.append(TorusElement((Fraction(k1, ell), Fraction(k2, ell))))
for t in labels:
    hw = q_unramified(rs, t, "highestWeight", ell)
    u = hc_shift(rs, t, ell, "forward")
    comp = q_unramified(rs, u, "component", ell)
    dim1 = chiq.levi.order == w_t(rs, u.pow(2)).order
    assert hw == comp == dim1
    agree += hw
print(f"B2, ell=5, chi_s=1: {agree}/{len(labels)} baby Verma labels "
      "projective; Delta-tilde, all-roots and dim-1 tests all agree")
