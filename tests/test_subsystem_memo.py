"""The per-root-system memo of subsystem_classify and the derived data each
Subsystem computes once: a repeated subset returns the same object, the memo
never crosses root systems or keeps a failure, and the cached is_parabolic
equals a fresh computation."""

import pytest

from lieram.errors import NotClosed
from lieram.modular import mod_blocks
from lieram.quantum import q_blocks
from lieram.rootdata import Subsystem, build_root_system, subsystem_classify
from lieram.selftest import MATRIX_TYPES, close_up, modular_cells, quantum_cells
from lieram.weyl import enumerate_group


def test_same_set_in_any_container_is_one_subsystem():
    b3 = build_root_system("B3")
    roots = close_up(b3, [(1, 0, 0), (0, 0, 1)])
    first = subsystem_classify(b3, set(roots))
    assert subsystem_classify(b3, sorted(roots)) is first
    assert subsystem_classify(b3, frozenset(roots)) is first
    assert subsystem_classify(b3, list(roots)[::-1]) is first
    assert first.type_str == "A1xA1"


def test_memo_is_separate_per_root_system():
    b2, c2 = build_root_system("B2"), build_root_system("C2")
    # the tuples of Phi(B2) are not closed in C2, and conversely (a rank-2
    # double bond is reported as B2 on either side)
    for own, other in ((b2, c2), (c2, b2)):
        assert subsystem_classify(own, own.all_roots()).type_str == "B2"
        with pytest.raises(NotClosed):
            subsystem_classify(other, own.all_roots())
    # a subset closed in both is classified once per system
    both = {(1, 0), (-1, 0)}
    sub_b, sub_c = subsystem_classify(b2, both), subsystem_classify(c2, both)
    assert sub_b is not sub_c and sub_b.rs is b2 and sub_c.rs is c2
    # A2 and G2 share these tuples; they are all of Phi(A2) and not closed in G2
    a2, g2 = build_root_system("A2"), build_root_system("G2")
    tri = a2.all_roots()
    assert subsystem_classify(a2, tri).type_str == "A2"
    with pytest.raises(NotClosed):
        subsystem_classify(g2, tri)
    assert subsystem_classify(a2, set(tri)).type_str == "A2"


def test_not_closed_raises_on_every_call_and_is_not_kept():
    a2 = build_root_system("A2")
    bad = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    kept = len(a2._subsystems)
    for _ in range(3):
        with pytest.raises(NotClosed):
            subsystem_classify(a2, bad)
        with pytest.raises(NotClosed):
            subsystem_classify(a2, [(1, 0)])
    assert len(a2._subsystems) == kept
    assert frozenset(bad) not in a2._subsystems


def parabolic_by_search(rs, roots, W):
    """Some w in W carries `roots` onto a standard parabolic Phi_J."""
    for w in W:
        moved = frozenset(w.apply_root(b) for b in roots)
        off = [k for k in range(rs.rank) if tuple(int(i == k) for i in range(rs.rank))
               not in moved]
        if moved == frozenset(b for b in rs.all_roots() if not any(b[k] for k in off)):
            return True
    return False


def test_cached_derived_data_matches_a_fresh_computation():
    for _t, _p, _name, chi in modular_cells():
        mod_blocks(chi)
    for _t, _ell, _name, chi in quantum_cells():
        q_blocks(chi)
    checked = 0
    for t in MATRIX_TYPES:
        rs = build_root_system(t)
        W = enumerate_group(rs)
        for roots, sub in list(rs._subsystems.items()):
            assert sub.roots == roots
            fresh = Subsystem(rs, sub.roots, sub.basis, sub.components)
            assert sub.is_parabolic == fresh.is_parabolic
            assert sub.is_parabolic == parabolic_by_search(rs, roots, W)
            checked += 1
    assert checked > 20
