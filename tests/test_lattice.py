import itertools

import numpy as np
import pytest

from omlkit.corpus import boolean_cube, chain, diamond, pentagon
from omlkit.errors import (
    CycleDetected,
    NoBounds,
    NotALattice,
    NotBelowJoin,
    NotComparable,
    TooLarge,
)
from omlkit.lattice import (
    atoms,
    compactness_witness,
    covers,
    find_isomorphism,
    height,
    interval,
    lattice_from_covers,
    maximal_chains,
    predicates,
)


def test_two_chain_from_covers():
    L = lattice_from_covers(["0", "1"], [("0", "1")])
    assert L.n == 2
    assert L.meet_idx(L.index("0"), L.index("1")) == L.index("0")


def test_diamond_meet_join():
    L = lattice_from_covers(
        ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    )
    assert L.join_idx(L.index("a"), L.index("b")) == L.index("1")
    assert L.meet_idx(L.index("a"), L.index("b")) == L.index("0")


def test_pentagon_accepted_but_not_modular():
    N5 = pentagon()
    p = predicates(N5)
    assert not p.is_modular
    assert p.witnesses["is_modular"]


def test_not_a_lattice_rejected():
    # two incomparable elements with two minimal upper bounds
    with pytest.raises(NotALattice):
        lattice_from_covers(
            ["0", "a", "b", "c", "d", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"),
             ("a", "d"), ("b", "d"), ("c", "1"), ("d", "1")],
        )


def test_cycle_rejected():
    with pytest.raises(CycleDetected):
        lattice_from_covers(["a", "b"], [("a", "b"), ("b", "a")])


def test_empty_rejected():
    with pytest.raises(NoBounds):
        lattice_from_covers([], [])


def test_size_cap():
    names = [str(i) for i in range(10)]
    with pytest.raises(TooLarge):
        lattice_from_covers(names, list(zip(names, names[1:])), max_size=5)


def test_covers_and_atoms_examples():
    M2 = diamond(2)
    assert covers(M2) == {("0", "a1"), ("0", "a2"), ("a1", "1"), ("a2", "1")}
    assert atoms(M2) == {"a1", "a2"}
    C4 = chain(4)
    assert atoms(C4) == {"c1"}
    cube = boolean_cube(3)
    assert len(atoms(cube)) == 3
    assert len(covers(cube)) == 12


def _is_chain_maximal(L, chain_names):
    """True iff no element of L can be inserted into the chain."""
    idx = [L.index(nm) for nm in chain_names]
    for z in range(L.n):
        if z in idx:
            continue
        if all(L.leq[z, u] or L.leq[u, z] for u in idx):
            return False
    return True


def test_maximal_chains_examples():
    M2 = diamond(2)
    assert maximal_chains(M2) == [("0", "a1", "1"), ("0", "a2", "1")]
    N5 = pentagon()
    assert maximal_chains(N5) == [("0", "a", "b", "1"), ("0", "c", "1")]
    cube = boolean_cube(3)
    chains = maximal_chains(cube)
    assert len(chains) == 6
    assert all(len(c) == 4 for c in chains)
    for c in chains:
        assert _is_chain_maximal(cube, c)


def test_height_of_cubes():
    for n in range(1, 6):
        assert height(boolean_cube(n)) == n


def test_interval_examples():
    cube = boolean_cube(3)
    a = sorted(atoms(cube))[0]
    view = interval(cube, a, cube.names[cube.top])
    assert view.lattice.n == 4
    assert find_isomorphism(view.lattice, boolean_cube(2)) is not None
    point = interval(cube, a, a)
    assert point.lattice.n == 1
    assert height(point.lattice) == 0
    with pytest.raises(NotComparable):
        interval(cube, cube.names[cube.top], a)


def test_find_isomorphism_maps_order_and_perp():
    cube = boolean_cube(4)
    full = np.array([cube.index("".join("10"[int(c)] for c in nm))
                     for nm in cube.names])
    iso = find_isomorphism(cube, cube, full, full)
    f = np.array([cube.index(iso[nm]) for nm in cube.names])
    assert (cube.leq[np.ix_(f, f)] == cube.leq).all()
    assert (f[full] == full[f]).all()
    assert find_isomorphism(chain(3), chain(4)) is None
    assert find_isomorphism(pentagon(), diamond(3)) is None
    assert find_isomorphism(cube, cube, full, np.arange(cube.n)) is None


def test_predicates_m2():
    p = predicates(diamond(2))
    assert p.is_modular and p.has_covering and p.is_complemented


def test_pentagon_witness_is_least():
    p = predicates(pentagon())
    x, y, z = p.witnesses["is_modular"]
    L = pentagon()
    xi, yi, zi = L.index(x), L.index(y), L.index(z)
    assert L.leq_idx(xi, zi)
    assert L.join_idx(xi, L.meet_idx(yi, zi)) != L.meet_idx(L.join_idx(xi, yi), zi)


def test_finite_atomicity_collapse(corpus):
    # at finite scale: atomic iff weakly atomic iff strongly atomic
    for nm, L in corpus.items():
        p = predicates(L)
        assert p.is_atomic == p.is_weakly_atomic == p.is_strongly_atomic, nm


def test_lattice_axioms_on_corpus(corpus):
    for nm, L in corpus.items():
        meet, join = L.meet, L.join
        n = L.n
        assert (meet == meet.T).all() and (join == join.T).all(), nm
        idx = np.arange(n)
        # absorption: x ^ (x v y) = x and x v (x ^ y) = x
        assert (meet[idx[:, None], join] == idx[:, None]).all(), nm
        assert (join[idx[:, None], meet] == idx[:, None]).all(), nm
        # associativity over all triples, vectorized
        assert (join[join] == join[:, join]).all(), nm
        assert (meet[meet] == meet[:, meet]).all(), nm


def test_covers_reconstruct_leq(corpus):
    for nm, L in corpus.items():
        adj = L.cover_matrix
        closure = np.eye(L.n, dtype=bool) | adj
        for k in range(L.n):
            closure |= closure[:, k : k + 1] & closure[k : k + 1, :]
        assert (closure == L.leq).all(), nm


def test_compactness_witness_examples():
    cube = boolean_cube(3)
    a = sorted(atoms(cube))[0]
    assert compactness_witness(cube, a, sorted(atoms(cube))) == {a}
    with pytest.raises(NotBelowJoin):
        compactness_witness(cube, cube.names[cube.top], [a])


def test_compactness_witness_minimal(corpus):
    L = corpus["2^3"]
    top = L.names[L.top]
    S = sorted(atoms(L))
    w = compactness_witness(L, top, S)
    assert len(w) == 3  # all three atoms are needed to rebuild the top


def test_compactness_witness_mo2():
    from omlkit.corpus import mo

    MO2 = mo(2)
    S = ["s0:a1", "s0:a2"]
    w = compactness_witness(MO2.lattice, "1", S)
    assert w == {"s0:a1", "s0:a2"}
