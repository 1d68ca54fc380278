import itertools
import random

import networkx as nx
import pytest

from omlkit.corpus import (
    benzene,
    benzene_ortholattice,
    boolean_oml,
    diamond,
    mo,
    two_squared,
)
from omlkit.errors import NotComplement, NotOML, NotOrderInverting
from omlkit.lattice import find_isomorphism, maximal_chains, predicates
from omlkit.ortho import (
    _maximal_cliques,
    _verify_boolean_subalgebra,
    blocks,
    center,
    commutation_matrix,
    commutator,
    commutes,
    decompose,
    has_n_covering,
    horizontal_sum,
    interval_oml,
    is_directly_irreducible,
    is_orthomodular,
    ortholattice,
    product,
)


def test_m2_with_swap_perp_is_boolean():
    OL = two_squared()
    ok, w = is_orthomodular(OL)
    assert ok and w is None
    p = predicates(OL.lattice)
    assert p.is_distributive


def test_benzene_is_valid_ortholattice():
    OL = benzene_ortholattice()
    assert OL.perp_name("a") == "d"


def test_identity_perp_rejected():
    M2 = diamond(2)
    bad = {"0": "1", "1": "0", "a1": "a1", "a2": "a2"}
    with pytest.raises(NotComplement):
        ortholattice(M2, bad)


def test_non_inverting_perp_rejected():
    C4 = __import__("omlkit.corpus", fromlist=["chain"]).chain(4)
    # swapping only the middle pair is order-preserving, not inverting
    bad = {"c0": "c3", "c3": "c0", "c1": "c1", "c2": "c2"}
    with pytest.raises((NotOrderInverting, NotComplement)):
        ortholattice(C4, bad)


def test_orthomodularity_verdicts():
    for n in range(1, 6):
        ok, _ = is_orthomodular(boolean_oml(n))
        assert ok
    ok, w = is_orthomodular(benzene_ortholattice())
    assert not ok and w == ("a", "b")
    ok, _ = is_orthomodular(mo(2))
    assert ok


def test_benzene_witness_value():
    OL = benzene_ortholattice()
    L = OL.lattice
    a, b = L.index("a"), L.index("b")
    rebuilt = L.join[a, L.meet[int(OL.perp[a]), b]]
    assert L.names[rebuilt] == "a" != "b"


def test_commutator_examples():
    cube = boolean_oml(3)
    for x, y in itertools.combinations(cube.names, 2):
        assert commutator(cube, x, y) == cube.names[cube.bottom]
    MO2 = mo(2)
    assert commutator(MO2, "s0:a1", "s1:a1") == "1"


def test_comparable_elements_commute(omls):
    for nm, OL in omls.items():
        L = OL.lattice
        for x in range(L.n):
            for y in range(L.n):
                if L.leq[x, y]:
                    assert commutes(OL, L.names[x], L.names[y]), nm


def test_commutes_warns_on_non_oml():
    OL = benzene_ortholattice()
    with pytest.warns(UserWarning):
        commutes(OL, "a", "c")


def test_blocks_examples():
    cube = boolean_oml(3)
    bl = blocks(cube)
    assert len(bl) == 1 and bl[0].elements == frozenset(cube.names)
    MO2 = mo(2)
    bl = blocks(MO2)
    assert len(bl) == 2
    for b in bl:
        assert len(b.elements) == 4
    with pytest.raises(NotOML):
        blocks(benzene_ortholattice())


def test_blocks_cover_the_ol(omls):
    for nm, OL in omls.items():
        union = set()
        for b in blocks(OL):
            union |= b.elements
        assert union == set(OL.names), nm


def _cliques_match_networkx(matrix):
    """The bitset clique routine against nx.find_cliques on one graph."""
    n = len(matrix)
    adj = [sum(1 << j for j in range(n) if j != i and matrix[i][j])
           for i in range(n)]
    got = [frozenset(j for j in range(n) if mask >> j & 1)
           for mask in _maximal_cliques(adj)]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, j) for i in range(n) for j in range(i + 1, n)
                     if matrix[i][j])
    want = {frozenset(c) for c in nx.find_cliques(g)}
    assert len(got) == len(set(got))
    assert set(got) == want


def test_cliques_match_networkx_on_commutation_graphs(omls, kalmbach_corpus):
    for OL in omls.values():
        if is_orthomodular(OL)[0]:
            _cliques_match_networkx(commutation_matrix(OL).tolist())
    for K in kalmbach_corpus.values():
        _cliques_match_networkx(
            commutation_matrix(K.as_ortholattice()).tolist())


def test_cliques_match_networkx_on_random_graphs():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 40)
        p = rng.choice((0.1, 0.3, 0.5, 0.8, 0.95))
        m = [[False] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            m[i][j] = m[j][i] = rng.random() < p
        _cliques_match_networkx(m)


def test_cliques_of_degenerate_graphs():
    _cliques_match_networkx([[False]])
    _cliques_match_networkx([[False] * 5 for _ in range(5)])
    _cliques_match_networkx([[True] * 9 for _ in range(9)])
    assert list(_maximal_cliques([])) == []
    assert list(_maximal_cliques([0, 0, 0])) == [1, 2, 4]
    assert list(_maximal_cliques([6, 5, 3])) == [7]


def _ids(OL, names):
    return [OL.index(nm) for nm in names]


def test_whole_mo2_and_mo3_are_not_distributive():
    for k in (2, 3):
        OL = mo(k)
        with pytest.raises(AssertionError, match="not distributive"):
            _verify_boolean_subalgebra(OL, range(OL.n))


def test_boolean_candidate_rejections():
    cube = boolean_oml(3)
    _verify_boolean_subalgebra(cube, range(cube.n))
    with pytest.raises(AssertionError, match="misses a bound"):
        _verify_boolean_subalgebra(
            cube, [i for i in range(cube.n) if i != cube.top])
    with pytest.raises(AssertionError, match="not closed under perp"):
        _verify_boolean_subalgebra(cube, _ids(cube, ["000", "111", "100"]))
    with pytest.raises(AssertionError, match="not closed under meet/join"):
        _verify_boolean_subalgebra(cube, _ids(
            cube, ["000", "111", "100", "011", "010", "101"]))


def test_verifier_gives_the_same_errors_from_tables_and_k_queries(
        kalmbach_corpus):
    # K(M2) is MO2; its OrthoLattice keeps K's ids, so one candidate is fed
    # once from table slices and once from K's batch queries
    K = kalmbach_corpus["M2"]
    OL = K.as_ortholattice()
    assert find_isomorphism(OL.lattice, mo(2).lattice, OL.perp, mo(2).perp)
    atom = K.atoms_idx()[0]
    for members, message in (
            ([i for i in range(K.n) if i != K.top], "misses a bound"),
            ([K.bottom, K.top, atom], "not closed under perp"),
            (range(K.n), "not distributive")):
        errors = []
        for Q in (OL, K):
            with pytest.raises(AssertionError, match=message) as exc:
                _verify_boolean_subalgebra(Q, members)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
    for Q in (OL, K):
        _verify_boolean_subalgebra(Q, [K.bottom, K.top, atom, K.perp(atom)])


def test_center_and_irreducibility():
    cube = boolean_oml(3)
    assert center(cube) == set(cube.names)
    MO2 = mo(2)
    assert center(MO2) == {"0", "1"}
    assert is_directly_irreducible(MO2)
    assert not is_directly_irreducible(cube)


def test_decompose_recovers_factors():
    P = product([mo(2), boolean_oml(1)])
    # central element projecting onto the first factor
    c = next(
        nm for nm in center(P) - {P.names[P.bottom], P.names[P.top]}
        if nm.startswith("1|") or nm.endswith("|0")
    )
    f1, f2 = decompose(P, c)
    sizes = sorted([f1.n, f2.n])
    assert sizes == [2, 6]
    small = f1 if f1.n == 2 else f2
    big = f1 if f1.n == 6 else f2
    assert find_isomorphism(big.lattice, mo(2).lattice, big.perp, mo(2).perp)
    assert find_isomorphism(small.lattice, boolean_oml(1).lattice,
                            small.perp, boolean_oml(1).perp)


def test_horizontal_sum_examples():
    MO2 = horizontal_sum([two_squared(), two_squared()])
    assert MO2.n == 6
    assert len([a for a in MO2.names if a not in ("0", "1")]) == 4
    single = horizontal_sum([two_squared()])
    assert single.n == 4
    MO3 = horizontal_sum([two_squared()] * 3)
    assert MO3.n == 8


def test_interval_oml_examples():
    cube = boolean_oml(3)
    coatom = next(
        cube.names[i]
        for i in range(cube.n)
        if cube.lattice.cover_matrix[i, cube.top]
    )
    sub = interval_oml(cube, cube.names[cube.bottom], coatom)
    assert sub.n == 4
    MO2 = mo(2)
    tiny = interval_oml(MO2, "0", "s0:a1")
    assert tiny.n == 2


def test_interval_isomorphism_over_omls(omls):
    # interval_oml internally verifies [x,y] iso [0, y ^ x'] on every call
    for nm, OL in omls.items():
        if OL.n > 12:
            continue
        L = OL.lattice
        for x in range(L.n):
            for y in range(L.n):
                if L.leq[x, y]:
                    interval_oml(OL, L.names[x], L.names[y])


def test_has_n_covering_examples():
    assert has_n_covering(mo(2), 1) == (True, None)
    for n in range(1, 5):
        assert has_n_covering(boolean_oml(n), 1) == (True, None)


def test_covering_predicates_agree(omls):
    # semimodular, dual semimodular and the 1-covering property coincide
    for nm, OL in omls.items():
        p = predicates(OL.lattice)
        cov1, _ = has_n_covering(OL, 1)
        assert p.is_semimodular == p.is_dual_semimodular == cov1, nm


def test_irreducible_covering_implies_modular(omls):
    for nm, OL in omls.items():
        cov1, _ = has_n_covering(OL, 1)
        if is_directly_irreducible(OL) and cov1:
            assert predicates(OL.lattice).is_modular, nm


def test_maximal_chains_weakly_atomic(omls):
    # finite OMLs: every maximal chain moves by covers only
    for nm, OL in omls.items():
        L = OL.lattice
        for C in maximal_chains(L):
            for a, b in zip(C, C[1:]):
                assert L.cover_matrix[L.index(a), L.index(b)], nm


def test_foulis_holland_on_commuting_triples(omls):
    for nm, OL in omls.items():
        if OL.n > 10:
            continue
        L = OL.lattice
        bottom_name = L.names[L.bottom]
        names = list(L.names)
        for x, y, z in itertools.product(names, repeat=3):
            if (commutes(OL, x, y) and commutes(OL, y, z)
                    and commutes(OL, x, z)):
                xi, yi, zi = L.index(x), L.index(y), L.index(z)
                lhs = L.meet[xi, L.join[yi, zi]]
                rhs = L.join[L.meet[xi, yi], L.meet[xi, zi]]
                assert lhs == rhs, (nm, x, y, z)


def test_product_of_omls_is_oml():
    P = product([mo(2), mo(3)])
    ok, _ = is_orthomodular(P)
    assert ok and P.n == 48


def test_benzene_lattice_without_perp_builds():
    assert benzene().n == 6
