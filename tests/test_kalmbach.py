import copy
import itertools
import random
import re
import tracemalloc

import pytest

from omlkit.corpus import chain, diamond, mo
from omlkit.errors import TooLarge
from omlkit.kalmbach import (
    MAX_TABLE_BYTES,
    _pair_blocks,
    kalmbach,
    katoms_check,
    kblocks_check,
    kcommute_check,
    kjoin_by_truncation,
    kleq,
    kleq_terms,
    kperp,
    phi_chain,
    seq_name,
)
from omlkit.lattice import find_isomorphism
from omlkit.corpus import boolean_cube
from omlkit.ortho import is_orthomodular
from omlkit.rn import rn_lattice


def test_chain_law_sizes():
    for k in range(2, 7):
        K = kalmbach(chain(k))
        assert K.n == 2 ** (k - 1)


def test_k_of_c4_is_cube():
    K = kalmbach(chain(4))
    OL = K.as_ortholattice()
    from omlkit.corpus import boolean_oml

    cube = boolean_oml(3)
    assert find_isomorphism(OL.lattice, cube.lattice, OL.perp, cube.perp)


def test_phi_is_order_isomorphism():
    for k in range(2, 7):
        C = chain(k)
        K = kalmbach(C)
        images = {i: phi_chain(C, K.seq_names(i)) for i in range(K.n)}
        ground = set(C.names) - {C.names[C.top]}
        assert set(images.values()) == {
            frozenset(s) for r in range(k) for s in itertools.combinations(ground, r)
        }
        for i in range(K.n):
            for j in range(K.n):
                assert K.leq_idx(i, j) == (images[i] <= images[j])
            # perp maps to set complement
            assert images[K.perp(i)] == ground - images[i]


def test_k_of_m2_is_mo2():
    K = kalmbach(diamond(2))
    assert K.n == 6
    assert len(K.atoms_idx()) == 4
    OL = K.as_ortholattice()
    MO2 = mo(2)
    assert find_isomorphism(OL.lattice, MO2.lattice, OL.perp, MO2.perp)


def test_structure_checks_on_corpus(kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        assert K.orthomodular, nm
        assert katoms_check(K), nm
        assert kblocks_check(K), nm
        assert kcommute_check(K), nm


def test_order_matches_definition(kalmbach_corpus):
    # exhaustive comparison against the interval-containment definition
    for nm, K in kalmbach_corpus.items():
        K.check_order_against_definition()


def test_kleq_definitional_examples():
    C = chain(4)
    assert kleq(C, ("c0", "c1"), ("c0", "c2"))
    assert not kleq(C, ("c0", "c2"), ("c1", "c2"))
    assert kleq(C, (), ("c1", "c2"))


def test_kperp_involution_and_order_inversion(kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        for i in range(K.n):
            assert K.perp(K.perp(i)) == i, nm
            assert K.meet_idx(i, K.perp(i)) == K.bottom, nm
            assert K.join_idx(i, K.perp(i)) == K.top, nm
        if K.n <= 40:
            for i in range(K.n):
                for j in range(K.n):
                    if K.leq_idx(i, j):
                        assert K.leq_idx(K.perp(j), K.perp(i)), nm


def test_kperp_term_sets():
    C = chain(4)
    assert set(kperp(C, ("c0", "c2"))) == {"c2", "c3"}
    assert set(kperp(C, ())) == {"c0", "c3"}


def test_antisymmetry_on_k_of_cube():
    K = kalmbach(boolean_cube(3))
    for i in range(K.n):
        for j in range(i + 1, K.n):
            assert not (K.leq_idx(i, j) and K.leq_idx(j, i))


def test_atoms_are_covers():
    L = diamond(3)
    K = kalmbach(L)
    atom_names = {K.names[i] for i in K.atoms_idx()}
    expected = {
        seq_name(L, (int(a), int(b)))
        for a in range(L.n)
        for b in range(L.n)
        if L.cover_matrix[a, b]
    }
    assert atom_names == expected


def test_commute_iff_union_chain(kalmbach_corpus):
    K = kalmbach_corpus["M3"]
    for i in range(K.n):
        for j in range(K.n):
            assert K.commutes_idx(i, j) == K.union_is_chain(i, j)


def test_truncation_joins_agree(kalmbach_corpus):
    import random

    K = kalmbach_corpus["2^3"]
    rng = random.Random(0)
    for _ in range(200):
        x = K.names[rng.randrange(K.n)]
        y = K.names[rng.randrange(K.n)]
        kjoin_by_truncation(K, x, y)  # raises if the scheme disagrees


def test_subchain_join_embedding():
    # joins taken in K(D) agree with joins taken in K(C) for a bounded
    # subchain D of C
    C = chain(5)
    sub_names = ("c0", "c2", "c4")  # keeps both bounds
    D_pairs = list(zip(sub_names, sub_names[1:]))
    from omlkit.lattice import lattice_from_covers

    D = lattice_from_covers(sub_names, D_pairs)
    KC = kalmbach(C)
    KD = kalmbach(D)
    for i in range(KD.n):
        for j in range(KD.n):
            jd = KD.join_idx(i, j)
            # map by term names into K(C)
            ic = KC.index(seq_name(C, [C.index(nm) for nm in KD.seq_names(i)]))
            jc = KC.index(seq_name(C, [C.index(nm) for nm in KD.seq_names(j)]))
            jc_join = KC.join_idx(ic, jc)
            assert KC.names[jc_join] == KD.names[jd]
            md = KD.meet_idx(i, j)
            mc = KC.meet_idx(ic, jc)
            assert KC.names[mc] == KD.names[md]


def test_blocks_are_chain_algebras():
    K = kalmbach(diamond(2))
    OL = K.as_ortholattice()
    from omlkit.ortho import blocks

    bl = blocks(OL)
    assert len(bl) == len(K.max_chains) == 2


def test_size_cap_enforced():
    with pytest.raises(TooLarge):
        kalmbach(boolean_cube(3), cap=10)


def test_orthomodularity_verdict_stored(kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        ok, w = is_orthomodular(K.as_ortholattice()) if K.n <= 256 else (True, None)
        assert ok == K.orthomodular, nm


def test_table_limit_raises_before_allocating():
    # K(rn 5) has 199,680 elements; its tables would take about 10 GB
    n = 199_680
    projected = 2 * n * ((n + 7) // 8)
    L = rn_lattice(5)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge) as exc:
            kalmbach(L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(projected) in str(exc.value)
    assert str(MAX_TABLE_BYTES) in str(exc.value)
    assert peak < MAX_TABLE_BYTES // 4


def test_leq_idx_matches_scalar_definition(corpus, kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        leq = corpus[nm].leq
        for i, x in enumerate(K.seqs):
            for j, y in enumerate(K.seqs):
                assert K.leq_idx(i, j) == kleq_terms(leq, x, y), (nm, i, j)


def test_pair_blocks_match_the_scalar_generators():
    n = 200  # n * n and the sample both span more than one block
    blocks = _pair_blocks(n, None, 0)
    got = [(int(i), int(j)) for bi, bj in blocks for i, j in zip(bi, bj)]
    assert got == [(i, j) for i in range(n) for j in range(n)]
    rng = random.Random(7)
    expected = [(rng.randrange(n), rng.randrange(n)) for _ in range(40_000)]
    blocks = _pair_blocks(n, 40_000, 7)
    got = [(int(i), int(j)) for bi, bj in blocks for i, j in zip(bi, bj)]
    assert got == expected


def _flipped(K, table, i, j):
    """A copy of K with the bit of pair (i, j) flipped in _up or _down."""
    bad = copy.copy(K)
    rows = getattr(K, table).copy()
    r = int(K._rank[j])
    rows[i, r >> 3] ^= 1 << (r & 7)
    setattr(bad, table, rows)
    return bad


def test_order_check_catches_a_flipped_bit(kalmbach_corpus):
    K = kalmbach_corpus["2^3"]
    i, j = 3, K.n - 2
    message = re.escape(f"order mismatch at ({K.names[i]}, {K.names[j]})")
    with pytest.raises(AssertionError, match=message):
        _flipped(K, "_up", i, j).check_order_against_definition()
    with pytest.raises(AssertionError, match=message):
        _flipped(K, "_down", j, i).check_order_against_definition()
    # sampled: raises exactly when the flipped pair is among the drawn pairs
    rng = random.Random(5)
    drawn = {(rng.randrange(K.n), rng.randrange(K.n)) for _ in range(50)}
    (i, j) = min(drawn)
    with pytest.raises(AssertionError, match="order mismatch"):
        _flipped(K, "_up", i, j).check_order_against_definition(50, 5)
    (i, j) = min(set(itertools.product(range(K.n), repeat=2)) - drawn)
    _flipped(K, "_up", i, j).check_order_against_definition(50, 5)


def _scalar_orthomodular(K):
    worst = None
    for x in range(K.n):
        for y in range(K.n):
            if y != x and K.leq_idx(x, y):
                if K.join_idx(x, K.meet_idx(K.perp(x), y)) != y:
                    cand = (K.names[x], K.names[y])
                    worst = cand if worst is None else min(worst, cand)
    return worst is None, worst


def test_orthomodular_check_matches_scalar_loop(kalmbach_corpus):
    K = kalmbach_corpus["2^3"]
    assert K.check_orthomodular() == _scalar_orthomodular(K) == (True, None)
    bad = copy.copy(K)
    bad.perp_idx = K.perp_idx.copy()
    a, b = K.atoms_idx()[:2]
    bad.perp_idx[[a, b]] = bad.perp_idx[[b, a]]
    verdict = bad.check_orthomodular()
    assert verdict == _scalar_orthomodular(bad)
    assert verdict[0] is False
