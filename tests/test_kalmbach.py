import copy
import importlib
import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest

from omlkit.corpus import chain, diamond, mo
from omlkit.errors import NotOML, TooLarge
from omlkit.kalmbach import (
    MAX_TABLE_BYTES,
    VERIFY_CAP,
    VERIFY_SAMPLE,
    KalmbachOML,
    _kleq_tables,
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
from omlkit.latfile import document_from_lattice
from omlkit.corpus import benzene_ortholattice, boolean_cube
from omlkit.ortho import _interval_height, commutation_matrix, is_orthomodular
from omlkit.rn import covering_report, rn_lattice

# the package re-exports the function kalmbach under the module's name
KALMBACH_MODULE = importlib.import_module("omlkit.kalmbach")


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


def test_interval_queries_match_the_dense_order(kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        leq = K.as_ortholattice().lattice.leq
        ids = np.arange(K.n)
        dense = leq.astype(np.int64) @ leq.astype(np.int64)
        xs, ys = (a.ravel() for a in np.meshgrid(ids, ids, indexing="ij"))
        k, s = K.interval_members(xs, ys)
        assert (np.bincount(k, minlength=K.n * K.n) == dense.ravel()).all(), nm
        got = np.zeros((K.n * K.n, K.n), dtype=bool)
        got[k, s] = True
        want = leq[xs] & leq[:, ys].T  # row k: the elements of [xs[k], ys[k]]
        assert (got == want).all(), nm


def test_interval_members_takes_scalar_ids(kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        leq = K.as_ortholattice().lattice.leq
        for a in K.atoms_idx():
            k, s = K.interval_members(a, K.top)
            k1, s1 = K.interval_members([a], [K.top])
            assert (k.tolist(), s.tolist()) == (k1.tolist(), s1.tolist()), nm
            assert len(s) == leq[a].sum(), nm  # [a, 1] is the up-set of a


def test_interval_heights_match_the_dense_heights(kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        L = K.as_ortholattice().lattice
        xs, ys = np.nonzero(L.leq)
        want = [min(_interval_height(L, x, y), 3) for x, y in zip(xs, ys)]
        assert K.interval_heights(xs, ys).tolist() == want, nm
        assert K.interval_heights(xs[0], ys[0]) == want[0], nm


def test_isomorphism_queries_need_an_orthomodular_k(kalmbach_corpus):
    # interval heights and covers go through z -> z ^ x', an OML fact
    for verdict in (None, False):
        K = copy.copy(kalmbach_corpus["2^3"])
        K.orthomodular = verdict
        with pytest.raises(NotOML):
            K.interval_heights(K.bottom, K.top)
        with pytest.raises(NotOML):
            covering_report(K)
        with pytest.raises(NotOML):
            document_from_lattice(K)


def test_one_row_blocks_match_the_dense_references(kalmbach_corpus,
                                                   monkeypatch):
    # a budget of one byte makes every kernel step a single pair
    monkeypatch.setattr(KALMBACH_MODULE, "_BLOCK_BYTES", 1)
    test_broadcast_queries_match_dense_references(kalmbach_corpus)
    test_interval_queries_match_the_dense_order(kalmbach_corpus)
    test_interval_heights_match_the_dense_heights(kalmbach_corpus)


def test_bound_checks_run_in_the_last_block(kalmbach_corpus, monkeypatch):
    # one pair per block, and only the last pair reads the flipped row x;
    # without the bit of x v x' (x ^ x') the bound set is empty
    monkeypatch.setattr(KALMBACH_MODULE, "_BLOCK_BYTES", 1)
    K = kalmbach_corpus["2^3"]
    ids = np.arange(K.n)
    x = ids[-1]
    px = K.perp(x)
    for table, bound, end, message in (
            ("_up", "join_batch", K.top,
             "upper-bound set has no least element"),
            ("_down", "meet_batch", K.bottom,
             "lower-bound set has no greatest element")):
        bad = _flipped(K, table, x, end)
        head = getattr(bad, bound)(ids[:-1, None], px)
        assert (head == getattr(K, bound)(ids[:-1, None], px)).all()
        with pytest.raises(AssertionError, match=message):
            getattr(bad, bound)(ids[:, None], px)


def _scalar_pairs(n, sample, seed):
    """The documented sampled-pair rule of ``_pair_blocks``, a word at a time."""
    rng = random.Random(seed)
    bits = (n - 1).bit_length()
    pairs = []
    for s in range(0, sample, 1 << 14):
        want = 2 * min(1 << 14, sample - s)
        values = []
        while len(values) < want:
            buf = rng.randbytes(4 * (want - len(values)))
            for w in range(0, len(buf), 4):
                v = int.from_bytes(buf[w : w + 4], "little") & ((1 << bits) - 1)
                if v < n:
                    values.append(v)
        pairs += zip(values[0::2], values[1::2])
    return pairs


def test_pair_blocks_match_the_scalar_generators():
    n = 200  # n * n and the sample both span more than one block
    blocks = _pair_blocks(n, None, 0)
    got = [(int(i), int(j)) for bi, bj in blocks for i, j in zip(bi, bj)]
    assert got == [(i, j) for i in range(n) for j in range(n)]
    expected = _scalar_pairs(n, 40_000, 7)
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
    drawn = set(_scalar_pairs(K.n, 50, 5))
    (i, j) = min(drawn)
    with pytest.raises(AssertionError, match="order mismatch"):
        _flipped(K, "_up", i, j).check_order_against_definition(50, 5)
    (i, j) = min(set(itertools.product(range(K.n), repeat=2)) - drawn)
    _flipped(K, "_up", i, j).check_order_against_definition(50, 5)


def test_sampled_order_check_on_a_large_k(rn3):
    K = rn3[1]
    assert K.n > VERIFY_CAP  # kalmbach() checked it on a sample
    ids, inside = _kleq_tables(K.base, K.seqs)
    i, j = next(_pair_blocks(K.n, VERIFY_SAMPLE, 0))
    want = inside[j[:, None], ids[i]].all(axis=1)
    leq = K.base.leq
    assert want.tolist() == [kleq_terms(leq, K.seqs[x], K.seqs[y])
                             for x, y in zip(i.tolist(), j.tolist())]
    assert want.any() and not want.all()
    x, y = int(i[1000]), int(j[1000])
    assert (x, y) not in set(zip(i[:1000].tolist(), j[:1000].tolist()))
    message = re.escape(f"order mismatch at ({K.names[x]}, {K.names[y]})")
    with pytest.raises(AssertionError, match=message):
        _flipped(K, "_up", x, y).check_order_against_definition(VERIFY_SAMPLE)


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
    assert _premise(K) == (True, True) and _premise(bad) != (True, True)
    # the same with two elements that are neither atoms nor bounds; the law
    # then fails at a y above no x with x' ^ y = 0, so only the broken
    # premise sends the check to the full rerun
    c, d = K.index("(000,100,110,111)"), K.index("(000,110)")
    bad = copy.copy(K)
    bad.perp_idx = K.perp_idx.copy()
    bad.perp_idx[[c, d]] = bad.perp_idx[[d, c]]
    law, atom = _law_and_atom_test_ys(bad)
    assert _premise(bad) != (True, True) and law - atom
    verdict = bad.check_orthomodular()
    assert verdict == _scalar_orthomodular(bad)
    assert verdict[0] is False


def _premise(K):
    """(x ^ x' = 0 for every x, perp reverses the order)."""
    return (
        all(K.meet_idx(x, K.perp(x)) == K.bottom for x in range(K.n)),
        all(K.leq_idx(K.perp(y), K.perp(x))
            for x in range(K.n) for y in range(K.n) if K.leq_idx(x, y)),
    )


def _law_and_atom_test_ys(K):
    """The y with some x < y failing the law, and those with x' ^ y = 0."""
    law, atom = set(), set()
    for x, y in itertools.product(range(K.n), repeat=2):
        if x != y and K.leq_idx(x, y):
            m = K.meet_idx(K.perp(x), y)
            if m == K.bottom:
                atom.add(y)
            if K.join_idx(x, m) != y:
                law.add(y)
    return law, atom


def test_orthomodular_check_tests_each_half_of_its_premise(kalmbach_corpus):
    # perp breaks one half of the premise, and the law fails at a y that
    # the atom test alone would pass
    K = kalmbach_corpus["M2"]
    a = K.index("(a2,1)")
    bottom_to_atom = copy.copy(K)
    bottom_to_atom.perp_idx = K.perp_idx.copy()
    bottom_to_atom.perp_idx[K.bottom] = a
    constant = copy.copy(K)
    constant.perp_idx = np.full(K.n, a)
    for bad, premise in ((bottom_to_atom, (True, False)),
                         (constant, (False, True))):
        law, atom = _law_and_atom_test_ys(bad)
        assert _premise(bad) == premise and law - atom
        verdict = bad.check_orthomodular()
        assert verdict == _scalar_orthomodular(bad)
        assert verdict[0] is False


def test_orthomodular_check_searches_no_bounds_on_an_oml(kalmbach_corpus,
                                                         monkeypatch):
    # in an OML no x < y has x' ^ y = 0, so the law is never rerun
    def refuse(*args):
        raise AssertionError("join or meet searched")

    monkeypatch.setattr(KalmbachOML, "join_batch", refuse)
    monkeypatch.setattr(KalmbachOML, "meet_batch", refuse)
    for nm, K in kalmbach_corpus.items():
        assert K.check_orthomodular() == (True, None), nm


def test_orthomodular_check_matches_scalar_loop_on_corpus(kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        assert K.check_orthomodular() == _scalar_orthomodular(K), nm


def test_orthomodular_witness_under_a_valid_orthocomplement():
    # a K-shaped object over benzene O6: a valid ortholattice that is not
    # orthomodular, so the law fails while its premise holds
    OL = benzene_ortholattice()
    L = OL.lattice
    ext = np.array(L.linear_extension())
    K = object.__new__(KalmbachOML)
    K._up = np.packbits(L.leq[:, ext], axis=1, bitorder="little")
    K._down = np.packbits(L.leq.T[:, ext], axis=1, bitorder="little")
    K._ext = ext
    K._rank = np.argsort(ext)
    K.perp_idx = OL.perp.astype(np.int64)
    K.names = L.names
    K.seqs = L.names  # only its length, K.n, is read
    K.bottom, K.top = L.bottom, L.top
    law, atom = _law_and_atom_test_ys(K)
    assert _premise(K) == (True, True)
    assert law == atom == {OL.index("b"), OL.index("d")}
    assert K.check_orthomodular() == is_orthomodular(OL) == (False, ("a", "b"))
    assert _scalar_orthomodular(K) == (False, ("a", "b"))


def test_atoms_follow_a_replaced_down_table(kalmbach_corpus):
    K = kalmbach_corpus["2^3"]
    a = K.atoms_idx()[0]
    bad = _flipped(K, "_down", a, K.bottom)
    assert a in K.atoms_idx() and a not in bad.atoms_idx()


def _union_is_chain(K, i, j):
    terms = set(K.seqs[i]) | set(K.seqs[j])
    leq = K.base.leq
    return all(leq[u, v] or leq[v, u] for u in terms for v in terms)


def test_broadcast_queries_match_dense_references(kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        OL = K.as_ortholattice()
        ids = np.arange(K.n)
        assert (K.join_batch(ids[:, None], ids) == OL.lattice.join).all(), nm
        assert (K.meet_batch(ids[:, None], ids) == OL.lattice.meet).all(), nm
        assert (K.commutes_idx(ids[:, None], ids)
                == commutation_matrix(OL)).all(), nm
        chains = [[_union_is_chain(K, i, j) for j in ids] for i in ids]
        assert (K.union_is_chain(ids[:, None], ids) == np.array(chains)).all(), nm


def _two_bounds(K, leq, bound):
    """(x, y, w) with w a bound of y that is incomparable with bound(x, y).

    The bound differs from x, so a flipped bit in row x leaves its row intact.
    """
    for x, y, w in itertools.product(range(K.n), repeat=3):
        z = bound(x, y)
        if z != x and leq(y, w) and not (leq(z, w) or leq(w, z)):
            return x, y, w
    raise AssertionError("no such triple")


def test_bound_check_rejects_two_extreme_bounds(kalmbach_corpus):
    # a flipped bit puts w into the bound set of (x, y) next to the true
    # bound; the set then has two minimal (maximal) elements
    K = kalmbach_corpus["2^3"]
    ids = np.arange(K.n)
    x, y, w = _two_bounds(K, K.leq_idx, K.join_idx)
    bad = _flipped(K, "_up", x, w)
    message = "upper-bound set has no least element"
    with pytest.raises(AssertionError, match=message):
        bad.join_idx(x, y)
    with pytest.raises(AssertionError, match=message):
        bad.join_batch(ids[:, None], ids)
    x, y, w = _two_bounds(K, lambda a, b: K.leq_idx(b, a), K.meet_idx)
    bad = _flipped(K, "_down", x, w)
    message = "lower-bound set has no greatest element"
    with pytest.raises(AssertionError, match=message):
        bad.meet_idx(x, y)
    with pytest.raises(AssertionError, match=message):
        bad.meet_batch(ids[:, None], ids)


def test_bound_check_rejects_an_empty_bound_set(kalmbach_corpus):
    # x v x' is the top, and x ^ x' the bottom; without that bit the bound
    # set is empty, and no element may be returned for it
    K = kalmbach_corpus["2^3"]
    ids = np.arange(K.n)
    x = K.atoms_idx()[0]
    px = K.perp(x)
    bad = _flipped(K, "_up", x, K.top)
    message = "upper-bound set has no least element"
    with pytest.raises(AssertionError, match=message):
        bad.join_idx(x, px)
    with pytest.raises(AssertionError, match=message):
        bad.join_batch(ids[:, None], ids)
    bad = _flipped(K, "_down", x, K.bottom)
    message = "lower-bound set has no greatest element"
    with pytest.raises(AssertionError, match=message):
        bad.meet_idx(x, px)
    with pytest.raises(AssertionError, match=message):
        bad.meet_batch(ids[:, None], ids)


def _scalar_kcommute(K):
    for i in range(K.n):
        for j in range(i, K.n):
            pi, pj = K.perp(i), K.perp(j)
            gamma = K.meet_idx(
                K.meet_idx(K.join_idx(i, j), K.join_idx(i, pj)),
                K.meet_idx(K.join_idx(pi, j), K.join_idx(pi, pj)),
            )
            if (gamma == K.bottom) != _union_is_chain(K, i, j):
                return False
    return True


def test_kcommute_check_can_fail(kalmbach_corpus):
    K = kalmbach_corpus["2^3"]
    assert kcommute_check(K) is _scalar_kcommute(K) is True
    bad = copy.copy(K)
    bad.perp_idx = K.perp_idx.copy()
    a, b = K.atoms_idx()[:2]
    bad.perp_idx[[a, b]] = bad.perp_idx[[b, a]]
    assert kcommute_check(bad) is _scalar_kcommute(bad) is False
