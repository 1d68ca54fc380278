import copy
import gc
import importlib
import itertools
import random
import re
import tracemalloc
import types

import numpy as np
import pytest

from omlkit.corpus import chain, diamond, mo
from omlkit.errors import NotOML, TooLarge
from omlkit.kalmbach import (
    DEFAULT_K_CAP,
    KalmbachOML,
    MAX_DENSE_SIZE,
    OrderCheck,
    _even_chains,
    _kleq_tables,
    _search,
    _signatures,
    _unpack,
    kalmbach,
    katoms_check,
    kblocks,
    kblocks_check,
    kcommute_check,
    kjoin_by_truncation,
    kleq,
    kleq_terms,
    kperp,
    kperp_terms,
    phi_chain,
    seq_name,
)
from omlkit.lattice import find_isomorphism, height, lattice_from_covers
from omlkit.latfile import document_from_lattice
from omlkit.corpus import boolean_cube
from omlkit.ortho import (
    _interval_height,
    blocks,
    commutation_matrix,
    is_orthomodular,
    ortholattice,
)
from omlkit.rn import covering_report, rn_lattice, rn_report

# the package re-exports the function kalmbach under the module's name
KALMBACH_MODULE = importlib.import_module("omlkit.kalmbach")


def test_chain_law_sizes():
    for k in range(2, 7):
        K = kalmbach(chain(k))
        assert K.n == 2 ** (k - 1)


def test_chain_enumeration_leaves_no_garbage_cycle():
    # a cycle would keep the chain list alive until a full collection, so
    # repeated builds would grow the resident set
    gc.collect()
    gc.disable()
    try:
        assert len(_even_chains(chain(6))[0]) == 32
        assert gc.collect() == 0
    finally:
        gc.enable()


def _reference_even_chains(L):
    """Every subset of L that is a chain of even size, as rank-sorted index
    tuples, ordered by rank tuple with a prefix first."""
    rank = {e: k for k, e in enumerate(L.linear_extension())}
    chains = [
        tuple(sorted(s, key=rank.__getitem__))
        for k in range(0, height(L) + 2, 2)
        for s in itertools.combinations(range(L.n), k)
        if all(L.leq[u, v] or L.leq[v, u]
               for u, v in itertools.combinations(s, 2))
    ]
    return sorted(chains, key=lambda c: [rank[e] for e in c])


def test_even_chains_match_a_brute_force_enumeration(corpus):
    # every corpus base, rn 2, and M_70, whose 72 elements take two mask words
    bases = {**corpus, "rn2": rn_lattice(2), "M70": diamond(70)}
    for nm, L in bases.items():
        want = _reference_even_chains(L)
        terms, masks = _even_chains(L)
        p = max(1, max(map(len, want)) // 2)
        assert terms.shape == (len(want), 2 * p), nm
        assert masks.shape == (len(want), -(-L.n // 64)), nm
        bits = _unpack(masks)
        for row, mask, chain_ in zip(terms.tolist(), bits, want):
            pad = [L.top, L.bottom] * (p - len(chain_) // 2)
            assert row == [*chain_, *pad], nm
            assert np.flatnonzero(mask).tolist() == sorted(chain_), nm
    assert masks.shape == (142, 2)


def _reference_signatures(L, lo, hi):
    """One pass over the elements per cover (c, d) of L: bit k of row x is
    set when [c, d] lies inside some interval [x_2i, x_2i+1]."""
    covers = np.argwhere(L.cover_matrix)
    inside = np.zeros((len(lo), 64 * -(-len(covers) // 64)), dtype=bool)
    for k, (c, d) in enumerate(covers):
        inside[:, k] = (L.leq[lo, c] & L.leq[d, hi]).any(axis=1)
    return np.packbits(inside, axis=1, bitorder="little").view("<u8")


def test_table_signatures_match_a_per_cover_loop(corpus):
    # every corpus base, rn 2 to 4, and M_70, whose 140 covers take three
    # signature words
    bases = {**corpus, **{f"rn{r}": rn_lattice(r) for r in (2, 3, 4)},
             "M70": diamond(70)}
    for nm, L in bases.items():
        terms = _even_chains(L)[0]
        lo, hi = terms[:, 0::2], terms[:, 1::2]
        got = _signatures(L, lo, hi)
        assert got.dtype == np.dtype("<u8"), nm
        assert np.array_equal(got, _reference_signatures(L, lo, hi)), nm
    assert int(L.cover_matrix.sum()) == 140 and got.shape == (142, 3)


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


def _check_order(K, terms=None):
    """K's order check, over the terms of its base, enumerated if not given."""
    if terms is None:
        terms = _even_chains(K.base)[0]
    return K.check_order_against_definition(terms[:, 0::2], terms[:, 1::2])


def test_order_matches_definition(kalmbach_corpus):
    # exhaustive comparison against the interval-containment definition
    for nm, K in kalmbach_corpus.items():
        _check_order(K)


def test_interval_terms_are_built_once_per_k(monkeypatch):
    # one enumeration of the chains gives the terms, the interval ends, the
    # masks and perp; kcommute_check enumerates nothing again
    calls, even_chains = [], KALMBACH_MODULE._even_chains

    def counted(L):
        terms, masks = even_chains(L)
        calls.append(len(terms))
        return terms, masks

    monkeypatch.setattr(KALMBACH_MODULE, "_even_chains", counted)
    for L in (boolean_cube(3), rn_lattice(2)):
        K = kalmbach(L)
        assert calls == [K.n]
        assert kcommute_check(K)
        assert calls == [K.n]
        calls.clear()


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


def test_perp_is_the_definitional_kperp(kalmbach_corpus):
    # x' has the terms of x symmetric-differenced with the bounds of L
    ks = {**kalmbach_corpus, "rn2": kalmbach(rn_lattice(2)),
          "M70": kalmbach(diamond(70))}
    for nm, K in ks.items():
        for i, s in enumerate(K.seqs):
            assert K.seqs[K.perp(i)] == kperp_terms(K.base, s), (nm, i)


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


def test_index_inverts_the_names(kalmbach_corpus):
    # every id of every corpus K, of K(rn 2), of K(M_70), whose masks take
    # two words, and of a K over base names holding "," and ")", whose
    # names cannot be split into terms
    odd = lattice_from_covers(["0", "x", "z", "x,a", "w)", "1"],
                              [("0", "x"), ("x", "z"), ("z", "1"),
                               ("0", "x,a"), ("x,a", "w)"), ("w)", "1")])
    Ks = {**kalmbach_corpus, "rn2": kalmbach(rn_lattice(2)),
          "M70": kalmbach(diamond(70)), "odd": kalmbach(odd)}
    for nm, K in Ks.items():
        names = list(K.names)
        assert len(set(names)) == len(names) == K.n, nm
        assert [K.names[i] for i in range(K.n)] == names, nm
        assert [K.index(x) for x in names] == list(range(K.n)), nm
        assert names[K.bottom] == "()", nm
        assert names[K.top] == seq_name(K.base, (K.base.bottom, K.base.top))
    with pytest.raises(KeyError):
        Ks["odd"].index("(x,a)")        # x,a is one base name


def test_index_rejects_what_names_no_element(rn3):
    _, K = rn3
    assert K.names[K.index("(a11,a12)")] == "(a11,a12)"
    for name in ("(a11,a99)",           # a99 is no base name
                 "(a12,a11)",           # the terms of (a11,a12), reversed
                 "(a03,a10)",           # a03 and a10 are incomparable
                 "(a11,a12,a13)",       # a chain of odd length
                 "(a11,a11)",           # a repeated term
                 "(a11,a12", "a11,a12", ""):
        with pytest.raises(KeyError):
            K.index(name)


def test_rn_report_names_few_elements_and_builds_no_tuples(monkeypatch):
    # names are built where the report prints or compares them: under half
    # of K(rn 3)'s 3,584 elements; the term tuples are never built
    calls = []

    def counted(base, terms):
        calls.append(terms)
        return seq_name(base, terms)

    def untouched(K):
        raise AssertionError("K.seqs was read")

    monkeypatch.setattr(KALMBACH_MODULE, "seq_name", counted)
    monkeypatch.setattr(KalmbachOML, "seqs", property(untouched))
    report = rn_report(3)
    assert report["k_size"] == 3584
    assert 0 < len(calls) < report["k_size"] // 2


def test_commutation_is_evaluated_once_per_k(corpus, monkeypatch):
    # kblocks_check and kcommute_check share one evaluation over the pairs;
    # a new perp or new signatures evaluate it again
    calls, commutes_idx = [], KalmbachOML.commutes_idx

    def counted(K, xs, ys):
        calls.append(np.size(xs))
        return commutes_idx(K, xs, ys)

    monkeypatch.setattr(KalmbachOML, "commutes_idx", counted)
    K = kalmbach(corpus["2^3"])
    assert kblocks_check(K) and kcommute_check(K) and kblocks_check(K)
    assert calls == [K.n * (K.n + 1) // 2]
    again = copy.copy(K)
    again.perp_idx = K.perp_idx.copy()
    assert kcommute_check(again) and len(calls) == 2
    again.signatures = K.signatures.copy()
    assert kcommute_check(again) and len(calls) == 3
    assert kcommute_check(K) and len(calls) == 3


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
    bl = blocks(OL)
    assert len(bl) == len(K.max_chains) == 2


def test_k_blocks_match_the_dense_blocks(kalmbach_corpus):
    # the blocks found from K's queries against those of the table-backed
    # OrthoLattice, kept as an independent reference
    for nm, K in kalmbach_corpus.items():
        got = {frozenset(K.names[i] for i in b) for b in kblocks(K)}
        assert got == {b.elements for b in blocks(K.as_ortholattice())}, nm


def test_size_cap_enforced():
    with pytest.raises(TooLarge):
        kalmbach(boolean_cube(3), cap=10)


def test_orthomodularity_verdict_stored(kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        ok, w = is_orthomodular(K.as_ortholattice()) if K.n <= 256 else (True, None)
        assert ok == K.orthomodular, nm


def test_table_limit_raises_before_allocating():
    # K(rn 6) would have 1,490,432 elements, over the default cap; the count
    # comes from the chains of L, before any sequence is enumerated
    L = rn_lattice(6)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge) as exc:
            kalmbach(L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "1490432" in str(exc.value)
    assert str(DEFAULT_K_CAP) in str(exc.value)
    assert peak < 256 << 20


@pytest.mark.parametrize("check", [kblocks_check, kcommute_check])
def test_dense_checks_raise_before_allocating(rn3, check):
    # K(rn 3) has 3,584 elements; its n x n tables or pair arrays would take
    # over 50 MB, and the checks refuse before building any
    K = rn3[1]
    assert K.n > MAX_DENSE_SIZE
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge) as exc:
            check(K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "3584" in str(exc.value) and str(MAX_DENSE_SIZE) in str(exc.value)
    assert peak < 4 << 20


def test_leq_idx_matches_scalar_definition(corpus, kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        leq = corpus[nm].leq
        for i, x in enumerate(K.seqs):
            for j, y in enumerate(K.seqs):
                assert K.leq_idx(i, j) == kleq_terms(leq, x, y), (nm, i, j)


def _definitional_leq(K):
    """The dense order of K, pair by pair from ``kleq_terms``."""
    return np.array([[kleq_terms(K.base.leq, x, y) for y in K.seqs]
                     for x in K.seqs])


def test_interval_queries_match_the_dense_order(kalmbach_corpus):
    # s lies in [x, y] iff x <= s and s <= y, one broadcast leq_batch each
    for nm, K in kalmbach_corpus.items():
        leq = _definitional_leq(K)
        ids = np.arange(K.n)
        assert (K.leq_batch(ids[:, None], ids) == leq).all(), nm
        got = (K.leq_batch(ids[:, None, None], ids[:, None])
               & K.leq_batch(ids[:, None], ids))
        assert (got == leq[:, :, None] & leq[None, :, :]).all(), nm


def test_leq_batch_takes_scalar_ids(kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        leq = _definitional_leq(K)
        ids = np.arange(K.n)
        for a in K.atoms_idx():
            row = K.leq_batch(a, ids)
            assert row.tolist() == K.leq_batch([a], [ids])[0].tolist(), nm
            assert row.tolist() == leq[a].tolist(), nm
            assert np.ndim(K.leq_batch(a, K.top)) == 0, nm


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
    # a budget of one byte makes every step of the order check a single
    # interval, so the pairs it names come from later blocks too
    monkeypatch.setattr(KALMBACH_MODULE, "_BLOCK_BYTES", 1)
    test_order_check_catches_a_flipped_bit(kalmbach_corpus)


def _flipped(K, x, k):
    """A copy of K with bit k of the signature of x flipped."""
    bad = copy.copy(K)
    sig = K.signatures.copy()
    sig[x, k >> 6] ^= np.uint64(1 << (k & 63))
    bad.signatures = sig
    return bad


def _bit(K, atom):
    """The signature bit of an atom of K."""
    return int(K.signatures[atom, 0]).bit_length() - 1


def _fresh_bits(K, x, bits):
    """The pairs of bits that, set in the signature of x, give a signature
    that no element has, and whose pair is no element's signature either."""
    known = set(K.signatures[:, 0].tolist())
    return [(b, c) for b, c in itertools.combinations(bits, 2)
            if (1 << b | 1 << c) not in known
            and (int(K.signatures[x, 0]) | 1 << b | 1 << c) not in known]


def test_lookups_are_checked_up_to_the_last_pair(kalmbach_corpus):
    # meets of every x with y = x_last'; only the last pair reads the row of
    # x_last, which gains two atoms of y that have no element of their own
    K = kalmbach_corpus["2^3"]
    ids = np.arange(K.n)
    x = ids[-1]
    y = K.perp(x)
    bits = [_bit(K, a) for a in K.atoms_idx() if K.leq_idx(a, y)]
    b, c = _fresh_bits(K, x, bits)[0]
    bad = _flipped(_flipped(K, x, b), x, c)
    head = bad.meet_batch(ids[:-1], y)
    assert (head == K.meet_batch(ids[:-1], y)).all()
    with pytest.raises(AssertionError,
                       match="lower-bound set has no greatest element"):
        bad.meet_batch(ids, y)


def _order_message(K, pair):
    i, j = pair
    return re.escape(f"order mismatch at ({K.names[i]}, {K.names[j]})")


def _caught_equal_signatures(bad, x, terms):
    """Whether the signature of x, after a flip, equals that of another
    element y; if so, the order check names the pair, lower id first."""
    sig = bad.signatures[:, 0].tolist()
    if len(set(sig)) == bad.n:
        return False
    y = next(y for y in range(bad.n) if y != x and sig[y] == sig[x])
    first, second = sorted((x, y))
    message = re.escape(f"equal signatures at ({bad.names[first]}, "
                        f"{bad.names[second]})")
    with pytest.raises(AssertionError, match=message):
        _check_order(bad, terms)
    return True


def test_order_check_catches_a_flipped_bit(kalmbach_corpus):
    # every cover bit and the first unused bit of every element of every
    # corpus K of at most 200 elements, flipped one at a time: while the
    # signatures stay distinct, the check raises exactly when the order
    # differs from brute-force kleq_terms on some pair, and it names such a
    # pair; a flip that makes two signatures equal is caught by distinctness
    outcomes = set()
    pair = re.compile(r"order mismatch at \((\(.*\)), (\(.*\))\)")
    for nm, K in kalmbach_corpus.items():
        if K.n > 200:
            continue
        ids = np.arange(K.n)
        seqs, leq = K.seqs, K.base.leq
        terms = _even_chains(K.base)[0]
        kleq = np.array([[kleq_terms(leq, x, y) for y in seqs] for x in seqs])
        assert (K.leq_batch(ids[:, None], ids) == kleq).all(), nm
        covers = int(K.base.cover_matrix.sum())
        assert K.signatures.shape[1] == 1 and covers < 64, nm
        for x, k in itertools.product(range(K.n), range(covers + 1)):
            bad = _flipped(K, x, k)
            if _caught_equal_signatures(bad, x, terms):
                outcomes.add("equal")
                continue
            differs = bad.leq_batch(ids[:, None], ids) != kleq
            if not differs.any():
                assert _check_order(bad, terms) == K.order_check, (nm, x, k)
                outcomes.add("agrees")
                continue
            with pytest.raises(AssertionError, match=pair) as raised:
                _check_order(bad, terms)
            named = pair.fullmatch(str(raised.value))
            assert differs[K.index(named[1]), K.index(named[2])], (nm, x, k)
            outcomes.add("differs")
    assert outcomes == {"equal", "agrees", "differs"}


def test_order_check_needs_the_union_identity(kalmbach_corpus):
    # an unused high bit in the signature of x, which has two intervals,
    # changes no test (x_i, y): only the union identity A_x = A_(000,100) |
    # A_(110,111) fails, and the orders then differ at (x, (000,111))
    K = kalmbach_corpus["2^3"]
    x = K.index("(000,100,110,111)")
    bad = _flipped(K, x, 63)
    ids = np.arange(K.n)
    singles = np.array([i for i, s in enumerate(K.seqs) if len(s) <= 2])
    assert (bad.leq_batch(singles[:, None], ids)
            == K.leq_batch(singles[:, None], ids)).all()
    message = _order_message(K, (x, K.index("(000,111)")))
    with pytest.raises(AssertionError, match=message):
        _check_order(bad)


def test_kleq_tables_match_the_definition(corpus):
    # every pair of every corpus K, of K(rn 2), and of K(M_33), whose 67
    # intervals a < b and padding take two words; no signature is built
    bases = {**corpus, "rn2": rn_lattice(2), "M33": diamond(33)}
    for nm, L in bases.items():
        seqs = _reference_even_chains(L)
        terms = _even_chains(L)[0]
        ivals, inside = _kleq_tables(L, terms[:, 0::2], terms[:, 1::2])
        own = np.zeros((len(seqs), 64 * inside.shape[1]), dtype=bool)
        own[np.arange(len(seqs))[:, None], ivals] = True
        got = ~(own[:, None] & ~_unpack(inside)[None]).any(axis=-1)
        want = [[kleq_terms(L.leq, x, y) for y in seqs] for x in seqs]
        assert got.tolist() == want, nm
    assert inside.shape == (68, 2) and ivals.max() == 67


def test_order_check_records_how_it_was_established(kalmbach_corpus, rn3,
                                                    rn4):
    # one test (i, y) per padded interval i of L and element y, at every
    # size; x_i is the element whose one interval is i
    for nm, K in kalmbach_corpus.items():
        intervals = int(K.base.leq.sum()) - K.base.n + 1
        x_i = np.array([i for i, s in enumerate(K.seqs) if len(s) <= 2])
        assert len(x_i) == intervals, nm
        comparable = int(K.leq_batch(x_i[:, None], np.arange(K.n)).sum())
        assert K.order_check == OrderCheck("exhaustive", intervals, K.n,
                                           comparable), nm
    assert rn3[1].order_check == OrderCheck("exhaustive", 110, 3584, 37121)
    assert rn4[1].order_check == OrderCheck("exhaustive", 176, 26752, 341889)


def _scalar_orthomodular(K):
    worst = None
    for x in range(K.n):
        for y in range(K.n):
            if y != x and K.leq_idx(x, y):
                if K.join_idx(x, K.meet_idx(K.perp(x), y)) != y:
                    cand = (K.names[x], K.names[y])
                    worst = cand if worst is None else min(worst, cand)
    return worst is None, worst


def _scalar_law_fails(K):
    """False from the scalar law loop, or True if one of its joins or meets
    raises; it never holds under a broken orthocomplement."""
    try:
        return _scalar_orthomodular(K)[0] is False
    except AssertionError as exc:
        return str(exc) in ("upper-bound set has no least element",
                            "lower-bound set has no greatest element")


def _premise(K):
    """(x ^ x' = 0 for every x, perp reverses the order)."""
    return (
        all(K.meet_idx(x, K.perp(x)) == K.bottom for x in range(K.n)),
        all(K.leq_idx(K.perp(y), K.perp(x))
            for x in range(K.n) for y in range(K.n) if K.leq_idx(x, y)),
    )


def _premise_witness(K):
    """(x, x') for the least name x at which perp is no involution, x and x'
    share an atom, or the atoms below x' are not the p with x <= p'."""
    atoms = K.atoms_idx()

    def fails(x):
        px = K.perp(x)
        return (K.perp(px) != x
                or any(K.leq_idx(p, x) and K.leq_idx(p, px) for p in atoms)
                or any(K.leq_idx(p, px) != K.leq_idx(x, K.perp(p))
                       for p in atoms))

    bad = [x for x in range(K.n) if fails(x)]
    if not bad:
        return None
    x = min(bad, key=K.names.__getitem__)
    return K.names[x], K.names[K.perp(x)]


def _with_perp(K, perp_idx):
    bad = copy.copy(K)
    bad.perp_idx = perp_idx
    return bad


def _swapped(K, a, b):
    perp = K.perp_idx.copy()
    perp[[a, b]] = perp[[b, a]]
    return _with_perp(K, perp)


def test_orthomodular_check_matches_scalar_loop(kalmbach_corpus):
    # once the premise fails the witness is (x, x') for the least name x at
    # which it fails, whether the swapped pair is two atoms or two elements
    # that are neither atoms nor bounds
    K = kalmbach_corpus["2^3"]
    assert K.check_orthomodular() == _scalar_orthomodular(K) == (True, None)
    assert _premise(K) == (True, True) and _premise_witness(K) is None
    for pair in (K.atoms_idx()[:2],
                 [K.index("(000,100,110,111)"), K.index("(000,110)")]):
        bad = _swapped(K, *pair)
        assert _premise(bad) != (True, True)
        witness = _premise_witness(bad)
        assert bad.check_orthomodular() == (False, witness)
        assert _scalar_law_fails(bad)
    # an involution with x ^ x' = 0 that does not reverse the order: two
    # atoms that are not orthogonal trade complements
    a, b = next((a, b) for a, b in itertools.combinations(K.atoms_idx(), 2)
                if not K.leq_idx(a, K.perp(b)))
    perp = K.perp_idx.copy()
    perp[[a, b, perp[a], perp[b]]] = perp[b], perp[a], b, a
    bad = _with_perp(K, perp)
    assert _premise(bad) == (True, False)
    witness = _premise_witness(bad)
    assert witness is not None
    assert bad.check_orthomodular() == (False, witness)


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
    # perp breaks one half of the premise; the witness is then (x, x') for
    # the least name x at which the premise fails, here the bottom
    K = kalmbach_corpus["M2"]
    a = K.index("(a2,1)")
    bottom_to_atom = K.perp_idx.copy()
    bottom_to_atom[K.bottom] = a
    for perp, premise in ((bottom_to_atom, (True, False)),
                          (np.full(K.n, a), (False, True))):
        bad = _with_perp(K, perp)
        assert _premise(bad) == premise
        assert _premise_witness(bad) == ("()", "(a2,1)")
        assert bad.check_orthomodular() == (False, ("()", "(a2,1)"))
        assert _scalar_law_fails(bad)


def test_orthomodular_check_reruns_no_law_on_an_oml(kalmbach_corpus, rn3,
                                                    monkeypatch):
    # in an OML no y is suspect, so the law is never rerun with joins
    def refuse(*args):
        raise AssertionError("join searched")

    monkeypatch.setattr(KalmbachOML, "join_batch", refuse)
    for nm, K in [*kalmbach_corpus.items(), ("rn3", rn3[1])]:
        assert K.check_orthomodular() == (True, None), nm


def test_orthomodular_check_matches_scalar_loop_on_corpus(kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        assert K.check_orthomodular() == _scalar_orthomodular(K), nm


def _five_cycle_ortholattice():
    """The closed sets of the 5-cycle orthogonality space: 0, the atoms
    p_i, the coatoms q_i = {i-1, i+1} = p_i' and 1.  It is an atomistic
    ortholattice that is not orthomodular."""
    atoms = [f"p{i}" for i in range(5)]
    coatoms = [f"q{i}" for i in range(5)]
    covers = [("0", p) for p in atoms] + [(q, "1") for q in coatoms]
    covers += [(atoms[(i + d) % 5], coatoms[i])
               for i in range(5) for d in (-1, 1)]
    L = lattice_from_covers(["0", *atoms, *coatoms, "1"], covers)
    perp = {"0": "1", "1": "0"}
    for p, q in zip(atoms, coatoms):
        perp.update({p: q, q: p})
    return ortholattice(L, perp)


def test_orthomodular_witness_under_a_valid_orthocomplement():
    # a K-shaped object over the 5-cycle lattice, its signatures the atoms
    # below each element: the premise holds, and the law fails at every
    # coatom
    OL = _five_cycle_ortholattice()
    L = OL.lattice
    atoms = np.flatnonzero(L.cover_matrix[L.bottom])
    below = np.zeros((L.n, 64), dtype=bool)
    below[:, : len(atoms)] = L.leq[atoms].T
    K = object.__new__(KalmbachOML)
    K.signatures = np.packbits(below, axis=1, bitorder="little").view("<u8")
    K.perp_idx = OL.perp.astype(np.int64)
    K.names = L.names
    K.seqs = L.names  # only its length, K.n, is read
    K.bottom, K.top = L.bottom, L.top
    law, atom = _law_and_atom_test_ys(K)
    assert _premise(K) == (True, True) and _premise_witness(K) is None
    assert law == atom == {OL.index(f"q{i}") for i in range(5)}
    verdict = is_orthomodular(OL)
    assert verdict[0] is False
    assert K.check_orthomodular() == _scalar_orthomodular(K) == verdict


def test_atoms_follow_a_replaced_down_table(kalmbach_corpus):
    # the atoms are the one-bit signatures: an atom given a second bit is
    # an atom no more
    K = kalmbach_corpus["2^3"]
    a, b = K.atoms_idx()[:2]
    bad = _flipped(K, a, _bit(K, b))
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


def test_bound_check_rejects_two_extreme_bounds(kalmbach_corpus):
    # a meet x ^ y is found by its signature A_x & A_y: once the element
    # with that signature gains a bit, x and y have no greatest lower bound
    # left to find.  A join (x' ^ y')' is checked to lie above x and y: once
    # the join loses a bit of x, it no longer does
    K = kalmbach_corpus["2^3"]
    ids = np.arange(K.n)
    pairs = list(itertools.combinations(range(K.n), 2))
    x, y, z = next((x, y, K.meet_idx(x, y)) for x, y in pairs
                   if K.meet_idx(x, y) not in (x, y, K.bottom))
    known = set(K.signatures[:, 0].tolist())
    k = next(k for k in range(len(K.atoms_idx()))
             if int(K.signatures[z, 0]) ^ 1 << k not in known)
    bad = _flipped(K, z, k)
    message = "lower-bound set has no greatest element"
    with pytest.raises(AssertionError, match=message):
        bad.meet_idx(x, y)
    with pytest.raises(AssertionError, match=message):
        bad.meet_batch(ids[:, None], ids)
    x, y, j = next((x, y, K.join_idx(x, y)) for x, y in pairs
                   if K.join_idx(x, y) not in (x, y, K.top) and x != K.bottom)
    k = next(_bit(K, a) for a in K.atoms_idx() if K.leq_idx(a, x)
             and int(K.signatures[j, 0]) ^ 1 << _bit(K, a) not in known)
    bad = _flipped(K, j, k)
    message = "upper-bound set has no least element"
    with pytest.raises(AssertionError, match=message):
        bad.join_idx(x, y)
    with pytest.raises(AssertionError, match=message):
        bad.join_batch(ids[:, None], ids)


def test_bound_check_rejects_an_empty_bound_set(kalmbach_corpus):
    # x ^ x' is the bottom, found by the empty signature, and x v x' is
    # (x' ^ x)'; once the bottom has a bit no element has the empty
    # signature, and no element may be returned for either
    K = kalmbach_corpus["2^3"]
    ids = np.arange(K.n)
    x = K.atoms_idx()[0]
    px = K.perp(x)
    bad = _flipped(K, K.bottom, _bit(K, K.atoms_idx()[1]))
    message = "upper-bound set has no least element"
    with pytest.raises(AssertionError, match=message):
        bad.join_idx(x, px)
    with pytest.raises(AssertionError, match=message):
        bad.join_batch(ids[:, None], ids)
    message = "lower-bound set has no greatest element"
    with pytest.raises(AssertionError, match=message):
        bad.meet_idx(x, px)
    with pytest.raises(AssertionError, match=message):
        bad.meet_batch(ids[:, None], ids)


def _hash_every_index(monkeypatch):
    """Make every index of one-word keys that is built from now on a hash
    table, however few its rows."""
    monkeypatch.setattr(KALMBACH_MODULE, "_HASH_MIN_ROWS", 1)


def test_bound_checks_on_the_hash_table(kalmbach_corpus, monkeypatch):
    # the corpus K that these tests flip are below the table's size, so
    # their flipped copies are rerun with every signature index hashed
    _hash_every_index(monkeypatch)
    K = kalmbach_corpus["2^3"]
    assert isinstance(K._sig_index, KALMBACH_MODULE._Sorted)
    assert isinstance(_flipped(K, 0, 0)._sig_index, KALMBACH_MODULE._Hashed)
    test_bound_check_rejects_two_extreme_bounds(kalmbach_corpus)
    test_bound_check_rejects_an_empty_bound_set(kalmbach_corpus)
    test_lookups_are_checked_up_to_the_last_pair(kalmbach_corpus)


def test_equal_signatures_are_caught_on_the_hash_table(kalmbach_corpus,
                                                       monkeypatch):
    # the "equal" arm of test_order_check_catches_a_flipped_bit, with every
    # flipped signature index hashed
    _hash_every_index(monkeypatch)
    caught = 0
    for K in kalmbach_corpus.values():
        if K.n > 200:
            continue
        terms = _even_chains(K.base)[0]
        covers = int(K.base.cover_matrix.sum())
        for x, k in itertools.product(range(K.n), range(covers + 1)):
            bad = _flipped(K, x, k)
            assert isinstance(bad._sig_index, KALMBACH_MODULE._Hashed)
            caught += _caught_equal_signatures(bad, x, terms)
    assert caught


def _dict_search(words, queries):
    """The row of each one-word query, looked up in a dict of the rows."""
    row_of = {}
    for i, key in enumerate(words[:, 0].tolist()):
        row_of.setdefault(key, i)
    return np.vectorize(row_of.__getitem__, otypes=[np.intp])(queries[..., 0])


def test_both_indexes_find_every_row(rn3, rn4, monkeypatch):
    # every signature and mask of K(rn 3) and K(rn 4) is found at its own
    # id, from shuffled queries in 1-D and 2-D shapes, by the hash table K
    # holds and by a sorted index of the same words, as a dict finds it;
    # so are the meets A_x & A_y over a (60, 50) broadcast of ids
    rng = np.random.default_rng(0)
    for K in (rn3[1], rn4[1]):
        ids = rng.permutation(K.n)
        grid = ids[:3000].reshape(60, 50)
        xs, ys = ids[:60, None], ids[None, 60:110]
        for words, held in ((K.signatures, K._sig_index),
                            (K.masks, K._mask_index)):
            monkeypatch.setattr(KALMBACH_MODULE, "_HASH_MIN_ROWS", K.n + 1)
            ranked = KALMBACH_MODULE._index(words)
            monkeypatch.undo()
            assert isinstance(held, KALMBACH_MODULE._Hashed)
            assert isinstance(ranked, KALMBACH_MODULE._Sorted)
            assert (_dict_search(words, words[ids]) == ids).all()
            queries = [words[ids], words[grid]]
            if words is K.signatures:
                queries.append(words[xs] & words[ys])
            for index in (held, ranked):
                for q in queries:
                    got = _search(index, q, "absent")
                    assert got.shape == q.shape[:-1]
                    assert (got == _dict_search(words, q)).all()


def _keys_at_homes(homes, shift):
    """For each home slot in ``homes``, in order, a fresh key hashed there."""
    candidates = np.arange(1, 1 << 16, dtype=np.uint64)
    home_of = KALMBACH_MODULE._homes(candidates, np.uint64(shift))
    pools = {h: iter(candidates[home_of == h].tolist()) for h in set(homes)}
    return [next(pools[h]) for h in homes]


def test_hash_table_on_crafted_keys(monkeypatch):
    # 16 keys take 64 home slots (shift 58): three share home 10 and one
    # more has home 11, a run over slots 10-13; three share home 63, the
    # last home, and run on to slot 65 before the spare empty slot 66
    _hash_every_index(monkeypatch)
    homes = [10, 10, 10, 11, 63, 63, 63] + list(range(20, 29))
    absent_homes = [40, 11, 12, 14, 63, 10]
    keys = _keys_at_homes(homes + absent_homes, 58)
    words = np.array(keys[:len(homes)], dtype=np.uint64)[:, None]
    absent = keys[len(homes):]
    table = KALMBACH_MODULE._index(words)
    assert isinstance(table, KALMBACH_MODULE._Hashed)
    assert table.shift == 58 and len(table.slots) == 67
    assert table.slots[10:15].tolist() == [0, 1, 2, 3, -1]
    assert table.slots[63:].tolist() == [4, 5, 6, -1]
    assert table.slots[40] == -1
    monkeypatch.undo()
    ranked = KALMBACH_MODULE._index(words)
    assert isinstance(ranked, KALMBACH_MODULE._Sorted)
    order = np.random.default_rng(1).permutation(len(words))
    for index in (table, ranked):
        assert (_search(index, words[order], "absent") == order).all()
        assert (_search(index, words[order.reshape(4, 4)], "absent")
                == order.reshape(4, 4)).all()
        for key in absent:
            # the message is the caller's, whatever the key's home
            query = np.array([[key]], dtype=np.uint64)
            with pytest.raises(AssertionError, match="^no such row$"):
                _search(index, query, "no such row")
            with pytest.raises(AssertionError, match="^no such row$"):
                _search(index, np.concatenate((words, query)), "no such row")


def test_a_base_with_more_than_64_covers():
    # M_33 has 66 covers, so each signature takes two words
    L = diamond(33)
    K = kalmbach(L)
    assert K.n == 68 and K.signatures.shape == (68, 2)
    for i, x in enumerate(K.seqs):
        for j, y in enumerate(K.seqs):
            assert K.leq_idx(i, j) == kleq_terms(L.leq, x, y), (i, j)
    OL = K.as_ortholattice()
    assert is_orthomodular(OL) == (K.orthomodular, K.orthomodular_witness)
    assert K.orthomodular is True and katoms_check(K)
    ids = np.arange(K.n)
    assert (K.join_batch(ids[:, None], ids) == OL.lattice.join).all()
    assert (K.meet_batch(ids[:, None], ids) == OL.lattice.meet).all()


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
    # union_is_chain reads the order of the base: made to see 001 <= 010,
    # it calls the noncommuting atoms (000,001) and (000,010) a chain
    K = kalmbach_corpus["2^3"]
    assert kcommute_check(K) is _scalar_kcommute(K) is True
    L = K.base
    leq = L.leq.copy()
    leq[L.index("001"), L.index("010")] = True
    bad = copy.copy(K)
    bad.base = types.SimpleNamespace(leq=leq, bottom=L.bottom, top=L.top)
    assert kcommute_check(bad) is _scalar_kcommute(bad) is False
    # a swapped perp breaks the joins, which check that they lie above both
    # arguments
    a, b = K.atoms_idx()[:2]
    with pytest.raises(AssertionError,
                       match="upper-bound set has no least element"):
        kcommute_check(_swapped(K, a, b))


def test_kblocks_check_can_fail(kalmbach_corpus):
    K = kalmbach_corpus["2^3"]
    assert kblocks_check(K) is True
    # one maximal chain of the base fewer: a block has no chain
    short = copy.copy(K)
    short.max_chains = K.max_chains[1:]
    assert kblocks_check(short) is False
    # a swapped perp breaks the joins of the commutation test
    a, b = K.atoms_idx()[:2]
    with pytest.raises(AssertionError,
                       match="upper-bound set has no least element"):
        kblocks_check(_swapped(K, a, b))
    # blocks are only searched in an orthomodular K
    not_om = copy.copy(K)
    not_om.orthomodular = False
    with pytest.raises(NotOML):
        kblocks_check(not_om)
