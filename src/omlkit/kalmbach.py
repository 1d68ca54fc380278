"""The Kalmbach construction K(L) over finite bounded lattices.

Elements of K(L) are even-length strictly increasing sequences in L, and
x <= y when every interval [x_2i, x_2i+1] of x lies inside some interval
[y_2j, y_2j+1] of y.  The order is built straight from that definition,
factored through the intervals of L (see ``kalmbach``), and checked against
the scalar ``kleq_terms`` (exhaustively for small K, on a seeded sample for
large K).

Up-sets and down-sets are packed bitsets with columns in a linear extension,
so joins and meets are the first upper / last lower bound along it without
materialising quadratic tables.  That format stays inside ``KalmbachOML``:
callers see element ids only, through ``interval_members`` and
``interval_heights``.  In an OML, z -> z ^ x' maps [x, y] onto [0, y ^ x']
(Kalmbach, *Orthomodular Lattices*, 1983), so ``interval_heights`` reads
interval heights from one per-element table of the heights of [0, z].
"""

from __future__ import annotations

import random
from functools import cached_property

import numpy as np

from .errors import NoBounds, NotOML, TooLarge
from .lattice import BoundedLattice, maximal_chains
from .ortho import blocks, ortholattice

DEFAULT_K_CAP = 200_000
VERIFY_CAP = 1500
VERIFY_SAMPLE = 200_000
# as_ortholattice builds dense n x n tables only up to this many elements.
MAX_DENSE_SIZE = 2048
# The up-set and down-set tables take 2 * n * ceil(n / 8) bytes; a K(L) whose
# tables would pass this raises TooLarge before anything is allocated.
MAX_TABLE_BYTES = 1 << 30
_CHECK_CHUNK = 1 << 14  # pairs per vectorised order-check step
_OM_YS = 256  # upper ends y per step of the orthomodular pass
# Table rows per kernel step take at most this many bytes, so the step's
# temporaries stay in a core's cache.
_BLOCK_BYTES = 1 << 19

_FIRSTBIT = np.array([(i & -i).bit_length() - 1 if i else 8 for i in range(256)],
                     dtype=np.int64)
_LASTBIT = np.array([i.bit_length() - 1 if i else -1 for i in range(256)],
                    dtype=np.int64)


def seq_name(base, terms):
    return "(" + ",".join(base.names[t] for t in terms) + ")"


def kleq_terms(leq, x, y):
    """Definitional order on even-length sequences of base-element indices."""
    for i in range(0, len(x), 2):
        if not any(
            leq[y[j], x[i]] and leq[x[i + 1], y[j + 1]]
            for j in range(0, len(y), 2)
        ):
            return False
    return True


def kleq(L, x_names, y_names):
    """The order of K(L) on sequences given as tuples of element names."""
    x = tuple(L.index(nm) for nm in x_names)
    y = tuple(L.index(nm) for nm in y_names)
    return kleq_terms(L.leq, x, y)


def _perp_terms(L, terms, rank):
    return tuple(sorted(set(terms) ^ {L.bottom, L.top}, key=rank.__getitem__))


def kperp_terms(L, terms):
    """Symmetric difference of the term set with the bounds, sorted in L."""
    return _perp_terms(L, terms, {e: k for k, e in enumerate(L.linear_extension())})


def kperp(L, x_names):
    terms = tuple(L.index(nm) for nm in x_names)
    return tuple(L.names[t] for t in kperp_terms(L, terms))


def _enumerate_even_chains(L, cap):
    """All even-length chains of L as rank-sorted index tuples, DFS order."""
    ext = L.linear_extension()
    leq = L.leq
    out = []

    def walk(seq, start):
        if len(seq) % 2 == 0:
            out.append(seq)
            if len(out) > cap:
                raise TooLarge(
                    f"K(L) would exceed the configured cap of {cap} elements"
                )
        for k in range(start, len(ext)):
            v = ext[k]
            if not seq or (seq[-1] != v and leq[seq[-1], v]):
                walk(seq + (v,), k + 1)

    walk((), 0)
    return out


def _interval_terms(L, seqs):
    """Padded (n, p) arrays of the interval ends (x_2i, x_2i+1) of each seq.

    The padding (top, bottom) lies inside every interval and contains none.
    """
    pad = (L.top, L.bottom) * max(1, max(map(len, seqs)) // 2)
    terms = np.array([s + pad[len(s) :] for s in seqs], dtype=np.int64)
    return terms[:, 0::2], terms[:, 1::2]


def _kleq_tables(L, seqs):
    """(ids, inside) with kleq_terms(L.leq, seqs[x], seqs[y]) equal to
    ``inside[y, ids[x]].all()``, built from the order of L alone.

    ids[x, t] numbers the interval (x_2t, x_2t+1) among the distinct padded
    intervals of ``_interval_terms``, and inside[y, d] says that interval d
    lies inside some interval of y.
    """
    shape = (L.n, L.n)
    ends, ids = np.unique(np.ravel_multi_index(_interval_terms(L, seqs), shape),
                          return_inverse=True)
    ids = ids.reshape(len(seqs), -1)
    a, b = np.unravel_index(ends, shape)
    contains = L.leq[a[:, None], a] & L.leq[b, b[:, None]]  # d inside c
    inside = contains[ids[:, 0]]
    for t in ids[:, 1:].T:
        inside |= contains[t]
    return ids, inside


def _blocks(xs, ys, row_bytes):
    """Slices of the broadcast of id arrays xs and ys, for a table kernel.

    None when one step of _BLOCK_BYTES, at ``row_bytes`` per pair, holds the
    whole broadcast.  Otherwise (shape, [(start, xs, ys), ...]): the raveled
    broadcast cut into slices of at most that many pairs.
    """
    b = np.broadcast(xs, ys)
    step = max(1, _BLOCK_BYTES // row_bytes)
    if b.size <= step:
        return None
    xs, ys = (np.broadcast_to(a, b.shape).ravel() for a in (xs, ys))
    return b.shape, [(s, xs[s : s + step], ys[s : s + step])
                     for s in range(0, b.size, step)]


def _pair_blocks(n, sample, seed):
    """(i, j) index arrays of the order-check pairs, a block at a time.

    All n * n pairs in row-major order when ``sample`` is None.  Otherwise
    each block of c pairs takes 2c values from ``rng = random.Random(seed)``:
    ``rng.randbytes(4 * m)``, with m the values the block still lacks, is read
    as m little-endian 32-bit words, each masked to ``(n - 1).bit_length()``
    bits, and the words ``>= n`` are rejected, until the block has 2c values.
    Consecutive values form the pairs (i, j).
    """
    if sample is None:
        for s in range(0, n * n, _CHECK_CHUNK):
            yield np.divmod(np.arange(s, min(s + _CHECK_CHUNK, n * n)), n)
        return
    rng = random.Random(seed)
    mask = (1 << (n - 1).bit_length()) - 1
    for s in range(0, sample, _CHECK_CHUNK):
        want = 2 * min(_CHECK_CHUNK, sample - s)
        draws = np.empty(0, dtype=np.int64)
        while len(draws) < want:
            words = np.frombuffer(rng.randbytes(4 * (want - len(draws))),
                                  dtype="<u4") & mask
            draws = np.concatenate([draws, words[words < n]])
        yield draws[0::2], draws[1::2]


class KalmbachOML:
    """K(L) with bitset-backed order, join, meet and orthocomplement.

    Satisfies the same element protocol as BoundedLattice (n, names, index,
    leq_idx, join_idx, meet_idx, bottom, top) so generic helpers such as
    compactness_witness work on it directly.
    """

    def __init__(self, base, seqs, up_packed, down_packed, ext, perp_idx,
                 max_chains):
        self.base = base
        self.seqs = seqs
        self.names = tuple(seq_name(base, s) for s in seqs)
        self._index = {nm: i for i, nm in enumerate(self.names)}
        self._up = up_packed          # columns in linear-extension order
        self._down = down_packed      # columns in linear-extension order
        self._ext = ext               # ext[pos] = element id
        self._rank = np.empty(len(seqs), dtype=np.int64)
        self._rank[ext] = np.arange(len(seqs))
        self.perp_idx = perp_idx
        self.max_chains = max_chains  # base maximal chains as index tuples
        self.bottom = self._index["()"]
        self.top = self._index[seq_name(base, (base.bottom, base.top))]
        self.orthomodular = None      # set by check_orthomodular
        self.orthomodular_witness = None

    # -- protocol -------------------------------------------------------

    @property
    def n(self):
        return len(self.seqs)

    def index(self, name):
        return self._index[name]

    def seq_names(self, i):
        return tuple(self.base.names[t] for t in self.seqs[i])

    def leq_idx(self, i, j):
        r = self._rank[j]
        return bool(self._up[i, r >> 3] & (1 << (int(r) & 7)))

    def interval_members(self, xs, ys):
        """(k, s) with one pair for every element s of [xs[k], ys[k]].

        xs and ys are ids or id arrays that broadcast to at most one
        dimension; scalars count as one-element arrays.  Only the nonzero
        bytes of the interval rows are unpacked; k is ascending, and within
        one k the s follow the linear extension.
        """
        xs, ys = np.atleast_1d(xs, ys)
        parts = _blocks(xs, ys, self._up.shape[1])
        if parts:
            ks, ss = [], []
            for start, x, y in parts[1]:
                k, s = self.interval_members(x, y)
                ks.append(k + start)
                ss.append(s)
            return np.concatenate(ks), np.concatenate(ss)
        rows = self._up[xs] & self._down[ys]
        k, byte = np.nonzero(rows)
        bits = np.unpackbits(rows[k, byte][:, None], axis=1, bitorder="little")
        r, bit = np.nonzero(bits)
        return k[r], self._ext[byte[r] * 8 + bit]

    def interval_heights(self, xs, ys):
        """min(height of [x, y], 3) over broadcast id arrays xs and ys, x <= y.

        In an OML, z -> z ^ x' maps [x, y] onto [0, y ^ x'] (Kalmbach,
        *Orthomodular Lattices*, 1983), so this is the height of [0, z] at
        z = y ^ x' = (y' v x)', read from a per-element table.  Raises NotOML
        unless ``check_orthomodular`` has found K orthomodular.
        """
        if self.orthomodular is not True:
            raise NotOML("interval heights need an orthomodular K")
        z = self.perp_idx[self.join_batch(self.perp_idx[ys], xs)]
        return self._down_facts[2][z]

    def _bound(self, xs, ys, upper):
        """The join (upper) or meet of x and y over broadcast id arrays.

        The bound set up(x) & up(y) (down(x) & down(y)) is scanned for its
        first (last) element along the linear extension, which is then
        checked to lie below (above) every other element of the set.  An
        empty bound set raises too.  Every block of the input is checked.
        """
        table = self._up if upper else self._down
        parts = _blocks(xs, ys, table.shape[1])
        if parts:
            shape, parts = parts
            return np.concatenate([self._bound(x, y, upper)
                                   for _, x, y in parts]).reshape(shape)
        bounds = table[xs] & table[ys]
        nb = bounds.shape[-1]
        flat = bounds.reshape(-1, nb)
        if upper:
            byte, bit = (flat != 0).argmax(axis=1), _FIRSTBIT
        else:
            byte = nb - 1 - (flat[:, ::-1] != 0).argmax(axis=1)
            bit = _LASTBIT
        message = ("upper-bound set has no least element" if upper
                   else "lower-bound set has no greatest element")
        chosen = flat[np.arange(len(flat)), byte]
        if not chosen.all():
            raise AssertionError(message)
        out = self._ext[(byte * 8 + bit[chosen]).reshape(bounds.shape[:-1])]
        if (bounds & ~table[out]).any():
            raise AssertionError(message)
        return out

    def join_idx(self, i, j):
        return int(self._bound(i, j, True))

    def meet_idx(self, i, j):
        return int(self._bound(i, j, False))

    def perp(self, i):
        return int(self.perp_idx[i])

    @property
    def _down_facts(self):
        """(atoms, below, heights), computed once per ``_down`` table.

        atoms: the ids of the z with down(z) = {0, z}, ascending.  below[z]:
        the atoms below z, packed.  heights[z]: min(height of [0, z], 3); it
        is 2 when all of (0, z) are atoms: |down(z)| = |atoms below z| + 2.
        """
        down, facts = self.__dict__.get("_down_facts_of", (None, None))
        if down is not self._down:
            sizes = np.bitwise_count(self._down).sum(axis=1)
            atoms = np.flatnonzero(sizes == 2)
            cols = self._rank[atoms]
            bits = ((self._down[:, cols >> 3] >> (cols & 7)) & 1).astype(bool)
            heights = np.select(
                [sizes == 1, sizes == 2, sizes == bits.sum(axis=1) + 2],
                [0, 1, 2], 3)
            facts = (atoms, np.packbits(bits, axis=1, bitorder="little"),
                     heights)
            self._down_facts_of = (self._down, facts)
        return facts

    def atoms_idx(self):
        return self._down_facts[0].tolist()

    def join_batch(self, xs, ys):
        """Joins x v y over broadcast id arrays xs and ys."""
        return self._bound(xs, ys, True)

    def meet_batch(self, xs, ys):
        """Meets x ^ y over broadcast id arrays xs and ys."""
        return self._bound(xs, ys, False)

    def commutes_idx(self, xs, ys):
        """Whether x and y commute, over broadcast id arrays xs and ys.

        They commute when their commutator
        (x v y) ^ (x v y') ^ (x' v y) ^ (x' v y') is the bottom.
        """
        pxs, pys = self.perp_idx[xs], self.perp_idx[ys]
        ab = self.meet_batch(self.join_batch(xs, ys), self.join_batch(xs, pys))
        cd = self.meet_batch(self.join_batch(pxs, ys), self.join_batch(pxs, pys))
        return self.meet_batch(ab, cd) == self.bottom

    @cached_property
    def _terms(self):
        """Padded (n, 2p) terms of each sequence; built on first use, because
        only ``union_is_chain`` reads it and the rn report never calls that."""
        return np.concatenate(_interval_terms(self.base, self.seqs), axis=1)

    def union_is_chain(self, xs, ys):
        """Whether the terms of x and y form a chain in L, over id arrays.

        Each sequence is a chain and the padding is comparable to everything,
        so only a term of x against a term of y needs comparing.  The input
        is walked in blocks, counting 8 bytes per pair of terms compared.
        """
        parts = _blocks(xs, ys, 8 * self._terms.shape[1] ** 2)
        if parts:
            shape, parts = parts
            return np.concatenate([self.union_is_chain(x, y)
                                   for _, x, y in parts]).reshape(shape)
        leq = self.base.leq
        tx = self._terms[xs][..., :, None]
        ty = self._terms[ys][..., None, :]
        return (leq[tx, ty] | leq[ty, tx]).all(axis=(-2, -1))

    # -- verification ---------------------------------------------------

    def check_order_against_definition(self, sample=None, seed=0):
        """Compare the built up-sets and down-sets with definitional kleq.

        Exhaustive when ``sample`` is None, else on a seeded random sample of
        index pairs.  Pairs are evaluated in vectorised blocks; raises
        AssertionError at the first disagreeing pair.  The definition is
        read from ``_kleq_tables``, which never looks at the tables under test.
        """
        ids, inside = _kleq_tables(self.base, self.seqs)
        for i, j in _pair_blocks(self.n, sample, seed):
            want = inside[j[:, None], ids[i]].all(axis=1)
            ri, rj = self._rank[i], self._rank[j]
            up = (self._up[i, rj >> 3] >> (rj & 7)) & 1
            down = (self._down[j, ri >> 3] >> (ri & 7)) & 1
            bad = np.flatnonzero((up != want) | (down != want))
            if len(bad):
                x, y = int(i[bad[0]]), int(j[bad[0]])
                raise AssertionError(
                    f"order mismatch at ({self.names[x]}, {self.names[y]})"
                )

    def _strict_pairs(self, ys):
        """(x, y) id arrays of every pair x < y with y in ys, _OM_YS ys a step."""
        for s in range(0, len(ys), _OM_YS):
            chunk = ys[s : s + _OM_YS]
            k, xs = self.interval_members(self.bottom, chunk)
            strict = xs != chunk[k]
            yield xs[strict], chunk[k[strict]]

    def check_orthomodular(self):
        """Exhaustive orthomodular-law check over all comparable pairs.

        The law is x <= y implies x v (x' ^ y) = y.  In an ortholattice it
        holds iff x <= y and x' ^ y = 0 imply x = y (Kalmbach, *Orthomodular
        Lattices*, 1983), and K is finite, so x' ^ y = 0 iff no atom lies
        below both.  One pass over the pairs x < y therefore ANDs the packed
        sets of atoms below x' and below y, and marks y suspect when they are
        disjoint.  The same pass checks the premise: y' <= x' on every such
        pair, and no atom lies below both x and x', for every x.  Under that
        premise the law fails with upper end y exactly when y is suspect:
        x v (x' ^ y) = z < y gives z' ^ y <= x' ^ y <= z, so z' ^ y <= z ^ z'
        = 0.  The original law is then rerun with joins and meets over the
        pairs of the suspect ys only, or of every y when the premise fails,
        so the witness is the least (name x, name y) over all failing pairs.
        """
        perp, ranks = self.perp_idx, self._rank
        below = self._down_facts[1]
        premise = not (below & below[perp]).any()
        suspect = np.zeros(self.n, dtype=bool)
        if premise:
            for xs, ys in self._strict_pairs(np.arange(self.n)):
                rx = ranks[perp[xs]]
                if not ((self._up[perp[ys], rx >> 3] >> (rx & 7)) & 1).all():
                    premise = False
                    break
                suspect[ys[~(below[perp[xs]] & below[ys]).any(axis=1)]] = True
        law_ys = np.flatnonzero(suspect) if premise else np.arange(self.n)
        worst = None
        for xs, ys in self._strict_pairs(law_ys):
            bad = self.join_batch(xs, self.meet_batch(perp[xs], ys)) != ys
            for x, y in zip(xs[bad], ys[bad]):
                cand = (self.names[x], self.names[y])
                worst = cand if worst is None else min(worst, cand)
        self.orthomodular = worst is None
        self.orthomodular_witness = worst
        return self.orthomodular, worst

    # -- materialization --------------------------------------------------

    def as_ortholattice(self):
        """Materialize K(L) as a table-backed OrthoLattice (small K only)."""
        if self.n > MAX_DENSE_SIZE:
            raise TooLarge(
                f"K has {self.n} elements; table materialization capped at "
                f"{MAX_DENSE_SIZE}"
            )
        full = np.zeros((self.n, self.n), dtype=bool)
        bits = np.unpackbits(self._up, axis=1, bitorder="little")
        full[:, self._ext] = bits[:, : self.n]
        L = BoundedLattice.from_leq(self.names, full, max_size=MAX_DENSE_SIZE)
        perp_map = {self.names[i]: self.names[self.perp(i)] for i in range(self.n)}
        return ortholattice(L, perp_map)


def kalmbach(L, cap=DEFAULT_K_CAP):
    """Construct K(L) for a finite bounded lattice L.

    Raises TooLarge when the even-length-chain count exceeds ``cap`` or the
    up/down tables would pass MAX_TABLE_BYTES.  The order is the definitional
    one, factored through the intervals of L: U[a, b] is the set of sequences
    y with some y_2j <= a and b <= y_2j+1, up(x) is the AND of U[x_2i, x_2i+1]
    over the intervals of x, and down(y) = {x : x' in up(y')}, because x <= y
    exactly when y' <= x'.  Columns follow the linear extension that sorts
    elements stably by down-set size.  The tables are checked against
    ``kleq_terms`` (exhaustively up to VERIFY_CAP elements, on VERIFY_SAMPLE
    seeded pairs beyond), and the orthomodular law is checked exhaustively
    over all comparable pairs by ``check_orthomodular``, in Kalmbach's
    equivalent form (*Orthomodular Lattices*, 1983): x <= y and x' ^ y = 0
    imply x = y, where x' ^ y = 0 iff no atom lies below both x' and y.
    Joins and meets rerun the law itself only for the y above some such x
    (for every y if perp is not an orthocomplement), and the least failing
    (name x, name y) pair is the witness.
    """
    if L.bottom == L.top:
        raise NoBounds("K(L) needs a bottom strictly below the top, and L "
                       "has one element")
    seqs = _enumerate_even_chains(L, cap)
    n = len(seqs)
    nb = (n + 7) // 8
    if 2 * n * nb > MAX_TABLE_BYTES:
        raise TooLarge(
            f"K(L) has {n} elements; its up/down tables would take "
            f"{2 * n * nb} bytes, over the limit of {MAX_TABLE_BYTES} bytes"
        )
    kidx = {s: i for i, s in enumerate(seqs)}
    rank = {e: k for k, e in enumerate(L.linear_extension())}
    perp_idx = np.array([kidx[_perp_terms(L, s, rank)] for s in seqs],
                        dtype=np.int64)
    up, down, ext = _order_tables(L, seqs, perp_idx)

    max_chains = tuple(tuple(L.index(nm) for nm in C) for C in maximal_chains(L))
    K = KalmbachOML(L, tuple(seqs), up, down, ext, perp_idx, max_chains)
    K.check_order_against_definition(None if n <= VERIFY_CAP else VERIFY_SAMPLE)
    K.check_orthomodular()
    return K


def _order_tables(L, seqs, perp_idx):
    """(up, down, ext): the packed up-set and down-set tables of K(L), with
    columns in the linear extension ext (see ``kalmbach``).  The interval
    rows U they are formed from are freed on return, before any check runs.
    """
    n = len(seqs)
    nb = (n + 7) // 8
    # U[k] for the k-th strictly comparable pair (a, b) of L; the last row is
    # all of K and stands for the padding interval (top, bottom).
    lo, hi = _interval_terms(L, seqs)
    a_s, b_s = np.nonzero(L.leq & ~np.eye(L.n, dtype=bool))
    U = np.ones((len(a_s) + 1, n), dtype=bool)
    for k, (a, b) in enumerate(zip(a_s, b_s)):
        U[k] = (L.leq[lo, a] & L.leq[b, hi]).any(axis=1)
    interval_id = np.full((L.n, L.n), len(a_s))
    interval_id[a_s, b_s] = np.arange(len(a_s))
    up_ids = interval_id[lo, hi]
    down_ids = up_ids[perp_idx]

    def and_rows(cols, ids, out):
        """out[r] = AND of the U rows ids[r], with U's columns taken at cols."""
        table = np.packbits(U[:, cols], axis=1, bitorder="little")
        step = max(1, _BLOCK_BYTES // nb)
        for s in range(0, n, step):
            block = out[s : s + step]
            block[:] = table[ids[s : s + step, 0]]
            for k in ids[s : s + step, 1:].T:
                block &= table[k]
        return out

    up = np.empty((n, nb), dtype=np.uint8)
    down = np.empty((n, nb), dtype=np.uint8)
    # |down(y)| = |up(y')| in any column order; up holds the byte popcounts
    sizes = np.bitwise_count(and_rows(slice(None), down_ids, down), out=up)
    ext = np.argsort(sizes.sum(axis=1), kind="stable")
    and_rows(ext, up_ids, up)
    and_rows(perp_idx[ext], down_ids, down)
    return up, down, ext


# -- checkers -------------------------------------------------------------


def katoms_check(K):
    """Atoms of K(L) are exactly the two-term sequences over covers of L."""
    covers = np.argwhere(K.base.cover_matrix)
    expected = {K.index(seq_name(K.base, (int(a), int(b)))) for a, b in covers}
    return set(K.atoms_idx()) == expected


def kblocks_check(K):
    """Blocks of K(L) correspond bijectively to maximal chains via C -> K(C)."""
    OL = K.as_ortholattice()
    clique_blocks = {frozenset(b.elements) for b in blocks(OL)}
    chain_blocks = {
        frozenset(K.names[i] for i, s in enumerate(K.seqs) if set(s) <= C)
        for C in map(set, K.max_chains)
    }
    return clique_blocks == chain_blocks and len(chain_blocks) == len(K.max_chains)


def kcommute_check(K):
    """commutes(x, y) iff the union of term sets is a chain in L (all pairs)."""
    xs, ys = np.triu_indices(K.n)
    return bool((K.commutes_idx(xs, ys) == K.union_is_chain(xs, ys)).all())


def phi_chain(C, x_names):
    """Phi(x): the union of half-open intervals of a bounded chain C.

    Returns a frozenset of element names of C minus its top.
    """
    terms = [C.index(nm) for nm in x_names]
    out = set()
    for a, b in zip(terms[::2], terms[1::2]):
        for z in range(C.n):
            if C.leq[a, z] and not C.leq[b, z]:
                out.add(C.names[z])
    return frozenset(out)


def kjoin_by_truncation(K, x_name, y_name):
    """Join via the prefix-truncation scheme; must agree with the table join.

    Computes z^n = x^n v y^n for prefix truncations, checks the sequence is
    increasing in K, and returns its stabilized value.
    """
    xi, yi = K.index(x_name), K.index(y_name)
    xs, ys = K.seqs[xi], K.seqs[yi]
    steps = max(len(xs), len(ys)) // 2 + 1
    prev = None
    for m in range(1, steps + 1):
        xn = K.index(seq_name(K.base, xs[: 2 * m]))
        yn = K.index(seq_name(K.base, ys[: 2 * m]))
        zn = K.join_idx(xn, yn)
        if prev is not None and not K.leq_idx(prev, zn):
            raise AssertionError("truncation joins are not increasing")
        prev = zn
    direct = K.join_idx(xi, yi)
    if prev != direct:
        raise AssertionError("truncation join disagrees with the direct join")
    return K.names[prev]
