"""The Kalmbach construction K(L) over finite bounded lattices.

Elements of K(L) are even-length strictly increasing sequences in L, and
x <= y when every interval [x_2i, x_2i+1] of x lies inside some interval
[y_2j, y_2j+1] of y.  The order is built straight from that definition,
factored through the intervals of L (see ``kalmbach``), and checked against
the scalar ``kleq_terms`` (exhaustively for small K, on a seeded sample for
large K).

Up-sets and down-sets are packed bitsets with columns in a linear extension,
so joins and meets are the first upper / last lower bound along it without
materialising quadratic tables.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import TooLarge
from .lattice import BoundedLattice, maximal_chains
from .ortho import blocks, ortholattice

DEFAULT_K_CAP = 200_000
DEFAULT_VERIFY_CAP = 1500
DEFAULT_VERIFY_SAMPLE = 200_000
# The up-set and down-set tables take 2 * n * ceil(n / 8) bytes; a K(L) whose
# tables would pass this raises TooLarge before anything is allocated.
MAX_TABLE_BYTES = 1 << 30
_CHECK_CHUNK = 1 << 14  # pairs per vectorised order-check step

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


def _pair_blocks(n, sample, seed):
    """(i, j) index arrays of the order-check pairs, a block at a time.

    All n * n pairs in row-major order when ``sample`` is None, else the pairs
    ``(rng.randrange(n), rng.randrange(n))`` of ``rng = random.Random(seed)``.
    """
    if sample is None:
        for s in range(0, n * n, _CHECK_CHUNK):
            yield np.divmod(np.arange(s, min(s + _CHECK_CHUNK, n * n)), n)
        return
    rng = random.Random(seed)
    for s in range(0, sample, _CHECK_CHUNK):
        c = min(_CHECK_CHUNK, sample - s)
        draws = np.array([rng.randrange(n) for _ in range(2 * c)], dtype=np.int64)
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

    def up_row(self, i):
        """Boolean up-set of element i, in linear-extension column order."""
        return np.unpackbits(self._up[i], bitorder="little")[: self.n]

    def down_row(self, i):
        return np.unpackbits(self._down[i], bitorder="little")[: self.n]

    def join_idx(self, i, j):
        u = self._up[i] & self._up[j]
        nz = np.nonzero(u)[0]
        byte = int(nz[0])
        pos = byte * 8 + int(_FIRSTBIT[u[byte]])
        least = int(self._ext[pos])
        if (u & ~self._up[least]).any():
            raise AssertionError("upper-bound set has no least element")
        return least

    def meet_idx(self, i, j):
        d = self._down[i] & self._down[j]
        nz = np.nonzero(d)[0]
        byte = int(nz[-1])
        pos = byte * 8 + int(_LASTBIT[d[byte]])
        greatest = int(self._ext[pos])
        if (d & ~self._down[greatest]).any():
            raise AssertionError("lower-bound set has no greatest element")
        return greatest

    def perp(self, i):
        return int(self.perp_idx[i])

    def atoms_idx(self):
        counts = np.bitwise_count(self._down).sum(axis=1)
        return [int(i) for i in np.where(counts == 2)[0]]

    def join_batch(self, i, js, verify=True):
        """Joins of element i with each element of js (vectorized)."""
        u = self._up[i] & self._up[js]
        nz = u != 0
        byte = nz.argmax(axis=1)
        rows = np.arange(len(js))
        pos = byte * 8 + _FIRSTBIT[u[rows, byte]]
        out = self._ext[pos]
        if verify:
            bad = (u & ~self._up[out]).any(axis=1)
            if bad.any():
                raise AssertionError("upper-bound set has no least element")
        return out

    def meet_batch(self, i, js, verify=True):
        d = self._down[i] & self._down[js]
        rev = d[:, ::-1] != 0
        byte = d.shape[1] - 1 - rev.argmax(axis=1)
        rows = np.arange(len(js))
        pos = byte * 8 + _LASTBIT[d[rows, byte]]
        out = self._ext[pos]
        if verify:
            bad = (d & ~self._down[out]).any(axis=1)
            if bad.any():
                raise AssertionError("lower-bound set has no greatest element")
        return out

    def commutator_idx(self, i, j):
        pi, pj = self.perp(i), self.perp(j)
        a = self.join_idx(i, j)
        b = self.join_idx(i, pj)
        c = self.join_idx(pi, j)
        d = self.join_idx(pi, pj)
        return self.meet_idx(self.meet_idx(a, b), self.meet_idx(c, d))

    def commutes_idx(self, i, j):
        return self.commutator_idx(i, j) == self.bottom

    def union_is_chain(self, i, j):
        terms = set(self.seqs[i]) | set(self.seqs[j])
        leq = self.base.leq
        return all(leq[u, v] or leq[v, u] for u in terms for v in terms)

    # -- verification ---------------------------------------------------

    def check_order_against_definition(self, sample=None, seed=0):
        """Compare the built up-sets and down-sets with definitional kleq.

        Exhaustive when ``sample`` is None, else on a seeded random sample of
        index pairs.  Pairs are evaluated in vectorised blocks; raises
        AssertionError at the first disagreeing pair.
        """
        leq = self.base.leq
        lo, hi = _interval_terms(self.base, self.seqs)
        for i, j in _pair_blocks(self.n, sample, seed):
            # kleq_terms over the block: every interval of x inside one of y
            inside = (leq[lo[j][:, None, :], lo[i][:, :, None]]
                      & leq[hi[i][:, :, None], hi[j][:, None, :]])
            want = inside.any(axis=2).all(axis=1)
            ri, rj = self._rank[i], self._rank[j]
            up = (self._up[i, rj >> 3] >> (rj & 7)) & 1
            down = (self._down[j, ri >> 3] >> (ri & 7)) & 1
            bad = np.flatnonzero((up != want) | (down != want))
            if len(bad):
                x, y = int(i[bad[0]]), int(j[bad[0]])
                raise AssertionError(
                    f"order mismatch at ({self.names[x]}, {self.names[y]})"
                )

    def check_orthomodular(self, chunk=4096):
        """Exhaustive orthomodular-law check over all comparable pairs."""
        worst = None
        for x in range(self.n):
            ys = self._ext[np.flatnonzero(self.up_row(x))]
            ys = ys[ys != x]
            px = self.perp(x)
            for s in range(0, len(ys), chunk):
                batch = ys[s : s + chunk]
                rebuilt = self.join_batch(x, self.meet_batch(px, batch))
                for y in batch[rebuilt != batch]:
                    cand = (self.names[x], self.names[int(y)])
                    worst = cand if worst is None else min(worst, cand)
        self.orthomodular = worst is None
        self.orthomodular_witness = worst
        return self.orthomodular, worst

    # -- materialization --------------------------------------------------

    def as_ortholattice(self, max_table_size=2048):
        """Materialize K(L) as a table-backed OrthoLattice (small K only)."""
        if self.n > max_table_size:
            raise TooLarge(
                f"K has {self.n} elements; table materialization capped at "
                f"{max_table_size}"
            )
        full = np.zeros((self.n, self.n), dtype=bool)
        bits = np.unpackbits(self._up, axis=1, bitorder="little")
        full[:, self._ext] = bits[:, : self.n]
        L = BoundedLattice.from_leq(self.names, full, max_size=max_table_size)
        perp_map = {self.names[i]: self.names[self.perp(i)] for i in range(self.n)}
        return ortholattice(L, perp_map)


def kalmbach(L, cap=DEFAULT_K_CAP, verify_cap=DEFAULT_VERIFY_CAP,
             verify_sample=DEFAULT_VERIFY_SAMPLE, check_om=True, seed=0):
    """Construct K(L) for a finite bounded lattice L.

    Raises TooLarge when the even-length-chain count exceeds ``cap`` or the
    up/down tables would pass MAX_TABLE_BYTES.  The order is the definitional
    one, factored through the intervals of L: U[a, b] is the set of sequences
    y with some y_2j <= a and b <= y_2j+1, up(x) is the AND of U[x_2i, x_2i+1]
    over the intervals of x, and down(y) = {x : x' in up(y')}, because x <= y
    exactly when y' <= x'.  Columns follow the linear extension that sorts
    elements stably by down-set size.  The tables are checked against
    ``kleq_terms`` (exhaustively up to ``verify_cap`` elements, on
    ``verify_sample`` seeded pairs beyond), and the orthomodular law is
    checked exhaustively unless ``check_om`` is False.
    """
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
        step = max(1, (1 << 22) // nb)
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

    max_chains = tuple(tuple(L.index(nm) for nm in C) for C in maximal_chains(L))
    K = KalmbachOML(L, tuple(seqs), up, down, ext, perp_idx, max_chains)
    K.check_order_against_definition(
        sample=None if n <= verify_cap else verify_sample, seed=seed)
    if check_om:
        K.check_orthomodular()
    return K


# -- checkers -------------------------------------------------------------


def katoms_check(K):
    """Atoms of K(L) are exactly the two-term sequences over covers of L."""
    covers = np.argwhere(K.base.cover_matrix)
    expected = {K.index(seq_name(K.base, (int(a), int(b)))) for a, b in covers}
    return set(K.atoms_idx()) == expected


def kblocks_check(K, max_table_size=2048):
    """Blocks of K(L) correspond bijectively to maximal chains via C -> K(C)."""
    OL = K.as_ortholattice(max_table_size)
    clique_blocks = {frozenset(b.elements) for b in blocks(OL)}
    chain_blocks = {
        frozenset(K.names[i] for i, s in enumerate(K.seqs) if set(s) <= C)
        for C in map(set, K.max_chains)
    }
    return clique_blocks == chain_blocks and len(chain_blocks) == len(K.max_chains)


def kcommute_check(K, sample=None, seed=0):
    """commutes(x, y) iff the union of term sets is a chain in L (all pairs)."""
    if sample is None:
        pairs = (
            (i, j) for i in range(K.n) for j in range(i, K.n)
        )
    else:
        rng = random.Random(seed)
        pairs = (
            (rng.randrange(K.n), rng.randrange(K.n)) for _ in range(sample)
        )
    for i, j in pairs:
        if K.commutes_idx(i, j) != K.union_is_chain(i, j):
            return False
    return True


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
