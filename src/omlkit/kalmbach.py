"""The Kalmbach construction K(L) over finite bounded lattices.

Elements of K(L) are even-length strictly increasing sequences in L, and
x <= y when every interval [x_2i, x_2i+1] of x lies inside some interval
[y_2j, y_2j+1] of y; x' has the terms of x XOR {0, 1}.  The atoms of K(L)
are the two-term sequences (c, d) over the covers c < d of L, and each
element x has a signature A_x: the set of covers whose interval lies inside
some interval of x.  The order is inclusion of signatures: a maximal chain
of covers from x_2i to x_2i+1 has consecutive covers sharing an element,
and the intervals of y are pairwise disjoint, so if every cover lies in
some interval of y, they all lie in one.  So distinct elements have
distinct signatures, a meet is the element whose signature is A_x & A_y,
and a join is (x' ^ y')'.  Signatures are built from the definition, one row
per interval of L holding the covers inside it (``_signatures``), and
their inclusion is checked against the definition read from L and the
sequences alone: x <= y iff the intervals of x all lie among the intervals
inside some interval of y (``_kleq_tables``).  The check is
exact at every size: one test per (interval of L, element) and one union
per element, not one test per pair.  ``KalmbachOML.order_check`` records
the tests and how many were comparable.

K keeps each element as its padded terms and its term mask, with no
per-element Python objects: a name is built when it is read, and
``KalmbachOML.index`` parses a name back to a mask and finds it in an
index of the masks.  Meets and joins find their results in an index of the
signatures.  An index over at least ``_HASH_MIN_ROWS`` one-word keys is an
open-addressing hash table; a smaller or wider one is a sorted array read
by binary search.

In an OML, z -> z ^ x' maps [x, y] onto [0, y ^ x'] (Kalmbach, *Orthomodular
Lattices*, 1983), so ``interval_heights`` reads interval heights from one
per-element table of the heights of [0, z].
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NoBounds, NotOML, TooLarge
from .lattice import _BLOCK_BYTES, BoundedLattice, maximal_chains
from .ortho import boolean_cliques, ortholattice

DEFAULT_K_CAP = 200_000
# as_ortholattice (n x n tables), kblocks and so kblocks_check (queries over
# the n (n + 1) / 2 pairs x <= y of ids, and an n x n commutation matrix) and
# kcommute_check (queries over the same pairs) raise TooLarge, before
# allocating, above this many elements.
MAX_DENSE_SIZE = 2048
_UPPER = "upper-bound set has no least element"
_LOWER = "lower-bound set has no greatest element"


def seq_name(base, terms):
    return "(" + ",".join(map(base.names.__getitem__, terms)) + ")"


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


def kperp_terms(L, terms):
    """Symmetric difference of the term set with the bounds, sorted in L."""
    rank = {e: k for k, e in enumerate(L.linear_extension())}
    return tuple(sorted(set(terms) ^ {L.bottom, L.top}, key=rank.__getitem__))


def kperp(L, x_names):
    terms = tuple(L.index(nm) for nm in x_names)
    return tuple(L.names[t] for t in kperp_terms(L, terms))


def _count_even_chains(L):
    """The number of even-length chains of L, the size of K(L)."""
    odd, even = [0] * L.n, [0] * L.n  # chains ending at v, by parity of length
    for v in L.linear_extension():
        below = [u for u in range(L.n) if u != v and L.leq[u, v]]
        odd[v] = 1 + sum(even[u] for u in below)
        even[v] = sum(odd[u] for u in below)
    return 1 + sum(even)


def _even_chains(L):
    """The even-length chains of L, ordered by rank tuple, a prefix first.

    Returns the padded (n, 2p) terms, each chain bottom to top and padded
    with (top, bottom), which lies inside every interval and contains only
    itself, in the smallest unsigned dtype that holds L.n; and the (n, w)
    little-endian uint64 term masks, bit e of a row in word e // 64 set
    when e is a term, w = ceil(L.n / 64).  The chains
    grow one level at a time in the ranks of L's linear extension, with
    their masks: each is extended by every rank strictly above its last,
    read from a CSR of the strict up-sets, and the even levels are kept.
    """
    ext = np.array(L.linear_extension(), dtype=np.min_scalar_type(L.n))
    up = L.leq[ext[:, None], ext] & ~np.eye(L.n, dtype=bool)
    counts_of = up.sum(axis=1)
    starts = np.cumsum(counts_of) - counts_of
    rank_dtype = np.min_scalar_type(-L.n)  # signed, for the padding -1
    above = np.nonzero(up)[1].astype(rank_dtype)
    bits = _pack(np.eye(L.n, dtype=bool)[ext])  # the mask of each rank
    chains, masks = np.arange(L.n, dtype=rank_dtype)[:, None], bits
    levels = [(chains[:1, :0], np.zeros_like(bits[:1]))]
    while len(chains):
        if chains.shape[1] % 2 == 0:
            levels.append((chains, masks))
        last = chains[:, -1]
        counts = counts_of[last]
        parent = np.repeat(np.arange(len(chains)), counts)
        first = (starts[last] - np.cumsum(counts) + counts)[parent]
        new = above[first + np.arange(len(parent))]
        chains = np.column_stack((chains[parent], new))
        masks = masks[parent] | bits[new]
    p = max(1, levels[-1][0].shape[1] // 2)
    ranks = np.concatenate([
        np.column_stack((c, np.full((len(c), 2 * p - c.shape[1]), -1, c.dtype)))
        for c, _ in levels])
    order = np.lexsort(ranks.T[::-1])
    ranks, masks = ranks[order], np.concatenate([m for _, m in levels])[order]
    pad = np.tile(np.array([L.top, L.bottom], dtype=ext.dtype), p)
    terms = np.where(ranks < 0, pad, ext[ranks])
    return terms, masks


def _seq(base, terms, i):
    """The terms of element i, row i of the padded ``_even_chains`` terms,
    as a tuple without the (top, bottom) padding."""
    row = terms[i].tolist()
    while row[-2:] == [base.top, base.bottom]:
        del row[-2:]
    return tuple(row)


def _pack(bits):
    """(m, w) little-endian uint64 words holding the columns of a bool (m, c)
    matrix, bit k of a row in word k // 64; w = ceil(c / 64), at least 1."""
    m, c = bits.shape
    words = np.zeros((m, 64 * max(1, -(-c // 64))), dtype=bool)
    words[:, :c] = bits
    return np.packbits(words, axis=1, bitorder="little").view("<u8")


def _unpack(sig):
    """The (m, 64 w) bool matrix of the bits of (m, w) signature words."""
    return np.unpackbits(np.ascontiguousarray(sig).view(np.uint8), axis=1,
                         bitorder="little").view(bool)


def _keys(sig):
    """One sortable key per signature of a (..., w) word array: the word
    itself when w = 1, else the row's bytes."""
    if sig.shape[-1] == 1:
        return sig[..., 0]
    sig = np.ascontiguousarray(sig)
    return sig.view(np.dtype((np.void, sig.itemsize * sig.shape[-1])))[..., 0]


def _mask(n, elements):
    """The (1, w) words of ``_pack`` with the bits of ``elements`` set."""
    bits = np.zeros((1, n), dtype=bool)
    bits[0, list(elements)] = True
    return _pack(bits)


# An index over at least this many one-word rows is a hash table; a smaller
# or wider one is sorted.  Timed over whole `check --kalmbach` runs, the table
# lost on nine of ten K of 64 elements or fewer, where a probe's numpy calls
# cost more than a binary search, and won on all thirteen from 96 elements up
# (CHANGES.md).
_HASH_MIN_ROWS = 128
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class _Sorted(NamedTuple):
    """The rows in key order (a stable sort) and their sorted keys."""

    ids: np.ndarray
    keys: np.ndarray

    def find(self, keys):
        """The least row with each key of an array, or None if one is
        absent."""
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.ids) - 1)
        return self.ids[pos] if (self.keys[pos] == keys).all() else None


def _homes(keys, shift):
    """The home slots (key * _GOLDEN) >> shift of a 1-d array of keys; a
    shift of at least 1 leaves them below 2^63, so they read as intp."""
    home = keys * _GOLDEN
    home >>= shift
    return home.view(np.intp)


class _Hashed(NamedTuple):
    """An open-addressing table of one-word keys.

    The home slot of a key is (key * _GOLDEN) >> shift, one of
    2^(64 - shift) >= 4 n slots.  Rows are placed by linear probing in the
    order of their homes, ties by row, with no wrap-around: the table runs
    on past the last occupied slot to one spare empty slot.  ``slots`` maps
    a slot to its row, -1 when empty; ``keys`` are the rows' own keys, a
    view of the indexed words, not a copy.
    """

    slots: np.ndarray
    keys: np.ndarray
    shift: np.uint64

    @classmethod
    def build(cls, keys):
        n = len(keys)
        bits = (n - 1).bit_length() + 2
        shift = np.uint64(64 - bits)
        home = _homes(keys, shift)
        order = np.argsort(home, kind="stable")
        i = np.arange(n)
        pos = np.maximum.accumulate(home[order] - i) + i
        slots = np.full(max(1 << bits, int(pos[-1]) + 1) + 1, -1, np.int32)
        slots[pos] = order
        return cls(slots, keys, shift)

    def find(self, keys):
        """The least row with each key of an array, or None if one is absent.

        Each key is compared with the row in its home slot, and the misses
        step one slot on in vectorised rounds until a hit; a miss at an
        empty slot means the key is absent.  The -1 of an empty slot reads
        the last row's key, which no absent key equals, and which a present
        key meets only at its own slot, as its run holds no empty slot.
        """
        want = np.ravel(keys)
        pos = _homes(want, self.shift)
        ids = self.slots[pos]
        miss = np.flatnonzero(self.keys[ids] != want)
        at, pos = ids[miss], pos[miss]
        while len(miss):
            if (at < 0).any():
                return None
            pos += 1
            at = self.slots[pos]
            hit = self.keys[at] == want[miss]
            ids[miss[hit]] = at[hit]
            miss, pos, at = miss[~hit], pos[~hit], at[~hit]
        return ids.astype(np.intp).reshape(np.shape(keys))


def _index(sig):
    """The index that ``_search`` finds the rows of a (n, w) word array by:
    a hash table of the rows' keys when w = 1 and n >= _HASH_MIN_ROWS, else
    the rows sorted by key.  It holds the words, not their owner."""
    keys = _keys(sig)
    if sig.shape[1] == 1 and len(sig) >= _HASH_MIN_ROWS:
        return _Hashed.build(keys)
    ids = np.argsort(keys, kind="stable")
    return _Sorted(ids, keys[ids])


def _search(index, sig, message):
    """The ids, by an ``_index`` index, of the rows with the words in the
    (..., w) array sig; raises AssertionError(message) if one has none.  Of
    several equal rows the least id is found."""
    ids = index.find(_keys(sig))
    if ids is None:
        raise AssertionError(message)
    return ids


def _equal_rows(index, sig):
    """(x, y), x < y, with equal words in the (n, w) array that ``index``
    indexes, the least such y and the least x; None when the rows are
    distinct.  Every row finds itself unless an equal row comes first."""
    found = _search(index, sig, "an indexed row is missing")
    other = np.flatnonzero(found != np.arange(len(sig)))
    return (int(found[other[0]]), int(other[0])) if len(other) else None


def _intervals(L):
    """(a, b, number): the intervals of L, the pairs a < b in row-major
    order and then the padding (top, bottom), which lies inside every
    interval and contains only itself; and the (L.n, L.n) table giving the
    position of each in that list."""
    a, b = np.nonzero(L.leq & ~np.eye(L.n, dtype=bool))
    a, b = np.append(a, L.top), np.append(b, L.bottom)
    number = np.zeros((L.n, L.n), dtype=np.intp)
    number[a, b] = np.arange(len(a))
    return a, b, number


def _signatures(L, lo, hi):
    """The signatures of the elements with the interval ends lo, hi of the
    ``_even_chains`` terms, one bit per cover (c, d) of L: bit k of row x
    says that [c, d] lies inside some interval [x_2i, x_2i+1].

    One table has a row per interval [a, b] of L (``_intervals``), the
    covers with a <= c and d <= b; the padding holds none.  Row x is the OR
    of the rows of its p intervals.  The table is built 8 * ceil(D / 64) of
    its D rows at a time, so each step's (rows, covers) bools, like the
    table itself, take fewer bytes than the D * ceil(D / 64) words of
    ``_kleq_tables``' containment table: L has fewer covers than intervals.
    """
    a, b, number = _intervals(L)
    c, d = np.nonzero(L.cover_matrix)
    step = 8 * -(-len(a) // 64)
    table = np.concatenate([
        _pack(L.leq[a[s:s + step, None], c] & L.leq[d, b[s:s + step, None]])
        for s in range(0, len(a), step)])
    sig = table[number[lo[:, 0], hi[:, 0]]]
    for j in range(1, lo.shape[1]):
        sig |= table[number[lo[:, j], hi[:, j]]]
    return sig


def _kleq_tables(L, lo, hi):
    """(ivals, inside) with kleq_terms(L.leq, seqs[x], seqs[y]) true iff
    every number in ivals[x] is a bit of inside[y], built from the order of L
    and the interval ends lo, hi of the ``_even_chains`` terms alone.

    The intervals of L are numbered by ``_intervals``: the pairs a < b in
    row-major order, then the padding (top, bottom).  ivals is the (n, p)
    array of the numbers of the padded intervals of each element.  inside
    is an (n, w) little-endian uint64 bitset over the numbers: inside[y] is
    the set of intervals that lie inside some interval of y, the union, over
    the intervals c of y, of held[c] = {d : d inside c}, filled one interval
    column at a time.
    """
    a, b, number = _intervals(L)
    held = _pack(L.leq[a[:, None], a] & L.leq[b, b[:, None]])
    ivals = number[lo, hi]
    inside = np.zeros((len(lo), held.shape[1]), dtype=held.dtype)
    for d in ivals.T:
        inside |= held[d]
    return ivals, inside


def _bit_rows(cols, bits):
    """(m, n) bools: row k holds bit bits[k] of each row of the (n, w)
    bitset whose transpose is cols."""
    words = cols[bits >> 6] >> (bits & 63).astype(np.uint64)[:, None]
    return (words & np.uint64(1)).astype(bool)


class OrderCheck(NamedTuple):
    """How ``check_order_against_definition`` established K's order: by all
    ``intervals`` * ``elements`` tests (i, y), ``comparable`` of them with
    x_i <= y, and the union identity at every element."""

    method: str           # "exhaustive"
    intervals: int        # the intervals a < b of L, plus the padding
    elements: int         # n
    comparable: int


class _Names(Sequence):
    """The names of K's elements in id order, each built when it is read.

    It holds the base and the padded terms only, not K, so it makes no
    reference cycle with K.
    """

    __slots__ = ("_base", "_terms")

    def __init__(self, base, terms):
        self._base, self._terms = base, terms

    def __len__(self):
        return len(self._terms)

    def __getitem__(self, i):
        return seq_name(self._base, _seq(self._base, self._terms, i))


class KalmbachOML:
    """K(L) with its order, join, meet and orthocomplement read from atom
    signatures.

    Satisfies the same element protocol as BoundedLattice (n, names, index,
    leq_idx, join_idx, meet_idx, bottom, top) so generic helpers such as
    compactness_witness work on it directly.  ``signatures`` is the (n, w)
    little-endian uint64 array of the element signatures, bit k of row x set
    when the k-th atom lies below x; assigning it rebuilds the ``_index``
    that meets and joins find their results in.  The elements are the rows
    of ``terms`` and ``masks``, the padded terms and the term masks of
    ``_even_chains`` (bit e of row x set when e is a term of x); K keeps no
    per-element Python object.  ``names`` is a sequence that builds each
    name when read, ``seqs`` the term tuples, built on first use, and
    ``index`` finds a name by the mask of its terms in the ``_index`` of the
    masks, the index that perp, ``bottom`` and ``top`` are found by.
    """

    def __init__(self, base, terms, masks, signatures, max_chains):
        self.base = base
        self.terms = terms
        self.masks = masks
        self.names = _Names(base, terms)
        self.signatures = signatures
        self._mask_index = _index(masks)
        bounds = _mask(base.n, (base.bottom, base.top))
        self.perp_idx = _search(self._mask_index, masks ^ bounds,
                                "a sequence has no orthocomplement")
        self.bottom, self.top = _search(
            self._mask_index, np.concatenate((_mask(base.n, ()), bounds)),
            "K has no bound").tolist()
        self.max_chains = max_chains  # base maximal chains as index tuples
        self.order_check = None       # an OrderCheck, set by kalmbach
        self.orthomodular = None      # set by check_orthomodular
        self.orthomodular_witness = None

    @property
    def signatures(self):
        return self._signatures

    @signatures.setter
    def signatures(self, sig):
        self._signatures = sig
        self._sig_index = _index(sig)
        self._forget()

    @property
    def perp_idx(self):
        return self._perp_idx

    @perp_idx.setter
    def perp_idx(self, perp):
        self._perp_idx = perp
        self._forget()

    def _forget(self):
        """Drop the tables that signatures and perp determine."""
        self.__dict__.pop("_heights", None)
        self.__dict__.pop("_commutes", None)

    # -- protocol -------------------------------------------------------

    @property
    def n(self):
        return len(self.signatures)

    @cached_property
    def seqs(self):
        """The terms of every element as index tuples, built on first use."""
        return tuple(_seq(self.base, self.terms, i) for i in range(self.n))

    def index(self, name):
        """The id of the element named ``name``.

        The name is parsed to its terms, whose mask is found by one lookup
        in the index of the masks.  Raises KeyError when a term is no base
        name, when the terms are no element, or when they are one but
        ``names`` spells it otherwise, as for terms out of order.  When a
        base name holds a comma, the name cannot be split into terms and is
        looked up in ``names`` one by one.
        """
        base = self.base
        if any("," in nm for nm in base.names):
            try:
                return self.names.index(name)
            except ValueError:
                raise KeyError(name) from None
        if name[:1] != "(" or name[-1:] != ")":
            raise KeyError(name)
        inner = name[1:-1]
        try:
            terms = [base.index(t) for t in inner.split(",")] if inner else []
            i = int(_search(self._mask_index, _mask(base.n, terms),
                            "no element has these terms")[0])
        except (KeyError, AssertionError):
            raise KeyError(name) from None
        if self.names[i] != name:
            raise KeyError(name)
        return i

    def seq_names(self, i):
        return tuple(map(self.base.names.__getitem__,
                         _seq(self.base, self.terms, i)))

    def leq_batch(self, xs, ys):
        """Whether x <= y, A_x inside A_y, over broadcast id arrays xs, ys."""
        sig = self.signatures
        return ~(sig[xs] & ~sig[ys]).any(axis=-1)

    def leq_idx(self, i, j):
        return bool(self.leq_batch(i, j))

    def meet_batch(self, xs, ys):
        """Meets x ^ y over broadcast id arrays: the element whose signature
        is A_x & A_y, which exists whenever the meet does."""
        sig = self.signatures
        return _search(self._sig_index, sig[xs] & sig[ys], _LOWER)

    def join_batch(self, xs, ys):
        """Joins x v y = (x' ^ y')' over broadcast id arrays, each checked to
        lie above x and y.  This needs perp to be an order-reversing
        involution, a premise that ``check_orthomodular`` checks."""
        sig, perp = self.signatures, self.perp_idx
        js = perp[_search(self._sig_index, sig[perp[xs]] & sig[perp[ys]],
                          _UPPER)]
        if ((sig[xs] | sig[ys]) & ~sig[js]).any():
            raise AssertionError(_UPPER)
        return js

    def join_idx(self, i, j):
        return int(self.join_batch(i, j))

    def meet_idx(self, i, j):
        return int(self.meet_batch(i, j))

    def perp(self, i):
        return int(self.perp_idx[i])

    def atoms_idx(self):
        """The elements whose signature has one bit, ascending."""
        sizes = np.bitwise_count(self.signatures).sum(axis=1)
        return np.flatnonzero(sizes == 1).tolist()

    def _atom_bits(self):
        """(atom ids, the signature bit of each atom) as two lists."""
        atoms = self.atoms_idx()
        return atoms, _unpack(self.signatures[atoms]).argmax(axis=1).tolist()

    @cached_property
    def _heights(self):
        """min(height of [0, z], 3) for every z, built on first use.

        The height is |A_z| up to 1.  Above that it is 2 unless [p, z] has
        height 2 or more for some atom p <= z; in an OML [p, z] is
        isomorphic to [0, z ^ p'], whose signature is A_z & A_p'.
        """
        sig = self.signatures
        has = _unpack(sig)
        tall = np.zeros(self.n, dtype=bool)
        for p, k in zip(*self._atom_bits()):
            below = np.bitwise_count(sig & sig[self.perp_idx[p]]).sum(axis=1)
            tall |= has[:, k] & (below > 1)
        return np.where(tall, 3, np.minimum(has.sum(axis=1), 2))

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
        return self._heights[z]

    @cached_property
    def _commutes(self):
        """Whether x and y commute over the upper triangle of the ids, with
        its diagonal, in ``np.triu_indices`` order; built on first use."""
        return self.commutes_idx(*np.triu_indices(self.n))

    def commutes_idx(self, xs, ys):
        """Whether x and y commute, over broadcast id arrays xs and ys.

        They commute when their commutator
        (x v y) ^ (x v y') ^ (x' v y) ^ (x' v y') is the bottom.
        """
        pxs, pys = self.perp_idx[xs], self.perp_idx[ys]
        ab = self.meet_batch(self.join_batch(xs, ys), self.join_batch(xs, pys))
        cd = self.meet_batch(self.join_batch(pxs, ys), self.join_batch(pxs, pys))
        return self.meet_batch(ab, cd) == self.bottom

    def within(self, elements):
        """Whether every term of x lies in ``elements`` of L, for every x."""
        return ~(self.masks & ~_mask(self.base.n, elements)).any(axis=1)

    def union_is_chain(self, xs, ys):
        """Whether the terms of x and y form a chain in L, over id arrays.

        Each sequence is a chain, so this holds iff the terms of y lie in
        ok[x], the elements of L comparable to every term of x, read from
        the order of the base at each call.
        """
        leq = self.base.leq
        has = _unpack(self.masks)
        ok = np.full_like(self.masks, ~np.uint64(0))
        for e, row in enumerate(_pack(leq | leq.T)):
            ok[has[:, e]] &= row
        return ~(self.masks[ys] & ~ok[xs]).any(axis=-1)

    # -- verification ---------------------------------------------------

    def check_order_against_definition(self, lo, hi):
        """Check that the signatures are distinct and that their inclusion
        is the definitional kleq on all pairs; returns an ``OrderCheck``.

        lo, hi are the interval ends of the terms of ``_even_chains``.  By
        ``_kleq_tables``, which never looks at the signatures, x <= y iff
        every interval i of x lies in inside[y].  Let x_i be the element
        whose one interval is i: (a_i, b_i), or () for the padding.  Two
        tests over the D padded intervals of L take D * n steps:
        (a) A_(x_i) <= A_y iff i lies in inside[y], for every i and y;
        (b) A_x is the union of the A_(x_i) over the intervals i of x.
        Together they prove A_x <= A_y iff A_(x_i) <= A_y for every interval
        i of x, iff every such i lies in inside[y], iff x <= y.  Raises
        AssertionError at the pair (x, y) of equal signatures with the least
        y and then the least x < y, else at the first pair (x_i, y) failing
        (a), a block of intervals at a time, else at the first x failing
        (b): at the first y where the orders differ on (x, y), or at x alone
        if there is none.
        """
        same = _equal_rows(self._sig_index, self.signatures)
        if same is not None:
            x, y = same
            raise AssertionError(
                f"equal signatures at ({self.names[x]}, {self.names[y]})")
        ivals, inside = _kleq_tables(self.base, lo, hi)
        cols, sig, ids = inside.T.copy(), self.signatures, np.arange(self.n)
        single = (ivals[:, 1:] == ivals[self.bottom, 0]).all(axis=1)
        x_of = np.empty(ivals[self.bottom, 0] + 1, dtype=np.int64)
        x_of[ivals[single, 0]] = ids[single]  # the padding is numbered last
        step = max(1, _BLOCK_BYTES // sig.nbytes)
        for s in range(0, len(x_of), step):
            i = np.arange(s, min(s + step, len(x_of)))
            got = ~(sig[x_of[i], None] & ~sig).any(axis=-1)
            bad = got != _bit_rows(cols, i)
            if bad.any():
                k, y = np.argwhere(bad)[0]
                x = x_of[s + k]
                break
        else:
            union = np.zeros_like(sig)
            for d in ivals.T:
                union |= sig[x_of[d]]
            wrong = np.flatnonzero((union != sig).any(axis=1))
            if not len(wrong):
                return OrderCheck("exhaustive", len(x_of), self.n,
                                  int(np.bitwise_count(inside).sum()))
            x = wrong[0]
            want = _bit_rows(cols, ivals[x]).all(axis=0)
            ys = np.flatnonzero(self.leq_batch(x, ids) != want)
            if not len(ys):
                raise AssertionError(f"the signature of {self.names[x]} is "
                                     "not the union of its intervals'")
            y = ys[0]
        raise AssertionError(
            f"order mismatch at ({self.names[x]}, {self.names[y]})")

    def check_orthomodular(self):
        """Exhaustive orthomodular-law check, one pass over (element, atom)
        pairs.

        The premise is that perp is an orthocomplement: perp is an
        involution, A_x & A_x' is empty, and A_x' = {p : A_x inside A_p'},
        which makes perp reverse the order.  If it fails, the verdict is
        False and the witness is (name x, name x') for the least name x at
        which it fails.

        Under the premise the law x <= y implies x v (x' ^ y) = y holds iff
        x <= y and x' ^ y = 0 imply x = y (Kalmbach, *Orthomodular Lattices*,
        1983), and it fails with upper end y iff some atom p outside
        A_y | A_y' has A_(y ^ p')' & A_y empty.  (If x < y and x' ^ y = 0,
        then w = x' > y' has A_w & A_y empty, and any p in A_w - A_y' gives
        y' v p <= w; conversely x = y ^ p' is such an x.)  The law itself is
        then rerun with joins and meets at those y only, so the witness is
        the least (name x, name y) over all failing pairs.
        """
        sig, perp = self.signatures, self.perp_idx
        ids = np.arange(self.n)
        psig = sig[perp]
        has, phas = _unpack(sig), _unpack(psig)
        atoms, bits = self._atom_bits()
        rebuilt = np.zeros_like(has)  # bit k of p: is A_x inside A_p'?
        for p, k in zip(atoms, bits):
            rebuilt[:, k] = ~(sig & ~sig[perp[p]]).any(axis=1)
        fails = ((perp[perp] != ids) | (sig & psig).any(axis=1)
                 | (rebuilt != phas).any(axis=1))
        if fails.any():
            x = min(np.flatnonzero(fails), key=self.names.__getitem__)
            return self._verdict((self.names[x], self.names[perp[x]]))
        suspect = np.zeros(self.n, dtype=bool)
        for p, k in zip(atoms, bits):
            ys = np.flatnonzero(~has[:, k] & ~phas[:, k])
            m = self.meet_batch(ys, perp[p])
            suspect[ys[~(sig[perp[m]] & sig[ys]).any(axis=1)]] = True
        worst = None
        for y in np.flatnonzero(suspect):
            xs = ids[self.leq_batch(ids, y) & (ids != y)]
            bad = self.join_batch(xs, self.meet_batch(perp[xs], y)) != y
            for x in xs[bad]:
                cand = (self.names[x], self.names[y])
                worst = cand if worst is None else min(worst, cand)
        return self._verdict(worst)

    def _verdict(self, witness):
        self.orthomodular = witness is None
        self.orthomodular_witness = witness
        return self.orthomodular, witness

    # -- materialization --------------------------------------------------

    def as_ortholattice(self):
        """Materialize K(L) as a table-backed OrthoLattice (small K only)."""
        _check_dense(self, "table materialization")
        ids = np.arange(self.n)
        full = self.leq_batch(ids[:, None], ids)
        L = BoundedLattice.from_leq(self.names, full, max_size=MAX_DENSE_SIZE)
        perp_map = {self.names[i]: self.names[self.perp(i)] for i in range(self.n)}
        return ortholattice(L, perp_map)


def kalmbach(L, cap=DEFAULT_K_CAP):
    """Construct K(L) for a finite bounded lattice L.

    Raises TooLarge, before enumerating anything, when the even-length-chain
    count exceeds ``cap``.  One ``_even_chains`` call gives ``K.terms``, the
    interval ends and ``K.masks``; x' is found by one lookup of the mask of
    x XOR {bottom, top} in the index of the masks.  No name or term tuple
    is built: names are built when read.  The signatures are built from
    the definition, one table row per interval of L holding the covers
    inside it, OR-ed over the intervals of each x: bit k of x says that the
    k-th cover of L lies inside an interval of x.  They are checked
    distinct, and their inclusion is checked against the definition on all
    pairs, by one test per (interval of L, element) and the union identity
    of ``check_order_against_definition``; ``K.order_check`` keeps the
    ``OrderCheck`` record.  The orthomodular law is then checked
    exhaustively by ``check_orthomodular``, one pass over (element, atom)
    pairs.
    """
    if L.bottom == L.top:
        raise NoBounds("K(L) needs a bottom strictly below the top, and L "
                       "has one element")
    n = _count_even_chains(L)
    if n > cap:
        raise TooLarge(
            f"K(L) has {n} elements, over the configured cap of {cap} elements"
        )
    terms, masks = _even_chains(L)
    max_chains = tuple(tuple(L.index(nm) for nm in C) for C in maximal_chains(L))
    lo, hi = terms[:, 0::2], terms[:, 1::2]
    K = KalmbachOML(L, terms, masks, _signatures(L, lo, hi), max_chains)
    K.order_check = K.check_order_against_definition(lo, hi)
    K.check_orthomodular()
    return K


# -- checkers -------------------------------------------------------------


def katoms_check(K):
    """Atoms of K(L) are exactly the two-term sequences over covers of L,
    found by one lookup of the masks of the covers in K's index of masks."""
    L = K.base
    c, d = np.nonzero(L.cover_matrix)
    bits = np.zeros((len(c), L.n), dtype=bool)
    bits[np.arange(len(c)), c] = bits[np.arange(len(c)), d] = True
    expected = _search(K._mask_index, _pack(bits),
                       "a cover of L is no element of K")
    return set(K.atoms_idx()) == set(expected.tolist())


def _check_dense(K, work):
    """Raise TooLarge, before any n x n work, when K has more than
    MAX_DENSE_SIZE elements."""
    if K.n > MAX_DENSE_SIZE:
        raise TooLarge(
            f"K has {K.n} elements; {work} capped at {MAX_DENSE_SIZE}")


def _commuting_pairs(K, work):
    """The id pairs (x, y) with x <= y as numbers, the upper triangle with
    its diagonal, and whether each pair commutes, as three arrays.  The
    commutation is evaluated once per K, signatures and perp."""
    _check_dense(K, work)
    xs, ys = np.triu_indices(K.n)
    return xs, ys, K._commutes


def kblocks(K):
    """The blocks of K(L) as sorted id lists: the maximal cliques of the
    commutation graph from ``K.commutes_idx``, each verified to be a Boolean
    subalgebra from K's batch queries by ``ortho.boolean_cliques``.

    Raises NotOML unless ``check_orthomodular`` has found K orthomodular.
    """
    if K.orthomodular is not True:
        raise NotOML("blocks are only computed for orthomodular lattices")
    xs, ys, commutes = _commuting_pairs(K, "the block search")
    comm = np.zeros((K.n, K.n), dtype=bool)
    comm[xs, ys] = comm[ys, xs] = commutes
    return boolean_cliques(K, comm)


def kblocks_check(K):
    """Blocks of K(L) correspond bijectively to maximal chains via C -> K(C)."""
    clique_blocks = {frozenset(b) for b in kblocks(K)}
    chain_blocks = {frozenset(np.flatnonzero(K.within(C)).tolist())
                    for C in K.max_chains}
    return clique_blocks == chain_blocks and len(chain_blocks) == len(K.max_chains)


def kcommute_check(K):
    """commutes(x, y) iff the union of term sets is a chain in L (all pairs)."""
    xs, ys, commutes = _commuting_pairs(K, "the commutation check")
    return bool((commutes == K.union_is_chain(xs, ys)).all())


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
    xs, ys = _seq(K.base, K.terms, xi), _seq(K.base, K.terms, yi)
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
