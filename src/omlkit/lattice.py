"""Finite bounded lattices: construction, order queries, covers, chains, predicates.

Elements are identified by opaque string names; all internal computation is
index-based over a fixed linear extension, with numpy tables for the order
relation and the meet/join operations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CycleDetected,
    NoBounds,
    NotALattice,
    NotBelowJoin,
    NotComparable,
    TooLarge,
)

DEFAULT_MAX_SIZE = 4096
# Blocked passes over x hold at most this many bytes in any one array of a
# step, so a step's temporaries stay in a core's cache.  kalmbach's order
# check shares it.
_BLOCK_BYTES = 1 << 19


class BoundedLattice:
    """A finite bounded lattice with precomputed order and meet/join tables.

    Instances are immutable after construction and safe to share between
    threads.  Use :func:`lattice_from_covers` or :meth:`from_leq` to build one;
    both verify the lattice axioms and raise on failure.
    """

    __slots__ = ("names", "leq", "meet", "join", "bottom", "top", "_index",
                 "_ext", "cover_matrix")

    def __init__(self, names, leq, meet, join, bottom, top, ext, cover_matrix):
        self.names = tuple(names)
        self.leq = leq
        self.meet = meet
        self.join = join
        self.bottom = int(bottom)
        self.top = int(top)
        self._ext = ext
        self.cover_matrix = cover_matrix
        self._index = {nm: i for i, nm in enumerate(self.names)}
        for arr in (leq, meet, join, cover_matrix):
            arr.setflags(write=False)

    # -- basic queries -------------------------------------------------

    @property
    def n(self):
        return len(self.names)

    def index(self, name):
        return self._index[name]

    def leq_idx(self, i, j):
        return bool(self.leq[i, j])

    def join_idx(self, i, j):
        return int(self.join[i, j])

    def meet_idx(self, i, j):
        return int(self.meet[i, j])

    def linear_extension(self):
        """Element indices in an order compatible with leq (bottom first)."""
        return tuple(int(i) for i in self._ext)

    def __repr__(self):
        return f"BoundedLattice({self.n} elements, bottom={self.names[self.bottom]!r}, top={self.names[self.top]!r})"

    # -- construction --------------------------------------------------

    @classmethod
    def from_leq(cls, names, leq, max_size=DEFAULT_MAX_SIZE):
        """Build and verify a lattice from a reflexive order matrix."""
        names = tuple(str(nm) for nm in names)
        n = len(names)
        if n == 0:
            raise NoBounds("empty element set")
        if n > max_size:
            raise TooLarge(f"{n} elements exceeds cap {max_size}")
        if len(set(names)) != n:
            raise NotALattice("join", ("duplicate", "names"))
        leq = np.asarray(leq, dtype=bool).copy()
        if leq.shape != (n, n):
            raise ValueError("leq must be square over the element set")
        _check_order_axioms(names, leq)
        bottoms = np.where(leq.all(axis=1))[0]
        tops = np.where(leq.all(axis=0))[0]
        if len(bottoms) != 1 or len(tops) != 1:
            raise NoBounds("lattice must have a unique bottom and top")
        bottom, top = int(bottoms[0]), int(tops[0])

        down_sizes = leq.sum(axis=0)
        ext = np.argsort(down_sizes, kind="stable")
        rext = ext[::-1]
        # up-sets with columns in extension order, down-sets in the reverse;
        # in C order, as a column gather would leave them in Fortran order
        # and every row reduction would stride
        up_ext = np.ascontiguousarray(leq[:, ext])
        down_ext = np.ascontiguousarray(leq.T[:, rext])
        up_sizes = leq.sum(axis=1)

        join = np.empty((n, n), dtype=np.int32)
        meet = np.empty((n, n), dtype=np.int32)
        for X in _blocks(n, n * n):
            join[X], join_bad = _least_bounds(up_ext[X], up_ext, ext, up_sizes)
            meet[X], meet_bad = _least_bounds(down_ext[X], down_ext, rext,
                                              down_sizes)
            failed = (join_bad | meet_bad).any(axis=1)
            if failed.any():
                i = int(failed.argmax())
                op, bad = (("join", join_bad[i]) if join_bad[i].any()
                           else ("meet", meet_bad[i]))
                y = _least_name_index(names, np.flatnonzero(bad))
                raise NotALattice(op, (names[X[i]], names[y]))

        strict = leq & ~np.eye(n, dtype=bool)
        cover_matrix = strict & ~(strict @ strict)
        return cls(names, leq, meet, join, bottom, top, ext, cover_matrix)


def _blocks(n, per_x):
    """range(n) cut into consecutive index arrays of as many x as fit
    ``per_x`` bytes each in _BLOCK_BYTES, and never fewer than one."""
    step = max(1, _BLOCK_BYTES // max(1, per_x))
    return [np.arange(s, min(s + step, n)) for s in range(0, n, step)]


def _least_bounds(rows, sets, order, sizes):
    """Per x of ``rows`` and y: the first element of ``order`` in the bound
    sets of both, and whether the common bounds have no least element.

    ``rows`` and ``sets`` are bound sets (up-sets or down-sets) with columns
    in ``order``, and ``sizes`` the set sizes by element.  A top (bottom)
    exists, so the first common bound c is one, and by transitivity c's own
    set lies inside the common bounds: they are equal iff their sizes are.
    """
    common = rows[:, None, :] & sets[None, :, :]
    first = order[common.argmax(axis=2)]
    return first, common.sum(axis=2, dtype=np.int32) != sizes[first]


def _check_order_axioms(names, leq):
    n = len(names)
    if not leq.diagonal().all():
        raise NotALattice("join", ("not", "reflexive"))
    anti = leq & leq.T & ~np.eye(n, dtype=bool)
    if anti.any():
        a, b = np.argwhere(anti)[0]
        raise CycleDetected(f"antisymmetry fails at ({names[a]}, {names[b]})")
    if ((leq @ leq) & ~leq).any():
        raise NotALattice("join", ("not", "transitive"))


def _least_name_index(names, indices):
    return min(indices, key=lambda i: names[i])


def lattice_from_covers(names, cover_pairs, max_size=DEFAULT_MAX_SIZE):
    """Build a BoundedLattice from a Hasse diagram.

    The order is the reflexive-transitive closure of ``cover_pairs``; meet and
    join tables are computed by exhaustive bound search and verified unique.
    """
    names = [str(nm) for nm in names]
    n = len(names)
    if len(set(names)) != n:
        raise NotALattice("join", ("duplicate", "names"))
    if n > max_size:
        raise TooLarge(f"{n} elements exceeds cap {max_size}")
    index = {nm: i for i, nm in enumerate(names)}
    below = np.zeros((n, n), dtype=bool)
    for a, b in cover_pairs:
        a, b = str(a), str(b)
        if a not in index or b not in index:
            raise NotALattice("join", ("unknown", a if a not in index else b))
        below[index[a], index[b]] = True
    # the strict closure by Boolean squaring: each round doubles the path
    # length covered, and a cycle puts an element strictly below itself
    while (closed := below | (below @ below)).sum() != below.sum():
        below = closed
    if below.diagonal().any():
        raise CycleDetected("cover relation contains a cycle")
    leq = below | np.eye(n, dtype=bool)
    return BoundedLattice.from_leq(names, leq, max_size=max_size)


# -- covers, atoms, chains ---------------------------------------------


def covers(L):
    """The cover relation as a frozenset of ordered name pairs (a, b), a <. b."""
    return frozenset(
        (L.names[a], L.names[b]) for a, b in np.argwhere(L.cover_matrix)
    )


def atoms(L):
    """Elements covering the bottom."""
    return frozenset(L.names[i] for i in np.where(L.cover_matrix[L.bottom])[0])


def maximal_chains(L):
    """All maximal chains, bottom to top, in lexicographic name order."""
    succ = [sorted(np.where(L.cover_matrix[u])[0], key=lambda v: L.names[v])
            for u in range(L.n)]
    out = []
    _walk_maximal_chains(L, succ, [L.bottom], out)
    out.sort()
    return out


def _walk_maximal_chains(L, succ, chain, out):
    """Append to out, as name tuples in DFS order, every maximal chain that
    extends chain upward along the covers ``succ``.  Module level, because a
    nested function that calls itself is a reference cycle: it would keep
    ``out`` alive until the garbage collector's next full pass."""
    u = chain[-1]
    if u == L.top:
        out.append(tuple(L.names[v] for v in chain))
        return
    for v in succ[u]:
        _walk_maximal_chains(L, succ, chain + [v], out)


def height(L):
    """One less than the maximum cardinality of a chain."""
    ext = L.linear_extension()
    h = {}
    for u in ext:
        below = [h[v] for v in np.where(L.cover_matrix[:, u])[0]]
        h[u] = 1 + max(below) if below else 0
    return h[L.top]


@dataclass(frozen=True)
class IntervalView:
    """The closed interval [x, y] of a parent lattice, as a lattice itself."""

    parent: BoundedLattice
    x: str
    y: str
    lattice: BoundedLattice = field(compare=False)
    members: tuple = ()


def interval(L, x, y):
    """The induced lattice on { z : x <= z <= y }."""
    xi, yi = L.index(x), L.index(y)
    if not L.leq[xi, yi]:
        raise NotComparable(f"{x} is not below {y}")
    members = tuple(int(m) for m in np.where(L.leq[xi] & L.leq[:, yi])[0])
    sub = L.leq[np.ix_(members, members)]
    names = [L.names[m] for m in members]
    return IntervalView(L, x, y, BoundedLattice.from_leq(names, sub), members)


# -- structural predicates ---------------------------------------------


@dataclass(frozen=True)
class LatticePredicates:
    """The structural flags of a lattice, one field per law.

    The field order is the order in which ``omlkit check`` reports the laws,
    each under its field name without the ``is_``/``has_`` prefix.
    ``witnesses`` maps the name of each false field to its least witness
    tuple of element names.
    """

    is_modular: bool
    is_semimodular: bool
    is_dual_semimodular: bool
    has_covering: bool
    is_atomic: bool
    is_atomistic: bool
    is_weakly_atomic: bool
    is_strongly_atomic: bool
    is_distributive: bool
    is_complemented: bool
    is_relatively_complemented: bool
    witnesses: dict = field(default_factory=dict, compare=False)


def _least(L, rank, viol, *axes):
    """(key, names) of the least name tuple among the true entries of
    ``viol``, whose axis k holds the elements ``axes[k]``: one argmin over
    the key rank[x]·n^(k-1) + ... + rank[z], which orders tuples as their
    names do.  The key array is int64, the size of ``viol``."""
    key = np.zeros((), dtype=np.int64)
    for k, ids in enumerate(axes):
        key = key * L.n + rank[ids].reshape((-1,) + (1,) * (len(axes) - k - 1))
    at = np.unravel_index(np.where(viol, key, np.iinfo(np.int64).max).argmin(),
                          viol.shape)
    return int(key[at]), tuple(L.names[ids[i]] for ids, i in zip(axes, at))


def _law(L, rank, viol, *axes):
    """(ok, least witness) of a law whose failing tuples over ``axes`` are
    the true entries of ``viol``."""
    if not viol.any():
        return True, None
    return False, _least(L, rank, viol, *axes)[1]


def _blocked_law(L, rank, axes, k, violations):
    """(ok, least witness) of a law over the tuples of ``axes``, with axis k
    cut into blocks: ``violations(B)`` gives the failing tuples for the
    elements B of that axis, as a bool array over the axes."""
    per_x = rank.itemsize * math.prod(map(len, axes[:k] + axes[k + 1:]))
    found = []
    for part in _blocks(len(axes[k]), per_x):
        B = axes[k][part]
        viol = violations(B)
        if viol.any():
            found.append(_least(L, rank, viol, *axes[:k], B, *axes[k + 1:]))
    return (True, None) if not found else (False, min(found)[1])


def predicates(L):
    """Compute all structural flags by direct quantifier elimination.

    Every false flag comes with the lexicographically least witness tuple in
    ``witnesses``.
    """
    n = L.n
    meet, join, leq, cov = L.meet, L.join, L.leq, L.cover_matrix
    ids = np.arange(n)
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=L.names.__getitem__)] = ids
    atom_idx = np.flatnonzero(cov[L.bottom])
    strict = leq & ~np.eye(n, dtype=bool)
    atoms_below = leq[atom_idx].sum(axis=0)
    # a cover v of x with v <= y, per (x, y)
    cover_of_x_below = cov @ leq

    def modular(X):
        lhs = join[X[:, None, None], meet]            # x v (y ^ z)
        rhs = meet[join[X][:, :, None], ids]          # (x v y) ^ z
        return (lhs != rhs) & leq[X][:, None, :]      # where x <= z

    def semimodular(below, op1, op2):
        # a ^ b <. a (per b), and not b <. a v b; the dual swaps ^ and v
        # and reverses the covers
        return lambda A: below[op1[A], A[:, None]] & ~below[ids, op2[A]]

    def covering(A):
        j = join[A]                                   # a v x per atom a, x
        return (j != ids) & ~cov[ids, j]              # x < a v x, not covered

    def distributive(X):
        mx = meet[X]                                  # x ^ y per y
        return (meet[X[:, None, None], join]          # x ^ (y v z)
                != join[mx[:, :, None], mx[:, None, :]])  # (x^y) v (x^z)

    def relatively_complemented(A):
        # per (x, a, y) with x <= a <= y: no b has a ^ b = x and a v b = y
        realizable = np.zeros((len(A), n, n), dtype=bool)
        realizable[np.arange(len(A))[:, None], meet[A], join[A]] = True
        need = leq[:, A].T[:, :, None] & leq[A][:, None, :]
        return (need & ~realizable).transpose(1, 0, 2)

    laws = {
        "is_modular": _blocked_law(L, rank, (ids, ids, ids), 0, modular),
        "is_semimodular": _blocked_law(L, rank, (ids, ids), 0,
                                       semimodular(cov, meet, join)),
        "is_dual_semimodular": _blocked_law(L, rank, (ids, ids), 0,
                                            semimodular(cov.T, join, meet)),
        "has_covering": _blocked_law(L, rank, (atom_idx, ids), 0, covering),
        # every nonzero element has an atom beneath it
        "is_atomic": _law(L, rank, (ids != L.bottom) & (atoms_below == 0),
                          ids),
        # x equals the join j of the atoms beneath it.  j <= x and the same
        # atoms lie beneath j, so x fails iff some y < x has as many atoms
        # beneath it as x has (y < x makes its atoms a subset of x's)
        "is_atomistic": _law(
            L, rank,
            (strict & (atoms_below[:, None] == atoms_below)).any(axis=0), ids),
        # every nontrivial interval [x, y] contains a cover
        "is_weakly_atomic": _law(L, rank, strict & ~(leq @ cover_of_x_below),
                                 ids, ids),
        # every nontrivial interval [x, y] has an atom, a cover of x below y
        "is_strongly_atomic": _law(L, rank, strict & ~cover_of_x_below,
                                   ids, ids),
        "is_distributive": _blocked_law(L, rank, (ids, ids, ids), 0,
                                        distributive),
        "is_complemented": _law(
            L, rank, ~((meet == L.bottom) & (join == L.top)).any(axis=1), ids),
        "is_relatively_complemented": _blocked_law(
            L, rank, (ids, ids, ids), 1, relatively_complemented),
    }
    witnesses = {name: w for name, (ok, w) in laws.items() if not ok}
    return LatticePredicates(**{name: name not in witnesses for name in laws},
                             witnesses=witnesses)


# -- compact elements ---------------------------------------------------


def join_of(L, indices):
    """Fold the binary join over a collection of element indices."""
    acc = L.bottom
    for i in indices:
        acc = L.join_idx(acc, i)
    return acc


def compactness_witness(L, c, S):
    """A minimum-cardinality subset S' of S with c <= join(S').

    ``L`` may be any object exposing the lattice protocol (BoundedLattice or
    KalmbachOML).  Ties are broken lexicographically on sorted name tuples.
    """
    c_idx = L.index(c) if isinstance(c, str) else c
    s_idx = sorted((L.index(s) if isinstance(s, str) else s for s in S),
                   key=lambda i: L.names[i])
    if not L.leq_idx(c_idx, join_of(L, s_idx)):
        raise NotBelowJoin(f"{L.names[c_idx]} is not below the join of S")
    for k in range(len(s_idx) + 1):
        for combo in itertools.combinations(s_idx, k):
            if L.leq_idx(c_idx, join_of(L, combo)):
                return frozenset(L.names[i] for i in combo)
    raise AssertionError("unreachable: S itself is a witness")


# -- isomorphism -----------------------------------------------------------


def _relation_graph(L, perp):
    """Digraph on element indices with relation-set edge labels.

    Edge (i, j) has ``rel``, the set of the relations "leq" and "perp" that
    hold from i to j.
    """
    import networkx as nx

    rel = {(int(i), int(j)): {"leq"} for i, j in np.argwhere(L.leq)}
    if perp is not None:
        for i in range(L.n):
            rel.setdefault((i, int(perp[i])), set()).add("perp")
    G = nx.DiGraph()
    G.add_nodes_from(range(L.n))
    G.add_edges_from((i, j, {"rel": frozenset(r)}) for (i, j), r in rel.items())
    return G


def find_isomorphism(L1, L2, perp1=None, perp2=None):
    """An order isomorphism L1 -> L2 as a name dict, or None.

    When both perp maps (index arrays) are given, the isomorphism must also
    carry one orthocomplementation to the other.  networkx is imported
    here, on first use: no other code needs it.
    """
    import networkx as nx

    gm = nx.isomorphism.DiGraphMatcher(
        _relation_graph(L1, perp1), _relation_graph(L2, perp2),
        edge_match=nx.isomorphism.categorical_edge_match("rel", None),
    )
    if not gm.is_isomorphic():
        return None
    return {L1.names[i]: L2.names[gm.mapping[i]] for i in range(L1.n)}
