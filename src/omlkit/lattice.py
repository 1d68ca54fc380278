"""Finite bounded lattices: construction, order queries, covers, chains, predicates.

Elements are identified by opaque string names; all internal computation is
index-based over a fixed linear extension, with numpy tables for the order
relation and the meet/join operations.
"""

from __future__ import annotations

import itertools
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
        up_ext = leq[:, ext]            # up-sets with columns in extension order
        down_ext = leq.T[:, rext]       # down-sets, reversed extension order

        join = np.empty((n, n), dtype=np.int32)
        meet = np.empty((n, n), dtype=np.int32)
        for x in range(n):
            ub = up_ext[x] & up_ext     # (n, n) upper bounds of (x, y)
            j = ext[ub.argmax(axis=1)]
            # least upper bound exists iff every upper bound is above it
            bad = (ub & ~up_ext[j]).any(axis=1)
            if bad.any():
                y = _least_name_index(names, np.where(bad)[0])
                raise NotALattice("join", (names[x], names[y]))
            join[x] = j
            lb = down_ext[x] & down_ext
            m = rext[lb.argmax(axis=1)]
            bad = (lb & ~down_ext[m]).any(axis=1)
            if bad.any():
                y = _least_name_index(names, np.where(bad)[0])
                raise NotALattice("meet", (names[x], names[y]))
            meet[x] = m

        strict = leq & ~np.eye(n, dtype=bool)
        cover_matrix = strict & ~(strict.astype(np.uint8) @ strict.astype(np.uint8)).astype(bool)
        return cls(names, leq, meet, join, bottom, top, ext, cover_matrix)


def _check_order_axioms(names, leq):
    n = len(names)
    if not leq.diagonal().all():
        raise NotALattice("join", ("not", "reflexive"))
    anti = leq & leq.T & ~np.eye(n, dtype=bool)
    if anti.any():
        a, b = np.argwhere(anti)[0]
        raise CycleDetected(f"antisymmetry fails at ({names[a]}, {names[b]})")
    closure = (leq.astype(np.uint8) @ leq.astype(np.uint8)).astype(bool)
    if (closure & ~leq).any():
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
    adj = np.zeros((n, n), dtype=bool)
    for a, b in cover_pairs:
        a, b = str(a), str(b)
        if a not in index or b not in index:
            raise NotALattice("join", ("unknown", a if a not in index else b))
        adj[index[a], index[b]] = True
    # cycle check by Kahn's algorithm
    indeg = adj.sum(axis=0)
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    indeg = indeg.copy()
    while queue:
        u = queue.pop()
        seen += 1
        for v in np.where(adj[u])[0]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(int(v))
    if seen != n:
        raise CycleDetected("cover relation contains a cycle")
    leq = np.eye(n, dtype=bool) | adj
    for k in range(n):
        leq |= leq[:, k : k + 1] & leq[k : k + 1, :]
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


def coatoms(L):
    return frozenset(L.names[i] for i in np.where(L.cover_matrix[:, L.top])[0])


def maximal_chains(L):
    """All maximal chains, bottom to top, in lexicographic name order."""
    succ = [sorted(np.where(L.cover_matrix[u])[0], key=lambda v: L.names[v])
            for u in range(L.n)]
    out = []

    def walk(u, chain):
        if u == L.top:
            out.append(tuple(L.names[v] for v in chain))
            return
        for v in succ[u]:
            walk(v, chain + [v])

    walk(L.bottom, [L.bottom])
    out.sort()
    return out


def is_chain_maximal(L, chain_names):
    """True iff no element of L can be inserted into the chain."""
    idx = [L.index(nm) for nm in chain_names]
    for z in range(L.n):
        if z in idx:
            continue
        if all(L.leq[z, u] or L.leq[u, z] for u in idx):
            return False
    return True


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


def _triple_law_holds(L, lhs, rhs, guard=None):
    """Check a table identity over all triples; return (ok, least witness)."""
    n = L.n
    arange = np.arange(n)
    worst = None
    for x in range(n):
        left = lhs(x, arange)
        right = rhs(x, arange)
        viol = left != right
        if guard is not None:
            viol &= guard(x, arange)
        if viol.any():
            ys, zs = np.where(viol)
            cand = min(
                ((L.names[x], L.names[y], L.names[z]) for y, z in zip(ys, zs))
            )
            if worst is None or cand < worst:
                worst = cand
    return worst is None, worst


def _modular(L):
    meet, join, leq = L.meet, L.join, L.leq
    n = L.n

    def lhs(x, _):
        return join[x][meet]                      # x v (y ^ z)

    def rhs(x, _):
        return meet[join[x]][:, np.arange(n)]     # (x v y) ^ z

    def guard(x, _):
        return np.broadcast_to(leq[x], (n, n))    # x <= z, z varies on axis 1

    return _triple_law_holds(L, lhs, rhs, guard)


def _distributive(L):
    meet, join = L.meet, L.join
    n = L.n

    def lhs(x, _):
        return meet[x][join]                      # x ^ (y v z)

    def rhs(x, _):
        mx = meet[x]                              # x ^ y per y
        return join[mx[:, None], mx[None, :]]     # (x^y) v (x^z)

    return _triple_law_holds(L, lhs, rhs)


def _semimodular(L, dual=False):
    cov = L.cover_matrix.T if dual else L.cover_matrix
    op1 = L.join if dual else L.meet
    op2 = L.meet if dual else L.join
    n = L.n
    worst = None
    for a in range(n):
        hyp = cov[op1[a], a]                      # a^b <. a   (per b)
        concl = cov[np.arange(n), op2[a]]         # b <. a v b
        viol = hyp & ~concl
        if viol.any():
            cand = min((L.names[a], L.names[b]) for b in np.where(viol)[0])
            if worst is None or cand < worst:
                worst = cand
    return worst is None, worst


def _has_covering(L):
    atom_idx = np.where(L.cover_matrix[L.bottom])[0]
    worst = None
    for a in atom_idx:
        j = L.join[a]
        ok = (j == np.arange(L.n)) | L.cover_matrix[np.arange(L.n), j]
        if not ok.all():
            cand = min((L.names[a], L.names[x]) for x in np.where(~ok)[0])
            if worst is None or cand < worst:
                worst = cand
    return worst is None, worst


def predicates(L):
    """Compute all structural flags by direct quantifier elimination.

    Every false flag comes with the lexicographically least witness tuple in
    ``witnesses``.
    """
    n = L.n
    w = {}
    atom_mask = L.cover_matrix[L.bottom]
    nonzero = np.ones(n, dtype=bool)
    nonzero[L.bottom] = False

    mod_ok, mod_w = _modular(L)
    dist_ok, dist_w = _distributive(L)
    semi_ok, semi_w = _semimodular(L)
    dsemi_ok, dsemi_w = _semimodular(L, dual=True)
    covp_ok, covp_w = _has_covering(L)

    # atomic: every nonzero element has an atom beneath it
    has_atom_below = L.leq[atom_mask].any(axis=0)
    atomic_viol = nonzero & ~has_atom_below
    atomic_ok = not atomic_viol.any()
    if not atomic_ok:
        w["is_atomic"] = (min(L.names[i] for i in np.where(atomic_viol)[0]),)

    # atomistic: x equals the join of the atoms beneath it
    atomistic_ok = True
    for x in sorted(range(n), key=lambda i: L.names[i]):
        acc = L.bottom
        for a in np.where(atom_mask & L.leq[:, x])[0]:
            acc = L.join[acc, a]
        if acc != x:
            atomistic_ok = False
            w["is_atomistic"] = (L.names[x],)
            break

    # weakly atomic: every nontrivial interval contains a cover
    cover_in = np.zeros((n, n), dtype=bool)
    for u, v in np.argwhere(L.cover_matrix):
        cover_in |= L.leq[:, u : u + 1] & L.leq[v : v + 1, :]
    strict = L.leq & ~np.eye(n, dtype=bool)
    wa_viol = strict & ~cover_in
    wa_ok = not wa_viol.any()
    if not wa_ok:
        w["is_weakly_atomic"] = min(
            (L.names[a], L.names[b]) for a, b in np.argwhere(wa_viol)
        )

    # strongly atomic: every interval [x,y] has an atom, i.e. a cover of x below y
    cover_of_x_below = np.zeros((n, n), dtype=bool)
    for u, v in np.argwhere(L.cover_matrix):
        cover_of_x_below[u] |= L.leq[v]
    sa_viol = strict & ~cover_of_x_below
    sa_ok = not sa_viol.any()
    if not sa_ok:
        w["is_strongly_atomic"] = min(
            (L.names[a], L.names[b]) for a, b in np.argwhere(sa_viol)
        )

    # complemented
    compl_ok = True
    has_compl = ((L.meet == L.bottom) & (L.join == L.top)).any(axis=1)
    if not has_compl.all():
        compl_ok = False
        w["is_complemented"] = (min(L.names[i] for i in np.where(~has_compl)[0]),)

    # relatively complemented
    relcompl_ok, relcompl_w = _relatively_complemented(L)

    if not mod_ok:
        w["is_modular"] = mod_w
    if not dist_ok:
        w["is_distributive"] = dist_w
    if not semi_ok:
        w["is_semimodular"] = semi_w
    if not dsemi_ok:
        w["is_dual_semimodular"] = dsemi_w
    if not covp_ok:
        w["has_covering"] = covp_w
    if not relcompl_ok:
        w["is_relatively_complemented"] = relcompl_w

    return LatticePredicates(
        is_modular=mod_ok,
        is_semimodular=semi_ok,
        is_dual_semimodular=dsemi_ok,
        has_covering=covp_ok,
        is_atomic=atomic_ok,
        is_atomistic=atomistic_ok,
        is_weakly_atomic=wa_ok,
        is_strongly_atomic=sa_ok,
        is_distributive=dist_ok,
        is_complemented=compl_ok,
        is_relatively_complemented=relcompl_ok,
        witnesses=w,
    )


def _relatively_complemented(L):
    n = L.n
    worst = None
    for a in range(n):
        # pairs (meet(a,b), join(a,b)) realizable over all b
        realizable = np.zeros((n, n), dtype=bool)
        realizable[L.meet[a], L.join[a]] = True
        need = L.leq[:, a : a + 1] & L.leq[a : a + 1, :]   # x <= a <= y
        viol = need & ~realizable
        if viol.any():
            cand = min(
                (L.names[x], L.names[a], L.names[y]) for x, y in np.argwhere(viol)
            )
            if worst is None or cand < worst:
                worst = cand
    return worst is None, worst


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
    s_idx = sorted((L.index(s) if isinstance(s, str) else s) for s in S)
    s_idx.sort(key=lambda i: L.names[i])
    if not L.leq_idx(c_idx, join_of(L, s_idx)):
        raise NotBelowJoin(f"{L.names[c_idx]} is not below the join of S")
    for k in range(len(s_idx) + 1):
        for combo in itertools.combinations(s_idx, k):
            if L.leq_idx(c_idx, join_of(L, combo)):
                return frozenset(L.names[i] for i in combo)
    raise AssertionError("unreachable: S itself is a witness")


# -- isomorphism (explicit, brute force with invariant pruning) ---------


def find_isomorphism(L1, L2, perp1=None, perp2=None):
    """An order isomorphism L1 -> L2 as a name dict, or None.

    When both perp maps (index arrays) are given, the isomorphism must also
    carry one orthocomplementation to the other.
    """
    if L1.n != L2.n:
        return None

    def profile(L):
        return [
            (int(L.leq[:, i].sum()), int(L.leq[i].sum()), int(L.cover_matrix[i].sum()))
            for i in range(L.n)
        ]

    p1, p2 = profile(L1), profile(L2)
    if sorted(p1) != sorted(p2):
        return None
    cand = [[j for j in range(L2.n) if p2[j] == p1[i]] for i in range(L1.n)]
    order = sorted(range(L1.n), key=lambda i: len(cand[i]))
    assign = [-1] * L1.n
    used = [False] * L2.n

    def extend(k):
        if k == L1.n:
            return True
        i = order[k]
        for j in cand[i]:
            if used[j]:
                continue
            ok = True
            for kk in range(k):
                i2 = order[kk]
                if (bool(L1.leq[i, i2]) != bool(L2.leq[j, assign[i2]])
                        or bool(L1.leq[i2, i]) != bool(L2.leq[assign[i2], j])):
                    ok = False
                    break
            if ok and perp1 is not None:
                pi = perp1[i]
                if assign[pi] != -1 and assign[pi] != perp2[j]:
                    ok = False
            if ok:
                assign[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                assign[i] = -1
                used[j] = False
        return False

    if extend(0):
        if perp1 is not None:
            for i in range(L1.n):
                if assign[perp1[i]] != perp2[assign[i]]:
                    return None
        return {L1.names[i]: L2.names[assign[i]] for i in range(L1.n)}
    return None
