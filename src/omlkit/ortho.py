"""Ortholattices and orthomodular lattices over finite BoundedLattices."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from .errors import (
    NonTotalPerp,
    NotCentral,
    NotComparable,
    NotComplement,
    NotInvolutive,
    NotOML,
    NotOrderInverting,
)
from .lattice import BoundedLattice, interval


class OrthoLattice:
    """A BoundedLattice with a validated orthocomplementation.

    Immutable; construct through :func:`ortholattice`.
    """

    __slots__ = ("lattice", "perp", "_om_cache")

    def __init__(self, lattice, perp):
        self.lattice = lattice
        self.perp = perp
        perp.setflags(write=False)
        self._om_cache = None

    # convenience passthroughs
    @property
    def n(self):
        return self.lattice.n

    @property
    def names(self):
        return self.lattice.names

    def index(self, name):
        return self.lattice.index(name)

    def leq_idx(self, i, j):
        return self.lattice.leq_idx(i, j)

    def join_idx(self, i, j):
        return self.lattice.join_idx(i, j)

    def meet_idx(self, i, j):
        return self.lattice.meet_idx(i, j)

    @property
    def bottom(self):
        return self.lattice.bottom

    @property
    def top(self):
        return self.lattice.top

    def perp_name(self, name):
        return self.names[self.perp[self.index(name)]]

    def perp_map(self):
        return {nm: self.names[self.perp[i]] for i, nm in enumerate(self.names)}

    def __repr__(self):
        return f"OrthoLattice({self.n} elements)"


def ortholattice(L, perp_map):
    """Validate an orthocomplementation map and package it with the lattice.

    ``perp_map`` maps element names to element names and must be total.
    """
    n = L.n
    missing = [nm for nm in L.names if nm not in perp_map]
    if missing:
        raise NonTotalPerp(f"perp missing for {min(missing)}")
    perp = np.array([L.index(perp_map[nm]) for nm in L.names], dtype=np.int32)

    inv_bad = np.where(perp[perp] != np.arange(n))[0]
    if len(inv_bad):
        x = min(inv_bad, key=lambda i: L.names[i])
        raise NotInvolutive(L.names[x])
    # order-inverting: x <= y implies perp(y) <= perp(x)
    bad = L.leq & ~L.leq[perp][:, perp].T
    if bad.any():
        x, y = min(((L.names[a], L.names[b]) for a, b in np.argwhere(bad)))
        raise NotOrderInverting(x, y)
    comp_bad = np.where(
        (L.meet[np.arange(n), perp] != L.bottom)
        | (L.join[np.arange(n), perp] != L.top)
    )[0]
    if len(comp_bad):
        x = min(comp_bad, key=lambda i: L.names[i])
        raise NotComplement(L.names[x])
    return OrthoLattice(L, perp)


# -- orthomodularity ----------------------------------------------------


def is_orthomodular(OL):
    """Check x <= y implies x v (perp(x) ^ y) = y over all comparable pairs.

    Returns (verdict, least witness pair or None).
    """
    L, perp = OL.lattice, OL.perp
    n = L.n
    idx = np.arange(n)
    # rebuilt[x, y] = x v (x' ^ y)
    rebuilt = L.join[idx[:, None], L.meet[perp][:, :]]
    viol = L.leq & (rebuilt != idx[None, :])
    if viol.any():
        witness = min((L.names[a], L.names[b]) for a, b in np.argwhere(viol))
        OL._om_cache = False
        return False, witness
    OL._om_cache = True
    return True, None


def _om_status(OL):
    if OL._om_cache is None:
        is_orthomodular(OL)
    return OL._om_cache


# -- commutation ---------------------------------------------------------


def commutator(OL, x, y):
    """gamma(x,y) = (xvy) ^ (xvy') ^ (x'vy) ^ (x'vy')."""
    L, perp = OL.lattice, OL.perp
    xi, yi = L.index(x), L.index(y)
    pxi, pyi = int(perp[xi]), int(perp[yi])
    g = L.meet[
        L.meet[L.join[xi, yi], L.join[xi, pyi]],
        L.meet[L.join[pxi, yi], L.join[pxi, pyi]],
    ]
    return L.names[int(g)]


def commutes(OL, x, y):
    """True iff gamma(x, y) = 0.  Only meaningful in an OML; advisory otherwise."""
    if not _om_status(OL):
        warnings.warn(
            "commutes() on a non-orthomodular ortholattice is advisory only",
            stacklevel=2,
        )
    return commutator(OL, x, y) == OL.names[OL.bottom]


def commutation_matrix(OL):
    """Boolean matrix: gamma(x, y) == bottom, for all index pairs."""
    L, perp = OL.lattice, OL.perp
    A = L.join
    B = L.join[:, perp]
    C = L.join[perp, :]
    D = L.join[perp][:, perp]
    gamma = L.meet[L.meet[A, B], L.meet[C, D]]
    return gamma == L.bottom


# -- blocks and center ----------------------------------------------------


@dataclass(frozen=True)
class Block:
    """A maximal Boolean subalgebra, given by its element names."""

    elements: frozenset
    verified_boolean: bool = field(default=True, compare=False)


def _verify_boolean_subalgebra(OL, members):
    """Members must form a Boolean subalgebra with bounds; hard error if not."""
    L, perp = OL.lattice, OL.perp
    mem = np.array(sorted(members), dtype=np.int64)
    mset = set(int(i) for i in mem)
    if OL.bottom not in mset or OL.top not in mset:
        raise AssertionError("block candidate misses a bound")
    if not all(int(perp[i]) in mset for i in mem):
        raise AssertionError("block candidate not closed under perp")
    mm = L.meet[np.ix_(mem, mem)]
    jj = L.join[np.ix_(mem, mem)]
    if not (np.isin(mm, mem).all() and np.isin(jj, mem).all()):
        raise AssertionError("block candidate not closed under meet/join")
    # distributivity on all triples of members
    remap = np.full(L.n, -1, dtype=np.int64)
    remap[mem] = np.arange(len(mem))
    m_loc = remap[mm]
    j_loc = remap[jj]
    lhs = m_loc[np.arange(len(mem))[:, None, None], j_loc[None, :, :]]
    rhs = j_loc[
        m_loc[:, :, None],
        m_loc[:, None, :],
    ]
    if not (lhs == rhs).all():
        raise AssertionError("block candidate is not distributive")


def blocks(OL):
    """All blocks, via maximal cliques of the commutation graph.

    Each clique is verified to be a Boolean subalgebra containing the bounds;
    a verification failure is a hard internal error since it would falsify
    orthomodularity.
    """
    if not _om_status(OL):
        raise NotOML("blocks are only computed for orthomodular lattices")
    comm = commutation_matrix(OL)
    g = nx.Graph()
    g.add_nodes_from(range(OL.n))
    xs, ys = np.where(np.triu(comm, k=1))
    g.add_edges_from(zip(xs.tolist(), ys.tolist()))
    out = []
    for clique in nx.find_cliques(g):
        _verify_boolean_subalgebra(OL, clique)
        out.append(Block(frozenset(OL.names[i] for i in clique)))
    out.sort(key=lambda b: tuple(sorted(b.elements)))
    return out


def center(OL):
    """Elements that commute with every element."""
    comm = commutation_matrix(OL)
    return frozenset(OL.names[i] for i in np.where(comm.all(axis=1))[0])


def is_directly_irreducible(OL):
    return center(OL) == {OL.names[OL.bottom], OL.names[OL.top]}


def decompose(OL, c):
    """Split at a central element: the interval OMLs [0,c] and [0,c'].

    Verifies that x -> (x ^ c, x ^ c') is a bijection preserving meet, join
    and perp onto the product of the two factors.
    """
    ci = OL.index(c)
    if c not in center(OL):
        raise NotCentral(c)
    L, perp = OL.lattice, OL.perp
    pci = int(perp[ci])
    f1 = interval_oml(OL, OL.names[OL.bottom], c)
    f2 = interval_oml(OL, OL.names[OL.bottom], OL.names[pci])
    # verify the canonical map against the explicit product
    prod = product([f1, f2])
    mapping = {}
    for i, nm in enumerate(OL.names):
        a = OL.names[L.meet[i, ci]]
        b = OL.names[L.meet[i, pci]]
        mapping[nm] = _pair_name(a, b)
    if len(set(mapping.values())) != OL.n or OL.n != prod.n:
        raise AssertionError("central decomposition is not bijective")
    for x in OL.names:
        for y in OL.names:
            xi, yi = OL.index(x), OL.index(y)
            lhs = mapping[OL.names[L.meet[xi, yi]]]
            rhs = prod.names[prod.meet_idx(prod.index(mapping[x]), prod.index(mapping[y]))]
            if lhs != rhs:
                raise AssertionError("central decomposition does not preserve meet")
        if mapping[OL.names[perp[OL.index(x)]]] != prod.names[prod.perp[prod.index(mapping[x])]]:
            raise AssertionError("central decomposition does not preserve perp")
    return f1, f2


# -- constructions --------------------------------------------------------


def _pair_name(*parts):
    return "|".join(parts)


def product(OLs):
    """Componentwise product of ortholattices."""
    OLs = list(OLs)
    if not OLs:
        raise ValueError("product of zero factors")
    import itertools

    tuples = list(itertools.product(*[range(o.n) for o in OLs]))
    names = [_pair_name(*(o.names[t[k]] for k, o in enumerate(OLs))) for t in tuples]
    n = len(tuples)
    leq = np.ones((n, n), dtype=bool)
    for k, o in enumerate(OLs):
        comp_k = np.array([t[k] for t in tuples])
        leq &= o.lattice.leq[np.ix_(comp_k, comp_k)]
    L = BoundedLattice.from_leq(names, leq)
    perp_map = {}
    for t, nm in zip(tuples, names):
        perp_map[nm] = _pair_name(
            *(o.names[o.perp[t[k]]] for k, o in enumerate(OLs))
        )
    return ortholattice(L, perp_map)


def horizontal_sum(OMLs):
    """Glue OMLs along their bounds; interiors stay disjoint.

    Interior elements are renamed with summand-index prefixes.  The result is
    verified orthomodular.
    """
    OMLs = list(OMLs)
    if not OMLs:
        raise ValueError("horizontal sum needs at least one summand")
    for o in OMLs:
        ok, wit = is_orthomodular(o)
        if not ok:
            raise NotOML(f"summand fails orthomodularity at {wit}")
    if len(OMLs) == 1:
        return OMLs[0]
    names = ["0", "1"]
    origin = [None, None]
    for s, o in enumerate(OMLs):
        for i in range(o.n):
            if i in (o.bottom, o.top):
                continue
            names.append(f"s{s}:{o.names[i]}")
            origin.append((s, i))
    n = len(names)
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, 1] = True
    for a in range(2, n):
        sa, ia = origin[a]
        for b in range(2, n):
            sb, ib = origin[b]
            if sa == sb and OMLs[sa].lattice.leq[ia, ib]:
                leq[a, b] = True
    L = BoundedLattice.from_leq(names, leq)
    perp_map = {"0": "1", "1": "0"}
    for a in range(2, n):
        s, i = origin[a]
        o = OMLs[s]
        p = int(o.perp[i])
        perp_map[names[a]] = (
            "0" if p == o.bottom else "1" if p == o.top else f"s{s}:{o.names[p]}"
        )
    result = ortholattice(L, perp_map)
    ok, wit = is_orthomodular(result)
    if not ok:
        raise NotOML(f"horizontal sum fails orthomodularity at {wit}")
    return result


def interval_oml(OL, x, y):
    """The interval [x, y] as an OML with z# = x v (z' ^ y).

    Also verifies the canonical isomorphism with [0, y ^ x'].
    """
    L, perp = OL.lattice, OL.perp
    if not _om_status(OL):
        raise NotOML("interval orthocomplementation requires an OML")
    xi, yi = L.index(x), L.index(y)
    if not L.leq[xi, yi]:
        raise NotComparable(f"{x} is not below {y}")
    view = interval(OL.lattice, x, y)
    perp_map = {}
    for m in view.members:
        sharp = L.join[xi, L.meet[int(perp[m]), yi]]
        perp_map[L.names[m]] = L.names[int(sharp)]
    result = ortholattice(view.lattice, perp_map)
    ok, wit = is_orthomodular(result)
    if not ok:
        raise NotOML(f"interval [{x},{y}] fails orthomodularity at {wit}")

    # canonical isomorphism z -> z ^ x' onto [0, y ^ x']
    lo = OL.names[OL.bottom]
    hi = L.names[L.meet[yi, int(perp[xi])]]
    other = interval(OL.lattice, lo, hi)
    fwd = {L.names[m]: L.names[L.meet[m, int(perp[xi])]] for m in view.members}
    if set(fwd.values()) != set(other.lattice.names):
        raise AssertionError("interval isomorphism is not bijective")
    for a in view.members:
        for b in view.members:
            if bool(L.leq[a, b]) != bool(
                L.leq[L.meet[a, int(perp[xi])], L.meet[b, int(perp[xi])]]
            ):
                raise AssertionError("interval isomorphism is not order-preserving")
    return result


# -- covering properties ---------------------------------------------------


def _interval_height(L, xi, yi):
    members = np.where(L.leq[xi] & L.leq[:, yi])[0]
    if len(members) <= 2:
        return len(members) - 1
    order = sorted(members, key=lambda m: int(L.leq[:, m].sum()))
    h = {}
    for m in order:
        below = [h[u] for u in order if u != m and L.leq[u, m]]
        h[m] = 1 + max(below) if below else 0
    return h[order[-1]]


def has_n_covering(OL, n):
    """True iff for every atom a and element x, [x, x v a] has height <= n.

    On failure returns the least violating (atom, x) pair.
    """
    L = OL.lattice
    atom_idx = sorted(np.where(L.cover_matrix[L.bottom])[0], key=lambda i: L.names[i])
    worst = None
    for a in atom_idx:
        for x in sorted(range(L.n), key=lambda i: L.names[i]):
            j = L.join[a, x]
            if j == x or L.cover_matrix[x, j]:
                continue
            if _interval_height(L, x, int(j)) > n:
                cand = (L.names[a], L.names[x])
                if worst is None or cand < worst:
                    worst = cand
    return worst is None, worst
