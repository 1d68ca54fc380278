"""Ortholattices and orthomodular lattices over finite BoundedLattices."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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

    # the batch queries of KalmbachOML, as table slices
    @property
    def perp_idx(self):
        return self.perp

    def leq_batch(self, xs, ys):
        return self.lattice.leq[xs, ys]

    def meet_batch(self, xs, ys):
        return self.lattice.meet[xs, ys]

    def join_batch(self, xs, ys):
        return self.lattice.join[xs, ys]

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


def _verify_boolean_subalgebra(Q, members):
    """Members must form a Boolean subalgebra with bounds; hard error if not.

    Q answers the batch queries of ``KalmbachOML``: ``bottom``, ``top``, the
    ``perp_idx`` array and ``leq_batch``, ``meet_batch``, ``join_batch`` over
    broadcast id arrays.  An OrthoLattice answers them from its tables.
    Distributivity is tested through phi(x) = {atoms a of M : a <= x}, as a
    bit mask: M is distributive iff |M| = 2^|A|, phi is injective and maps
    joins to unions and meets to intersections.  Then phi is a lattice
    isomorphism onto the power set of the atoms A.  Conversely M, closed
    under the orthocomplement, is complemented, so a distributive M is a
    finite Boolean algebra and phi its standard isomorphism.  The test
    takes O(m^2) queries, three m x m batches.
    """
    mem = np.array(sorted(members), dtype=np.int64)
    mset = set(mem.tolist())
    if Q.bottom not in mset or Q.top not in mset:
        raise AssertionError("block candidate misses a bound")
    if not mset.issuperset(Q.perp_idx[mem].tolist()):
        raise AssertionError("block candidate not closed under perp")
    rows = mem[:, None]
    mm = Q.meet_batch(rows, mem)
    jj = Q.join_batch(rows, mem)
    # positions in mem, clipped, so an id outside mem reads a member
    # that differs from it
    mpos, jpos = (np.minimum(np.searchsorted(mem, t), len(mem) - 1)
                  for t in (mm, jj))
    if not ((mem[mpos] == mm).all() and (mem[jpos] == jj).all()):
        raise AssertionError("block candidate not closed under meet/join")
    le = Q.leq_batch(rows, mem)
    atoms = np.where(le.sum(axis=0) == 2)[0]   # just bottom and x are <= x
    if len(mem) != 1 << len(atoms):
        raise AssertionError("block candidate is not distributive")
    bit = np.left_shift(np.int64(1), np.arange(len(atoms), dtype=np.int64))
    phi = (le[atoms] * bit[:, None]).sum(axis=0)
    if not (
        len(set(phi.tolist())) == len(mem)
        and (phi[jpos] == phi[:, None] | phi[None, :]).all()
        and (phi[mpos] == phi[:, None] & phi[None, :]).all()
    ):
        raise AssertionError("block candidate is not distributive")


def boolean_cliques(Q, comm):
    """The maximal cliques of the commutation matrix ``comm``, each verified
    to be a Boolean subalgebra of Q containing the bounds, as sorted id lists.

    Q answers the queries of ``_verify_boolean_subalgebra``; the diagonal
    of ``comm`` is ignored.  A verification failure is a hard internal error
    since it would falsify orthomodularity.
    """
    rows = np.packbits(comm, axis=1, bitorder="little")
    adj = [int.from_bytes(row.tobytes(), "little") & ~(1 << v)
           for v, row in enumerate(rows)]
    out = []
    for mask in _maximal_cliques(adj):
        clique = _bit_indices(mask)
        _verify_boolean_subalgebra(Q, clique)
        out.append(clique)
    return out


def _maximal_cliques(adj):
    """Maximal cliques of a graph given by int neighbour bitsets.

    ``adj[v]`` has bit u set iff u and v are adjacent (no self-loops).
    Bron-Kerbosch with Tomita pivoting (Bron & Kerbosch, CACM 16, 1973;
    Tomita, Tanaka & Takahashi, TCS 363, 2006), on an explicit stack so a
    large clique cannot exhaust the recursion limit.  Yields each maximal
    clique once, as a bitset.
    """

    def frame(r, p, x):
        # the pivot u in p | x with most neighbours in p; branch on p - N(u)
        u = max(_bit_indices(p | x), key=lambda v: (p & adj[v]).bit_count())
        return [r, p, x, p & ~adj[u]]

    if not adj:
        return
    stack = [frame(0, (1 << len(adj)) - 1, 0)]
    while stack:
        top = stack[-1]
        r, p, x, cand = top
        if not cand:
            stack.pop()
            continue
        low = cand & -cand
        top[1], top[2], top[3] = p ^ low, x | low, cand ^ low
        nbrs = adj[low.bit_length() - 1]
        r2, p2, x2 = r | low, p & nbrs, x & nbrs
        if p2:
            stack.append(frame(r2, p2, x2))
        elif not x2:
            yield r2


def _bit_indices(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def blocks(OL):
    """All blocks, via maximal cliques of the commutation graph.

    Each clique is verified to be a Boolean subalgebra containing the bounds
    by ``boolean_cliques``, from slices of the tables.
    """
    if not _om_status(OL):
        raise NotOML("blocks are only computed for orthomodular lattices")
    out = [Block(frozenset(OL.names[i] for i in clique))
           for clique in boolean_cliques(OL, commutation_matrix(OL))]
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
