import dataclasses
import itertools
import random

import numpy as np
import pytest

from omlkit import lattice as lattice_module
from omlkit.corpus import boolean_cube, chain, diamond, pentagon
from omlkit.errors import (
    CycleDetected,
    NoBounds,
    NotALattice,
    NotBelowJoin,
    NotComparable,
    TooLarge,
)
from omlkit.lattice import (
    BoundedLattice,
    atoms,
    compactness_witness,
    covers,
    find_isomorphism,
    height,
    interval,
    lattice_from_covers,
    maximal_chains,
    predicates,
)



def test_two_chain_from_covers():
    L = lattice_from_covers(["0", "1"], [("0", "1")])
    assert L.n == 2
    assert L.meet_idx(L.index("0"), L.index("1")) == L.index("0")


def test_diamond_meet_join():
    L = lattice_from_covers(
        ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    )
    assert L.join_idx(L.index("a"), L.index("b")) == L.index("1")
    assert L.meet_idx(L.index("a"), L.index("b")) == L.index("0")


def test_pentagon_accepted_but_not_modular():
    N5 = pentagon()
    p = predicates(N5)
    assert not p.is_modular
    assert p.witnesses["is_modular"]


def test_not_a_lattice_rejected():
    # two incomparable elements with two minimal upper bounds
    with pytest.raises(NotALattice):
        lattice_from_covers(
            ["0", "a", "b", "c", "d", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"),
             ("a", "d"), ("b", "d"), ("c", "1"), ("d", "1")],
        )


def test_cycle_rejected():
    with pytest.raises(CycleDetected):
        lattice_from_covers(["a", "b"], [("a", "b"), ("b", "a")])


def test_empty_rejected():
    with pytest.raises(NoBounds):
        lattice_from_covers([], [])


def test_size_cap():
    names = [str(i) for i in range(10)]
    with pytest.raises(TooLarge):
        lattice_from_covers(names, list(zip(names, names[1:])), max_size=5)


def test_covers_and_atoms_examples():
    M2 = diamond(2)
    assert covers(M2) == {("0", "a1"), ("0", "a2"), ("a1", "1"), ("a2", "1")}
    assert atoms(M2) == {"a1", "a2"}
    C4 = chain(4)
    assert atoms(C4) == {"c1"}
    cube = boolean_cube(3)
    assert len(atoms(cube)) == 3
    assert len(covers(cube)) == 12


def _is_chain_maximal(L, chain_names):
    """True iff no element of L can be inserted into the chain."""
    idx = [L.index(nm) for nm in chain_names]
    for z in range(L.n):
        if z in idx:
            continue
        if all(L.leq[z, u] or L.leq[u, z] for u in idx):
            return False
    return True


def test_maximal_chains_examples():
    M2 = diamond(2)
    assert maximal_chains(M2) == [("0", "a1", "1"), ("0", "a2", "1")]
    N5 = pentagon()
    assert maximal_chains(N5) == [("0", "a", "b", "1"), ("0", "c", "1")]
    cube = boolean_cube(3)
    chains = maximal_chains(cube)
    assert len(chains) == 6
    assert all(len(c) == 4 for c in chains)
    for c in chains:
        assert _is_chain_maximal(cube, c)


def test_height_of_cubes():
    for n in range(1, 6):
        assert height(boolean_cube(n)) == n


def test_interval_examples():
    cube = boolean_cube(3)
    a = sorted(atoms(cube))[0]
    view = interval(cube, a, cube.names[cube.top])
    assert view.lattice.n == 4
    assert find_isomorphism(view.lattice, boolean_cube(2)) is not None
    point = interval(cube, a, a)
    assert point.lattice.n == 1
    assert height(point.lattice) == 0
    with pytest.raises(NotComparable):
        interval(cube, cube.names[cube.top], a)


def test_find_isomorphism_maps_order_and_perp():
    cube = boolean_cube(4)
    full = np.array([cube.index("".join("10"[int(c)] for c in nm))
                     for nm in cube.names])
    iso = find_isomorphism(cube, cube, full, full)
    f = np.array([cube.index(iso[nm]) for nm in cube.names])
    assert (cube.leq[np.ix_(f, f)] == cube.leq).all()
    assert (f[full] == full[f]).all()
    assert find_isomorphism(chain(3), chain(4)) is None
    assert find_isomorphism(pentagon(), diamond(3)) is None
    assert find_isomorphism(cube, cube, full, np.arange(cube.n)) is None


def test_predicates_m2():
    p = predicates(diamond(2))
    assert p.is_modular and p.has_covering and p.is_complemented


def test_pentagon_witness_is_least():
    p = predicates(pentagon())
    x, y, z = p.witnesses["is_modular"]
    L = pentagon()
    xi, yi, zi = L.index(x), L.index(y), L.index(z)
    assert L.leq_idx(xi, zi)
    assert L.join_idx(xi, L.meet_idx(yi, zi)) != L.meet_idx(L.join_idx(xi, yi), zi)


def test_finite_atomicity_collapse(corpus):
    # at finite scale: atomic iff weakly atomic iff strongly atomic
    for nm, L in corpus.items():
        p = predicates(L)
        assert p.is_atomic == p.is_weakly_atomic == p.is_strongly_atomic, nm


def test_lattice_axioms_on_corpus(corpus):
    for nm, L in corpus.items():
        meet, join = L.meet, L.join
        n = L.n
        assert (meet == meet.T).all() and (join == join.T).all(), nm
        idx = np.arange(n)
        # absorption: x ^ (x v y) = x and x v (x ^ y) = x
        assert (meet[idx[:, None], join] == idx[:, None]).all(), nm
        assert (join[idx[:, None], meet] == idx[:, None]).all(), nm
        # associativity over all triples, vectorized
        assert (join[join] == join[:, join]).all(), nm
        assert (meet[meet] == meet[:, meet]).all(), nm


def test_covers_reconstruct_leq(corpus):
    for nm, L in corpus.items():
        adj = L.cover_matrix
        closure = np.eye(L.n, dtype=bool) | adj
        for k in range(L.n):
            closure |= closure[:, k : k + 1] & closure[k : k + 1, :]
        assert (closure == L.leq).all(), nm


def test_compactness_witness_examples():
    cube = boolean_cube(3)
    a = sorted(atoms(cube))[0]
    assert compactness_witness(cube, a, sorted(atoms(cube))) == {a}
    with pytest.raises(NotBelowJoin):
        compactness_witness(cube, cube.names[cube.top], [a])


def test_compactness_witness_minimal(corpus):
    L = corpus["2^3"]
    top = L.names[L.top]
    S = sorted(atoms(L))
    w = compactness_witness(L, top, S)
    assert len(w) == 3  # all three atoms are needed to rebuild the top


def test_compactness_witness_mo2():
    from omlkit.corpus import mo

    MO2 = mo(2)
    S = ["s0:a1", "s0:a2"]
    w = compactness_witness(MO2.lattice, "1", S)
    assert w == {"s0:a1", "s0:a2"}


# -- the blocked passes against per-element references --------------------


def _ref_order_axioms(leq):
    """The order checks of from_leq, by Python loops over the relation."""
    n = len(leq)
    if not all(leq[i][i] for i in range(n)):
        raise NotALattice("join", ("not", "reflexive"))
    for a, b in itertools.product(range(n), repeat=2):
        if a != b and leq[a][b] and leq[b][a]:
            raise CycleDetected("antisymmetry")
    for a, b, c in itertools.product(range(n), repeat=3):
        if leq[a][b] and leq[b][c] and not leq[a][c]:
            raise NotALattice("join", ("not", "transitive"))


def _ref_tables(names, leq):
    """(join, meet) of a bounded order matrix, one x at a time: the
    per-element reference for from_leq's blocked pass.  Raises NotALattice
    at the first failing x, join before meet, with the least-named y."""
    n = len(names)
    ext = np.argsort(leq.sum(axis=0), kind="stable")
    rext = ext[::-1]
    up_ext, down_ext = leq[:, ext], leq.T[:, rext]
    join = np.empty((n, n), dtype=np.int32)
    meet = np.empty((n, n), dtype=np.int32)
    for x in range(n):
        for table, sets, order, kind in ((join, up_ext, ext, "join"),
                                         (meet, down_ext, rext, "meet")):
            common = sets[x] & sets
            first = order[common.argmax(axis=1)]
            bad = np.flatnonzero((common & ~sets[first]).any(axis=1))
            if len(bad):
                y = min(bad, key=lambda i: names[i])
                raise NotALattice(kind, (names[x], names[y]))
            table[x] = first
    return join, meet


def _ref_covers(leq):
    n = len(leq)
    return np.array([[leq[a, b] and a != b and not any(
        leq[a, c] and leq[c, b] for c in range(n) if c not in (a, b))
        for b in range(n)] for a in range(n)], dtype=bool)


def _ref_closure(n, cover_pairs):
    """Kahn's walk for a cycle, then Warshall's closure."""
    adj = np.zeros((n, n), dtype=bool)
    for a, b in cover_pairs:
        adj[a, b] = True
    indeg = adj.sum(axis=0)
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in np.flatnonzero(adj[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(int(v))
    if seen != n:
        return None
    leq = np.eye(n, dtype=bool) | adj
    for k in range(n):
        leq |= leq[:, k : k + 1] & leq[k : k + 1, :]
    return leq


def _ref_least(L, tuples):
    return min((tuple(L.names[i] for i in t) for t in tuples), default=None)


def _ref_predicates(L):
    """Every flag and witness of predicates, by loops over elements."""
    n, names = L.n, L.names
    meet, join, leq, cov = L.meet, L.join, L.leq, L.cover_matrix
    bottom, top = L.bottom, L.top
    ids = range(n)
    atom_list = [a for a in ids if cov[bottom, a]]
    viol = {
        "is_modular": [(x, y, z) for x, y, z in itertools.product(ids, ids, ids)
                       if leq[x, z] and join[x, meet[y, z]] != meet[join[x, y], z]],
        "is_distributive": [
            (x, y, z) for x, y, z in itertools.product(ids, ids, ids)
            if meet[x, join[y, z]] != join[meet[x, y], meet[x, z]]],
        "is_semimodular": [(a, b) for a, b in itertools.product(ids, ids)
                           if cov[meet[a, b], a] and not cov[b, join[a, b]]],
        "is_dual_semimodular": [
            (a, b) for a, b in itertools.product(ids, ids)
            if cov[a, join[a, b]] and not cov[meet[a, b], b]],
        "has_covering": [(a, x) for a in atom_list for x in ids
                         if join[a, x] != x and not cov[x, join[a, x]]],
        "is_atomic": [(x,) for x in ids
                      if x != bottom and not any(leq[a, x] for a in atom_list)],
        "is_complemented": [(x,) for x in ids if not any(
            meet[x, y] == bottom and join[x, y] == top for y in ids)],
        "is_weakly_atomic": [
            (a, b) for a, b in itertools.product(ids, ids)
            if a != b and leq[a, b] and not any(
                leq[a, u] and leq[v, b] for u, v in np.argwhere(cov))],
        "is_strongly_atomic": [
            (a, b) for a, b in itertools.product(ids, ids)
            if a != b and leq[a, b] and not any(
                cov[a, v] and leq[v, b] for v in ids)],
        "is_relatively_complemented": [
            (x, a, y) for a in ids for x, y in itertools.product(ids, ids)
            if leq[x, a] and leq[a, y] and not any(
                meet[a, b] == x and join[a, b] == y for b in ids)],
    }
    witnesses = {k: _ref_least(L, v) for k, v in viol.items() if v}
    for x in sorted(ids, key=names.__getitem__):
        acc = bottom
        for a in atom_list:
            if leq[a, x]:
                acc = join[acc, a]
        if acc != x:
            witnesses["is_atomistic"] = (names[x],)
            break
    return witnesses


def _check_predicates(L):
    p = predicates(L)
    want = _ref_predicates(L)
    assert p.witnesses == want
    for flag, value in dataclasses.asdict(p).items():
        if flag != "witnesses":
            assert value == (flag not in want), flag


def _named(rng, n):
    """n distinct names whose sort order is unrelated to their indices."""
    names = [f"{rng.choice('abxyz')}{k}" for k in range(n)]
    rng.shuffle(names)
    return names


def _subset_order(rng, ground, count, closed):
    """A bounded order of random subsets of range(ground) by inclusion,
    holding the empty and the full set.  Closed under union it is a
    lattice (a finite join-semilattice with a bottom)."""
    family = {0, (1 << ground) - 1}
    family.update(rng.randrange(1 << ground) for _ in range(count))
    while closed:
        grown = family | {a | b for a in family for b in family}
        if grown == family:
            break
        family = grown
    sets = list(family)
    rng.shuffle(sets)
    leq = np.array([[a & ~b == 0 for b in sets] for a in sets], dtype=bool)
    return _named(rng, len(sets)), leq


def _lattice_cases(seed, count):
    rng = random.Random(seed)
    return [_subset_order(rng, rng.randint(1, 6), rng.randint(1, 9), True)
            for _ in range(count)]


def _outcome(build):
    try:
        return build()
    except NotALattice as exc:
        return exc.kind, exc.witness


@pytest.fixture(params=["budget", "one-x blocks"])
def block_budget(request, monkeypatch):
    """Runs a test at the shared block budget, and again with a budget of
    one byte, so that every block is one x and block edges are crossed."""
    if request.param != "budget":
        monkeypatch.setattr(lattice_module, "_BLOCK_BYTES", 1)


def test_predicates_match_the_references_on_the_corpus(corpus, omls,
                                                       block_budget):
    lattices = [*corpus.values(), *(O.lattice for O in omls.values())]
    assert len(lattices) == 33
    for L in lattices:
        _check_predicates(L)


def test_predicates_match_the_references_on_random_lattices(block_budget):
    for names, leq in _lattice_cases(23, 60):
        _check_predicates(BoundedLattice.from_leq(names, leq))


def test_from_leq_matches_the_references(block_budget):
    rng = random.Random(5)
    cases = _lattice_cases(7, 40) + [
        _subset_order(rng, rng.randint(2, 5), rng.randint(2, 8), False)
        for _ in range(160)]
    failures = set()
    for names, leq in cases:
        got = _outcome(lambda: BoundedLattice.from_leq(names, leq))
        want = _outcome(lambda: _ref_tables(names, leq))
        if isinstance(want, tuple) and isinstance(want[0], str):
            failures.add(want[0])
            assert got == want
            continue
        assert (got.join == want[0]).all() and (got.meet == want[1]).all()
        assert (got.cover_matrix == _ref_covers(leq)).all()
    assert failures == {"join", "meet"}


def test_lattice_from_covers_matches_the_references(block_budget):
    rng = random.Random(11)
    cycles = 0
    for names, leq in _lattice_cases(13, 40):
        L = BoundedLattice.from_leq(names, leq)
        pairs = [tuple(p) for p in np.argwhere(L.cover_matrix)]
        if rng.random() < 0.3:
            a, b = pairs[rng.randrange(len(pairs))]
            pairs.append((b, rng.choice([a, b])))
        want = _ref_closure(L.n, pairs)
        named = [(names[a], names[b]) for a, b in pairs]
        if want is None:
            cycles += 1
            with pytest.raises(CycleDetected):
                lattice_from_covers(names, named)
        else:
            assert (lattice_from_covers(names, named).leq == want).all()
    assert cycles > 5


def test_order_axioms_match_the_reference():
    rng = random.Random(3)
    kinds = set()
    for _ in range(200):
        n = rng.randint(1, 6)
        leq = np.array([[i == j or rng.random() < 0.4 for j in range(n)]
                        for i in range(n)], dtype=bool)
        if rng.random() < 0.2:
            leq[rng.randrange(n), rng.randrange(n)] = False
        names = _named(rng, n)
        want = got = None
        try:
            _ref_order_axioms(leq)
        except (NotALattice, CycleDetected) as exc:
            want = type(exc), getattr(exc, "witness", None)
        try:
            lattice_module._check_order_axioms(names, leq)
        except (NotALattice, CycleDetected) as exc:
            got = type(exc), getattr(exc, "witness", None)
        assert got == want
        kinds.add(want)
    assert kinds == {None, (CycleDetected, None),
                     (NotALattice, ("not", "reflexive")),
                     (NotALattice, ("not", "transitive"))}


def test_predicates_on_a_wide_diamond():
    # at n = 256 the triple laws take one x per block at the shared budget;
    # M_k is modular and not distributive, least witness a1 ^ (a10 v a100)
    assert predicates(diamond(254)).witnesses == {
        "is_distributive": ("a1", "a10", "a100")}


@pytest.mark.parametrize("k", [254, 255, 256, 257])
def test_wide_diamond_covers(k):
    # 256 atoms are 256 paths from bottom to top: a count of paths kept in
    # 8 bits wraps to 0 there and made bottom <. top a cover
    M = diamond(k)
    assert len(covers(M)) == 2 * k
    assert ("0", "1") not in covers(M)


def test_transitivity_sees_exactly_256_intermediates():
    names = ["0", *(f"m{i}" for i in range(256)), "1"]
    leq = np.eye(len(names), dtype=bool)
    leq[0, 1:-1] = leq[1:-1, -1] = True      # 0 <= m_i <= 1, but not 0 <= 1
    with pytest.raises(NotALattice) as info:
        BoundedLattice.from_leq(names, leq)
    assert (info.value.kind, info.value.witness) == ("join", ("not", "transitive"))
