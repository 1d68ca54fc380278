"""Finite truncations of the Rieger-Nishimura ladder and their K(L) algebra.

The base lattice rn_lattice(rows) keeps grid elements a_{ij} for rows
0..rows (four columns, a_{00} omitted) and closes the order with an
artificial top "1".  Atoms of K(rn_lattice(rows)) are the Hasse edges of the
grid; they are classified by the vertex degrees of the infinite diagram, and
the compactness and covering claims are checked on atoms far enough from the
truncation boundary that the infinite-diagram neighborhood is intact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RowsTooSmall
from .kalmbach import kalmbach
from .lattice import compactness_witness, lattice_from_covers

MAX_ROWS = 9  # two-digit row indices would make grid names ambiguous
BOUNDARY_MARGIN = 2  # see classify_atoms


def _name(i, j):
    return f"a{i}{j}"


def rn_lattice(rows):
    """The rows-deep truncation, a bounded lattice of 4*rows + 4 elements."""
    if not 1 <= rows <= MAX_ROWS:
        raise RowsTooSmall(f"rows must be between 1 and {MAX_ROWS}")
    names = []
    for i in range(rows + 1):
        for j in range(4):
            if (i, j) != (0, 0):
                names.append(_name(i, j))
    names.append("1")
    cover_pairs = []
    for i in range(rows + 1):
        for j in range(4):
            if (i, j) == (0, 0):
                continue
            if j < 3:
                cover_pairs.append((_name(i, j), _name(i, j + 1)))
            if j >= 1 and i < rows:
                cover_pairs.append((_name(i, j), _name(i + 1, j - 1)))
    cover_pairs.append((_name(rows, 3), "1"))
    return lattice_from_covers(names, cover_pairs)


def _grid_pos(name):
    """(i, j) for a grid element name, None for the artificial top."""
    if name == "1":
        return None
    return int(name[1]), int(name[2])


def _rows_of(base):
    return max(_grid_pos(nm)[0] for nm in base.names if nm != "1")


def _degree(i, j):
    """Vertex degree of a_{ij} in the Hasse diagram of the infinite ladder."""
    if i == 0:
        return {1: 2, 2: 3, 3: 2}[j]
    return 2 if j in (0, 3) else 4


_EXCEPTIONAL_EDGES = frozenset([
    ((0, 1), (0, 2)),
    ((0, 2), (0, 3)),
    ((0, 1), (1, 0)),
    ((0, 2), (1, 1)),
    ((1, 0), (1, 1)),
])


def _classify_edge(u, v):
    if u is None or v is None:
        return "artifact"
    if (u, v) in _EXCEPTIONAL_EDGES:
        return "exceptional"
    du, dv = _degree(*u), _degree(*v)
    if du == 4 and dv == 4:
        return "internal"
    if {du, dv} == {2, 4}:
        return "external"
    return "exceptional"


@dataclass(frozen=True)
class AtomClassification:
    """Partition of the atoms of K(rn_lattice(rows)) by edge degrees.

    ``boundary`` holds atoms too close to the truncation to carry the
    infinite-diagram claims (including the artificial top edge); it may
    overlap the three classes, which always cover all non-artifact atoms.
    """

    rows: int
    internal: frozenset
    external: frozenset
    exceptional: frozenset
    boundary: frozenset

    def role(self, atom_name):
        for role in ("internal", "external", "exceptional"):
            if atom_name in getattr(self, role):
                return role
        return "artifact"


def _atom_edge(K, i):
    a, b = K.terms[i, :2].tolist()
    return _grid_pos(K.base.names[a]), _grid_pos(K.base.names[b])


def classify_atoms(K):
    """Classify the atoms of K over an rn_lattice base.

    An atom is flagged as boundary when either endpoint of its edge sits in
    a grid row above rows - BOUNDARY_MARGIN, where the truncation removes
    part of the infinite-diagram neighborhood that the compactness claims
    rely on.
    """
    rows = _rows_of(K.base)
    if rows < 3:
        raise RowsTooSmall("atom classification needs rows >= 3")
    buckets = {"internal": set(), "external": set(), "exceptional": set()}
    boundary = set()
    for i in K.atoms_idx():
        u, v = _atom_edge(K, i)
        role = _classify_edge(u, v)
        if role == "artifact":
            boundary.add(K.names[i])
            continue
        buckets[role].add(K.names[i])
        if max(u[0], v[0]) > rows - BOUNDARY_MARGIN:
            boundary.add(K.names[i])
    return AtomClassification(
        rows=rows,
        internal=frozenset(buckets["internal"]),
        external=frozenset(buckets["external"]),
        exceptional=frozenset(buckets["exceptional"]),
        boundary=frozenset(boundary),
    )


def _noncommuting_idx(K, c):
    """The ids of the atoms p with commutator gamma(p, c) != 0, ascending."""
    atoms = np.array(K.atoms_idx())
    atoms = atoms[atoms != c]
    return atoms[~K.commutes_idx(atoms, c)].tolist()


def noncommuting_atoms(K, atom_name):
    """The atoms p with commutator gamma(p, atom) != 0."""
    return {K.names[p] for p in _noncommuting_idx(K, K.index(atom_name))}


def claim1_join_check(K, atom_name):
    """All pairwise joins of the atom's non-commuting atoms dominate it."""
    c = K.index(atom_name)
    return _joins_dominate(K, c, _noncommuting_idx(K, c))


def _joins_dominate(K, c, nc):
    """Whether every join of two of the atom ids nc lies above the id c."""
    for a in range(len(nc)):
        for b in range(a + 1, len(nc)):
            if not K.leq_idx(c, K.join_idx(nc[a], nc[b])):
                return False
    return True


def central_elements(K):
    """Elements of K lying in every block: term sets inside every max chain."""
    common = set.intersection(*(set(C) for C in K.max_chains))
    return sorted(K.names[i] for i in np.flatnonzero(K.within(common)))


def covering_report(K):
    """One sweep over all (atom, x) pairs for the 1- and 2-covering laws.

    Law n fails at (a, x) when [x, a v x] has height over n, as read by
    ``K.interval_heights`` off [0, (a v x) ^ x'], the image of the interval
    under the OML isomorphism z -> z ^ x' (Kalmbach, *Orthomodular
    Lattices*, 1983); so K must have been found orthomodular.  Each law is
    evaluated unrestricted and with intervals whose top touches the
    artificial top element excluded ("truncated").  Witnesses are (atom
    name, x name) pairs, least among those found: the atoms are swept in
    name order, and the witness of a law is the first atom with a failure
    and the least name among its failing x.  The x above the atom a are
    skipped: there a v x = x, so neither law can fail.
    """
    touches_top = ~K.within(set(range(K.base.n)) - {K.base.top})
    first = {}  # law -> (least-named atom with a failure, its failing x)
    atoms = np.array(sorted(K.atoms_idx(), key=K.names.__getitem__))
    ids = np.arange(K.n)
    above = K.leq_batch(atoms[:, None], ids)
    for a, x_above in zip(atoms, above):
        xs = ids[~x_above]
        js = K.join_batch(a, xs)
        heights = K.interval_heights(xs, js)
        for law in (1, 2):
            fails = heights > law
            for key, hit in ((f"covering{law}", fails),
                             (f"covering{law}_truncated",
                              fails & ~touches_top[js])):
                if key not in first and hit.any():
                    first[key] = a, xs[hit]

    result = {}
    for key in ("covering1", "covering1_truncated",
                "covering2", "covering2_truncated"):
        hit = first.get(key)
        result[key] = hit is None
        result[key + "_witness"] = None if hit is None else (
            K.names[hit[0]],
            K.names[min(hit[1].tolist(), key=K.names.__getitem__)])
    return result


def rn_report(rows, K=None):
    """Build K(rn_lattice(rows)) and check the headline structure claims.

    Returns a dict covering orthomodularity, the center (with truncation
    artifacts separated), both covering properties, the per-atom compactness
    claims, and the row-shift embedding check.  A prebuilt K over the same
    truncation may be passed to skip reconstruction.
    """
    if rows < 3:
        raise RowsTooSmall("the structure report needs rows >= 3")
    if K is None:
        base = rn_lattice(rows)
        K = kalmbach(base)
    else:
        base = K.base
        if _rows_of(base) != rows:
            raise ValueError("prebuilt K does not match the requested rows")
    cls = classify_atoms(K)

    centre = central_elements(K)
    bounds = {K.names[K.bottom], K.names[K.top]}
    artifacts = [nm for nm in centre if nm not in bounds]
    common = set.intersection(*(set(C) for C in K.max_chains))
    forced = {base.names[e] for e in common} - {
        base.names[base.bottom], base.names[base.top]
    }
    # every nontrivial central element must come from truncation-forced
    # chain elements (grid elements on every maximal chain)
    artifact_only = all(
        any(nm in forced for nm in K.seq_names(K.index(c))) for c in artifacts
    )

    atom_claims = []
    for role in ("internal", "external"):
        for nm in sorted(getattr(cls, role) - cls.boundary):
            c = K.index(nm)
            nc = _noncommuting_idx(K, c)
            entry = {
                "atom": nm,
                "role": role,
                "noncommuting": len(nc),
                "count_ok": len(nc) == (4 if role == "internal" else 6),
            }
            if role == "internal":
                entry["pairwise_joins_dominate"] = _joins_dominate(K, c, nc)
            witness = compactness_witness(K, c, nc)
            entry["witness"] = tuple(sorted(witness))
            entry["witness_ok"] = len(witness) <= 2
            atom_claims.append(entry)

    cov = covering_report(K)
    report = {
        "rows": rows,
        "base_size": base.n,
        "k_size": K.n,
        "k_atoms": len(K.atoms_idx()),
        "max_chains": len(K.max_chains),
        "is_orthomodular": K.orthomodular,
        "orthomodular_witness": K.orthomodular_witness,
        "center": centre,
        "center_artifacts": artifacts,
        "is_directly_irreducible": len(centre) == 2 or artifact_only,
        "is_directly_irreducible_unrestricted": len(centre) == 2,
        "atom_counts": {
            "internal": len(cls.internal),
            "external": len(cls.external),
            "exceptional": len(cls.exceptional),
            "boundary": len(cls.boundary),
        },
        "atom_claims": atom_claims,
        "embedding_check": row_shift_embedding_check(base),
    }
    report.update(cov)
    return report


def row_shift_embedding_check(base):
    """a_{ij} -> a_{(i+1)j} maps rows 0..r-1 into the grid preserving covers."""
    rows = _rows_of(base)
    image = {}
    for nm in base.names:
        pos = _grid_pos(nm)
        if pos is not None and pos[0] < rows:
            image[nm] = _name(pos[0] + 1, pos[1])
    cov = base.cover_matrix
    for u, v in np.argwhere(cov):
        nu, nv = base.names[int(u)], base.names[int(v)]
        if nu in image and nv in image:
            iu, iv = base.index(image[nu]), base.index(image[nv])
            if not cov[iu, iv]:
                return False
    return len(set(image.values())) == len(image)
