"""A hand-listed corpus of small bounded lattices and orthomodular lattices.

The lattice corpus holds 20 bounded lattices of at most 8 elements (chains,
diamonds, the pentagon, the hexagon, the cube, chain products and stacked
diamonds); the OML corpus holds small Boolean algebras, the MO_k family,
products, and Kalmbach algebras of small bases.  Both are returned as
name-keyed dicts with deterministic iteration order.
"""

from __future__ import annotations

from .kalmbach import kalmbach
from .lattice import BoundedLattice, lattice_from_covers
from .ortho import horizontal_sum, ortholattice, product

import itertools

import numpy as np


def chain(k):
    """The k-element chain c0 < c1 < ... < c{k-1}."""
    names = [f"c{i}" for i in range(k)]
    return lattice_from_covers(names, list(zip(names, names[1:])))


def diamond(k):
    """M_k: bottom, k incomparable atoms, top (k + 2 elements)."""
    atoms = [f"a{i}" for i in range(1, k + 1)]
    covs = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return lattice_from_covers(["0"] + atoms + ["1"], covs)


def pentagon():
    """N5: 0 < a < b < 1 and 0 < c < 1; the minimal non-modular lattice."""
    return lattice_from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
    )


def benzene():
    """O6: two 3-element chains glued at the bounds."""
    return lattice_from_covers(
        ["0", "a", "b", "c", "d", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "d"), ("d", "1")],
    )


def benzene_ortholattice():
    """O6 with the orthocomplementation a <-> d, b <-> c.

    A valid ortholattice that is not orthomodular (witness pair (a, b)).
    """
    return ortholattice(
        benzene(), {"0": "1", "1": "0", "a": "d", "d": "a", "b": "c", "c": "b"}
    )


def boolean_cube(n):
    """The Boolean algebra 2^n on subsets of {0..n-1}, named by bitstrings."""
    names = ["".join(str((s >> i) & 1) for i in range(n)) for s in range(2**n)]
    leq = np.zeros((2**n, 2**n), dtype=bool)
    for a in range(2**n):
        for b in range(2**n):
            leq[a, b] = (a & b) == a
    return BoundedLattice.from_leq(names, leq)


def boolean_oml(n):
    """2^n as an OML with set-complement orthocomplementation."""
    L = boolean_cube(n)
    full = (1 << n) - 1

    def bits(nm):
        return sum(1 << i for i, ch in enumerate(nm) if ch == "1")

    names_by_bits = {bits(nm): nm for nm in L.names}
    perp = {nm: names_by_bits[full ^ bits(nm)] for nm in L.names}
    return ortholattice(L, perp)


def two_squared():
    """The Boolean algebra 2^2 presented as M2 with perp a <-> b."""
    return ortholattice(
        diamond(2), {"0": "1", "1": "0", "a1": "a2", "a2": "a1"}
    )


def mo(k):
    """MO_k: the horizontal sum of k copies of 2^2 (2k + 2 elements)."""
    return horizontal_sum([two_squared() for _ in range(k)])


def grid(p, q):
    """The product of a p-chain and a q-chain, named g{i}{j}."""
    names = [f"g{i}{j}" for i in range(p) for j in range(q)]
    covs = []
    for i in range(p):
        for j in range(q):
            if i + 1 < p:
                covs.append((f"g{i}{j}", f"g{i+1}{j}"))
            if j + 1 < q:
                covs.append((f"g{i}{j}", f"g{i}{j+1}"))
    return lattice_from_covers(names, covs)


def stacked_diamond():
    """M2 with a stem on top: 0 < a,b < m < 1 (5 elements)."""
    return lattice_from_covers(
        ["0", "a", "b", "m", "1"],
        [("0", "a"), ("0", "b"), ("a", "m"), ("b", "m"), ("m", "1")],
    )


def double_diamond():
    """Two diamonds stacked at a shared middle: 0 < a,b < m < c,d < 1."""
    return lattice_from_covers(
        ["0", "a", "b", "m", "c", "d", "1"],
        [("0", "a"), ("0", "b"), ("a", "m"), ("b", "m"),
         ("m", "c"), ("m", "d"), ("c", "1"), ("d", "1")],
    )


def diamond_times_chain():
    """M2 x C2, an 8-element modular lattice."""
    left = diamond(2)
    names = [f"{nm}.{k}" for nm in left.names for k in range(2)]
    leq = np.zeros((len(names), len(names)), dtype=bool)
    for (i, k), (j, m) in itertools.product(
        itertools.product(range(left.n), range(2)), repeat=2
    ):
        leq[i * 2 + k, j * 2 + m] = bool(left.leq[i, j]) and k <= m
    return BoundedLattice.from_leq(names, leq)


def lattice_corpus():
    """20 hand-listed bounded lattices of size <= 8, deterministically keyed."""
    out = {}
    for k in range(2, 9):
        out[f"C{k}"] = chain(k)
    for k in range(2, 7):
        out[f"M{k}"] = diamond(k)
    out["N5"] = pentagon()
    out["O6"] = benzene()
    out["2^3"] = boolean_cube(3)
    out["C2xC3"] = grid(2, 3)
    out["C2xC4"] = grid(2, 4)
    out["M2+stem"] = stacked_diamond()
    out["M2+M2"] = double_diamond()
    out["M2xC2"] = diamond_times_chain()
    return out


def oml_corpus():
    """13 small orthomodular lattices for the structure-theorem checks.

    The Boolean cubes 2^1..2^5, MO_1..MO_4, the product MO2 x 2^1, and the
    Kalmbach algebras of the corpus bases C3, C4 and M2.
    """
    out = {}
    for n in range(1, 6):
        out[f"2^{n}"] = boolean_oml(n)
    for k in range(1, 5):
        out[f"MO{k}"] = mo(k)
    out["MO2x2^1"] = product([mo(2), boolean_oml(1)])
    base = lattice_corpus()
    for nm in ("C3", "C4", "M2"):
        out[f"K({nm})"] = kalmbach(base[nm]).as_ortholattice()
    return out
