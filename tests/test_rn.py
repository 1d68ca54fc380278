import hashlib

import numpy as np
import pytest

from omlkit.cli import render_rn_report
from omlkit.errors import RowsTooSmall
from omlkit.kalmbach import KalmbachOML, OrderCheck, kalmbach
from omlkit.lattice import compactness_witness
from omlkit.ortho import has_n_covering
from omlkit.rn import (
    central_elements,
    claim1_join_check,
    classify_atoms,
    covering_report,
    noncommuting_atoms,
    rn_lattice,
    rn_report,
    row_shift_embedding_check,
)


def test_base_lattice_sizes():
    for rows in range(1, 5):
        L = rn_lattice(rows)
        assert L.n == 4 * rows + 4


def test_rows_bounds():
    with pytest.raises(RowsTooSmall):
        rn_lattice(0)
    with pytest.raises(RowsTooSmall):
        rn_lattice(10)


def test_base_has_unique_bounds():
    L = rn_lattice(3)
    assert L.names[L.bottom] == "a01"
    assert L.names[L.top] == "1"


def test_classification_counts_rows3(rn3):
    base, K = rn3
    cls = classify_atoms(K)
    assert len(cls.exceptional) == 5
    # exactly one non-boundary internal atom at rows = 3
    assert len(cls.internal - cls.boundary) == 1
    assert cls.internal | cls.external | cls.exceptional == {
        K.names[i] for i in K.atoms_idx()
    } - {nm for nm in cls.boundary if cls.role(nm) == "artifact"}


def test_classification_stable_under_deepening(rn3, rn4):
    # roles of shared atoms agree between rows 3 and rows 4
    _, K3 = rn3
    _, K4, _ = rn4
    cls3 = classify_atoms(K3)
    cls4 = classify_atoms(K4)
    shared = ({K3.names[i] for i in K3.atoms_idx()}
              & {K4.names[i] for i in K4.atoms_idx()})
    for nm in shared:
        r3, r4 = cls3.role(nm), cls4.role(nm)
        if "artifact" not in (r3, r4):
            assert r3 == r4, nm


def test_internal_atom_claims_rows3(rn3):
    _, K = rn3
    cls = classify_atoms(K)
    for nm in cls.internal - cls.boundary:
        nc = noncommuting_atoms(K, nm)
        assert len(nc) == 4, nm
        assert claim1_join_check(K, nm), nm
        w = compactness_witness(K, nm, sorted(nc))
        assert len(w) <= 2


def test_atom_claims_parse_only_the_atom_names(rn3, monkeypatch):
    # the report reads the non-commuting atoms as ids: it parses a name
    # once per atom claim and once per center artifact, never the names of
    # the non-commuting atoms
    _, K = rn3
    calls, index = [], KalmbachOML.index

    def counted(self, name):
        calls.append(name)
        return index(self, name)

    monkeypatch.setattr(KalmbachOML, "index", counted)
    report = rn_report(3, K)
    claims = report["atom_claims"]
    internal = sum(e["role"] == "internal" for e in claims)
    assert claims and internal
    assert len(calls) == len(claims) + len(report["center_artifacts"])
    assert set(calls) <= ({e["atom"] for e in claims}
                          | set(report["center_artifacts"]))


def test_external_atom_claims_rows3(rn3):
    _, K = rn3
    cls = classify_atoms(K)
    for nm in cls.external - cls.boundary:
        nc = noncommuting_atoms(K, nm)
        assert len(nc) == 6, nm
        w = compactness_witness(K, nm, sorted(nc))
        assert len(w) <= 2


def test_center_artifacts_rows3(rn3):
    base, K = rn3
    centre = central_elements(K)
    assert K.names[K.bottom] in centre and K.names[K.top] in centre
    # the truncation forces a3,3 onto every maximal chain, so the literal
    # center is larger than {0, 1}; every extra element must mention a
    # chain-forced base element
    extras = [nm for nm in centre
              if nm not in (K.names[K.bottom], K.names[K.top])]
    assert extras
    # a33's only lower cover is a32, so both are on every maximal chain
    forced = {"a01", "a32", "a33", "1"}
    for nm in extras:
        terms = set(K.seq_names(K.index(nm)))
        assert terms <= forced and terms & {"a32", "a33"}, nm


def test_covering_verdicts_rows3(rn3):
    _, K = rn3
    cov = covering_report(K)
    assert not cov["covering1"]
    assert cov["covering1_witness"] is not None
    assert cov["covering2"]
    assert cov["covering2_truncated"]


def test_covering_report_matches_has_n_covering(kalmbach_corpus):
    # the bitset sweep against the dense-table search, witnesses included
    for nm, K in kalmbach_corpus.items():
        cov = covering_report(K)
        OL = K.as_ortholattice()
        for n in (1, 2):
            got = (cov[f"covering{n}"], cov[f"covering{n}_witness"])
            assert got == has_n_covering(OL, n), (nm, n)


def test_orthomodular_rows3(rn3):
    _, K = rn3
    assert K.orthomodular
    assert K.orthomodular_witness is None


def test_row_shift_embedding():
    assert row_shift_embedding_check(rn_lattice(3))
    assert row_shift_embedding_check(rn_lattice(4))


def test_classification_needs_rows3():
    K = kalmbach(rn_lattice(2))
    with pytest.raises(RowsTooSmall):
        classify_atoms(K)


def _two_covering_candidates(K):
    """The distinct (x, j) with j = a v x for an atom a and |[x, j]| > 3."""
    ids = np.arange(K.n)
    out = set()
    for a in K.atoms_idx():
        for xs in np.array_split(ids, -(-K.n // 512)):
            js = K.join_batch(a, xs)
            size = (K.leq_batch(xs[:, None], ids)
                    & K.leq_batch(ids, js[:, None])).sum(axis=1)
            out.update(zip(xs[size > 3].tolist(), js[size > 3].tolist()))
    return sorted(out)


def _scalar_tall(K, x, j):
    """Whether some s < t lie strictly between x and j, pair by pair."""
    ids = np.arange(K.n)
    members = ids[K.leq_batch(x, ids) & K.leq_batch(ids, j)]
    inner = [int(s) for s in members if s not in (x, j)]
    return any(s != t and K.leq_idx(s, t) for s in inner for t in inner)


def test_batched_height_test_matches_a_scalar_4_chain_search(
        kalmbach_corpus, rn3):
    # K(rn 3) has thousands of candidates; its verdicts are all False
    seen = []
    for nm, K in [*kalmbach_corpus.items(), ("rn3", rn3[1])]:
        pairs = _two_covering_candidates(K)
        if not pairs:
            continue
        xs, js = (np.array(c) for c in zip(*pairs))
        want = [_scalar_tall(K, x, j) for x, j in pairs]
        assert (K.interval_heights(xs, js) > 2).tolist() == want, nm
        seen += want
    assert any(seen) and not all(seen)


def test_rn_report_rows5():
    # K(rn 5) has 199,680 elements: the order, orthomodularity and both
    # covering laws are checked exhaustively
    K = kalmbach(rn_lattice(5))
    assert K.order_check == OrderCheck("exhaustive", 258, 199_680, 3_035_649)
    report = rn_report(5, K)
    assert report["k_size"] == 199_680
    assert report["is_orthomodular"] is True
    assert report["orthomodular_witness"] is None
    witness = ("(a01,a10)", "(a02,a03)")  # the same as at rows 3
    for key in ("covering1", "covering1_truncated"):
        assert (report[key], report[key + "_witness"]) == (False, witness)
    for key in ("covering2", "covering2_truncated"):
        assert (report[key], report[key + "_witness"]) == (True, None)
    # the text of `rn --rows 5 --report`, rendered from this K
    assert hashlib.sha256(render_rn_report(report).encode()).hexdigest() == (
        "3e0c96b3c91bd1d3015b49d3e2cd83831a530ca61dc88aefdd06167031c13d55")
