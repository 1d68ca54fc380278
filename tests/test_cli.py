import pytest

from omlkit.cli import keller_report, main, run_checks
from omlkit.corpus import benzene_ortholattice, chain, mo, pentagon
from omlkit.kalmbach import MAX_TABLE_BYTES, kalmbach
from omlkit.lattice import covers, find_isomorphism
from omlkit.latfile import (
    build_lattice,
    document_from_lattice,
    emit_lattice,
    export_dot,
    parse_dot,
    parse_lattice,
)
from omlkit.errors import NonTotalPerp, ParseError, UnknownName


@pytest.fixture()
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return _write


def _doc_text(obj):
    return emit_lattice(document_from_lattice(obj))


# -- document parsing -------------------------------------------------------


def test_minimal_chain_roundtrip():
    text = "elements: [a, b]\ncovers:\n- [a, b]\n"
    doc = parse_lattice(text)
    assert parse_lattice(emit_lattice(doc)) == doc
    L, OL = build_lattice(doc)
    assert L.n == 2 and OL is None


def test_mo2_document_builds_ortholattice():
    doc = parse_lattice(_doc_text(mo(2)))
    _, OL = build_lattice(doc)
    assert OL is not None and OL.n == 6


def test_unknown_name_rejected():
    with pytest.raises(UnknownName):
        parse_lattice("elements: [a, b]\ncovers:\n- [a, c]\n")


def test_partial_perp_rejected():
    with pytest.raises(NonTotalPerp):
        parse_lattice(
            "elements: [a, b]\ncovers:\n- [a, b]\nperp: {a: b}\n"
        )


def test_malformed_yaml_rejected():
    with pytest.raises(ParseError):
        parse_lattice("elements: [a, b\n")
    with pytest.raises(ParseError):
        parse_lattice("covers: []\n")
    with pytest.raises(ParseError):
        parse_lattice("elements: [a]\nunknown_field: 1\n")


def test_roundtrip_full_corpus(corpus):
    for nm, L in corpus.items():
        doc = document_from_lattice(L)
        assert parse_lattice(emit_lattice(doc)) == doc, nm
        assert parse_dot(export_dot(doc)) == doc, nm


def test_numeric_names_stay_strings():
    text = "elements: ['0', '1']\ncovers:\n- ['0', '1']\n"
    doc = parse_lattice(text)
    assert doc.elements == ("0", "1")
    assert parse_lattice(emit_lattice(doc)) == doc


# -- run_checks ---------------------------------------------------------------


def test_o6_report_contains_orthomodular_failure():
    doc = parse_lattice(_doc_text(benzene_ortholattice()))
    report = run_checks(doc)
    entries = {name: (v, w) for name, v, w in report.entries}
    assert entries["orthomodular"] == (False, ("a", "b"))
    assert not report.all_pass


def test_n5_report_modular_failure():
    doc = parse_lattice(_doc_text(pentagon()))
    report = run_checks(doc)
    entries = {name: (v, w) for name, v, w in report.entries}
    ok, witness = entries["modular"]
    assert not ok and len(witness) == 3


def test_kalmbach_pipeline_checks():
    doc = parse_lattice(_doc_text(mo(1)))
    report = run_checks(doc, with_kalmbach=True)
    entries = {name: v for name, v, _ in report.entries}
    assert entries["katoms"] and entries["kblocks"] and entries["kcommute"]


def test_report_deterministic():
    doc = parse_lattice(_doc_text(benzene_ortholattice()))
    assert run_checks(doc).render() == run_checks(doc).render()


# -- CLI surface ---------------------------------------------------------------


def test_check_exit_codes(write, tmp_path):
    o6 = write("o6.yaml", _doc_text(benzene_ortholattice()))
    out = str(tmp_path / "out.txt")
    assert main(["check", "--in", o6, "--out", out]) == 1
    bad = write("bad.yaml", "elements: [a]\ncovers:\n- [a, zz]\n")
    assert main(["check", "--in", bad, "--out", out]) == 2


def test_check_output_byte_identical(write, tmp_path):
    o6 = write("o6.yaml", _doc_text(benzene_ortholattice()))
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    main(["check", "--in", o6, "--out", a])
    main(["check", "--in", o6, "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_kalmbach_subcommand_roundtrip(write, tmp_path):
    m2 = write("m2.yaml", _doc_text(mo(1)))
    out = str(tmp_path / "k.yaml")
    assert main(["kalmbach", "--in", m2, "--out", out]) == 0
    doc = parse_lattice(open(out).read())
    assert len(doc.elements) == 6  # K(M2) = MO2
    assert doc.perp is not None


def test_kalmbach_covers_match_the_dense_order(kalmbach_corpus):
    for nm, K in kalmbach_corpus.items():
        want = tuple(sorted(covers(K.as_ortholattice().lattice)))
        assert document_from_lattice(K).covers == want, nm


def test_kalmbach_subcommand_rebuilds_k_of_c4(write, tmp_path):
    c4 = write("c4.yaml", _doc_text(chain(4)))
    out = str(tmp_path / "k.yaml")
    assert main(["kalmbach", "--in", c4, "--out", out]) == 0
    L, OL = build_lattice(parse_lattice(open(out).read()))
    K = kalmbach(chain(4)).as_ortholattice()
    assert find_isomorphism(L, K.lattice, OL.perp, K.perp)


def test_dot_subcommand_reimport(write, tmp_path):
    m2 = write("m2.yaml", _doc_text(mo(2)))
    out = str(tmp_path / "g.dot")
    assert main(["dot", "--in", m2, "--out", out]) == 0
    text = open(out).read()
    assert text.startswith("digraph")
    assert parse_lattice(text) == parse_lattice(_doc_text(mo(2)))


def test_hs_and_product_subcommands(write, tmp_path):
    m2 = write("m2.yaml", _doc_text(mo(1)))
    out = str(tmp_path / "out.yaml")
    assert main(["hs", "--in", m2, "--in", m2, "--out", out]) == 0
    assert len(parse_lattice(open(out).read()).elements) == 6
    assert main(["product", "--in", m2, "--in", m2, "--out", out]) == 0
    assert len(parse_lattice(open(out).read()).elements) == 16


def test_rn_subcommand(write, tmp_path):
    out = str(tmp_path / "rn.yaml")
    assert main(["rn", "--rows", "2", "--out", out]) == 0
    doc = parse_lattice(open(out).read())
    assert len(doc.elements) == 12
    kout = str(tmp_path / "krn.yaml")
    assert main(["rn", "--rows", "1", "--kalmbach", "--out", kout]) == 0
    assert len(parse_lattice(open(kout).read()).elements) > 12


def test_rn_report_over_the_table_limit_exits_2(capsys):
    # K(rn 5) has 199,680 elements: 2 * n * ceil(n / 8) bytes of tables
    assert main(["rn", "--rows", "5", "--report"]) == 2
    err = capsys.readouterr().err
    assert "9968025600" in err and str(MAX_TABLE_BYTES) in err


def test_keller_subcommand_deterministic(tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert main(["keller", "--dim", "3", "--trials", "40", "--out", a]) == 0
    assert main(["keller", "--dim", "3", "--trials", "40", "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    text = open(a).read()
    assert "type(e0) = T(0)" in text
    assert "anisotropy_formula: pass" in text


def test_keller_report_seed_changes_samples():
    t1, ok1 = keller_report(3, seed=0, trials=20)
    t2, ok2 = keller_report(3, seed=1, trials=20)
    assert ok1 and ok2
    assert t1 != t2


KELLER_REPORT_3_0_100 = """\
ambient dimension: 3
type(e0) = T(0)
type(e1) = T(1)
type(e2) = T(2)
anisotropy_formula: pass (100 trials, 0 failures)
pi_complement_law: pass (100 trials, 0 failures)
pi-map table (sampled subspaces):
  sample 0: dim 3 -> {T(0) T(1) T(2)}
  sample 1: dim 0 -> {}
  sample 2: dim 0 -> {}
  sample 3: dim 3 -> {T(0) T(1) T(2)}
  sample 4: dim 1 -> {T(2)}
"""


def test_keller_report_golden_text():
    # pins every line, the sampled pi-map types included: a change of
    # representative that altered a type would show here
    text, ok = keller_report(3, seed=0, trials=100)
    assert ok
    assert text == KELLER_REPORT_3_0_100
