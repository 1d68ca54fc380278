import gc
import hashlib

import pytest
import yaml

from omlkit.cli import keller_report, main, run_checks
from omlkit.corpus import (
    benzene_ortholattice,
    chain,
    lattice_corpus,
    mo,
    pentagon,
)
from omlkit.kalmbach import DEFAULT_K_CAP, kalmbach
from omlkit.lattice import BoundedLattice, covers, find_isomorphism
from omlkit.latfile import (
    build_lattice,
    document_from_lattice,
    emit_lattice,
    export_dot,
    parse_dot,
    parse_lattice,
)
from omlkit.errors import NonTotalPerp, ParseError, UnknownName
from omlkit.rn import rn_lattice


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


def _hide_libyaml(monkeypatch):
    """Hide PyYAML's libyaml classes, as on a PyYAML built without them."""
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    monkeypatch.delattr(yaml, "CSafeDumper", raising=False)


_BAD_YAML = ("elements: [a, b\n", "covers: []\n",
             "elements: [a]\nunknown_field: 1\n",
             'elements: ["a\\q"]\n', "elements: ['a]\n", "a: b: c\n")


def _parse_error_lines():
    """ParseError line numbers; libyaml words some reasons differently."""
    out = []
    for text in _BAD_YAML:
        with pytest.raises(ParseError) as info:
            parse_lattice(text)
        out.append(info.value.line)
    return out


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
def test_libyaml_and_pure_python_agree(corpus, omls, kalmbach_corpus,
                                       monkeypatch):
    docs = [document_from_lattice(L) for L in (
        *corpus.values(), *omls.values(), *kalmbach_corpus.values())]
    texts = [emit_lattice(d) for d in docs]
    parsed = [parse_lattice(t) for t in texts]
    lines = _parse_error_lines()
    _hide_libyaml(monkeypatch)
    assert [emit_lattice(d) for d in docs] == texts
    assert [parse_lattice(t) for t in texts] == parsed == docs
    assert _parse_error_lines() == lines == [2, 0, 0, 1, 2, 1]


def test_pure_python_yaml_fallback(monkeypatch, corpus):
    _hide_libyaml(monkeypatch)
    for L in corpus.values():
        doc = document_from_lattice(L)
        assert parse_lattice(emit_lattice(doc)) == doc
    assert _parse_error_lines() == [2, 0, 0, 1, 2, 1]


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


def test_check_kalmbach_builds_no_dense_k_tables(corpus, monkeypatch):
    # the only table-backed lattice on the check --kalmbach path is the base:
    # the K checks answer through K's own queries
    calls, from_leq = [], BoundedLattice.from_leq

    def counted(cls, names, leq, **kwargs):
        calls.append(len(names))
        return from_leq(names, leq, **kwargs)

    monkeypatch.setattr(BoundedLattice, "from_leq", classmethod(counted))
    for nm, L in corpus.items():
        doc = parse_lattice(_doc_text(L))
        report = run_checks(doc, with_kalmbach=True)
        assert calls == [L.n], nm
        assert ("kblocks", True, ()) in report.entries, nm
        calls.clear()


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


def test_unreadable_input_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.yaml")
    assert main(["check", "--in", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing}: ")
    assert "Traceback" not in err


def test_unwritable_output_exits_2(write, tmp_path, capsys):
    m2 = write("m2.yaml", _doc_text(mo(1)))
    out = str(tmp_path / "no_such_dir" / "out.txt")
    assert main(["check", "--in", m2, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


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
    ladders = {f"rn{r}": kalmbach(rn_lattice(r)) for r in (1, 2)}
    assert [K.n for K in ladders.values()] == [64, 480]
    for nm, K in {**kalmbach_corpus, **ladders}.items():
        want = tuple(sorted(covers(K.as_ortholattice().lattice)))
        got = document_from_lattice(K).covers
        assert len(set(got)) == len(got), nm  # no cover found twice
        assert got == want, nm


_ONE_ELEMENT = 'elements: ["0"]\ncovers: []\n'


def test_one_element_lattice_has_no_kalmbach(write, tmp_path, capsys):
    # K(L) needs 0 < 1; both commands report that instead of crashing
    one = write("one.yaml", _ONE_ELEMENT)
    out = str(tmp_path / "out.txt")
    for argv in (["kalmbach", "--in", one], ["check", "--in", one, "--kalmbach"]):
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: K(L) needs a bottom strictly below"), argv


def test_one_element_lattice_still_checks(write, capsys):
    one = write("one.yaml", _ONE_ELEMENT)
    assert main(["check", "--in", one]) == 0
    labels = ("lattice", "modular", "semimodular", "dual_semimodular",
              "covering", "atomic", "atomistic", "weakly_atomic",
              "strongly_atomic", "distributive", "complemented",
              "relatively_complemented")
    assert capsys.readouterr().out == "".join(f"{x}: pass\n" for x in labels)


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
    # K(rn 6) would have 1,490,432 elements, over the default cap
    assert main(["rn", "--rows", "6", "--report"]) == 2
    err = capsys.readouterr().err
    assert "1490432" in err and str(DEFAULT_K_CAP) in err


def test_rn_report_exits_1_when_a_claim_fails(rn3, monkeypatch, tmp_path):
    import copy

    import omlkit.cli as cli
    from omlkit.rn import rn_report

    report = rn_report(3, K=rn3[1])
    out = str(tmp_path / "report.txt")
    monkeypatch.setattr(cli, "rn_report", lambda rows: report)
    # covering1 is False on the ladder by design and is no failed claim
    assert report["covering1"] is False
    assert main(["rn", "--rows", "3", "--report", "--out", out]) == 0
    flips = [(key,) for key in ("is_orthomodular", "is_directly_irreducible",
                                "embedding_check", "covering2_truncated")]
    for i, entry in enumerate(report["atom_claims"]):
        flips += [("atom_claims", i, key) for key in
                  ("count_ok", "witness_ok", "pairwise_joins_dominate")
                  if key in entry]
    assert len(flips) > 7
    for path in flips:
        bad = copy.deepcopy(report)
        target = bad
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = False
        monkeypatch.setattr(cli, "rn_report", lambda rows, bad=bad: bad)
        assert main(["rn", "--rows", "3", "--report", "--out", out]) == 1, path


def test_keller_subcommand_deterministic(tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert main(["keller", "--dim", "3", "--trials", "40", "--out", a]) == 0
    assert main(["keller", "--dim", "3", "--trials", "40", "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    text = open(a).read()
    assert "type(e0) = T(0)" in text
    assert "anisotropy_formula: pass" in text


def test_keller_has_no_report_flag(capsys):
    # the keller report is the subcommand's only output
    with pytest.raises(SystemExit) as exc:
        main(["keller", "--dim", "2", "--report"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --report" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--dim", "0"],
    ["--dim", "-1"],
    ["--dim", "3", "--trials", "0"],
    ["--dim", "3", "--trials", "-2"],
])
def test_keller_rejects_a_nonpositive_dim_or_trial_count(
        args, monkeypatch, capsys):
    # a 0-dimensional slice has no nonzero vector to draw, and 0 or fewer
    # trials would print a vacuous pass; argparse rejects both before any
    # report work starts
    def no_report(*a, **kw):
        raise AssertionError("keller_report ran")

    monkeypatch.setattr("omlkit.cli.keller_report", no_report)
    with pytest.raises(SystemExit) as exc:
        main(["keller", *args])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


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


KELLER_REPORT_DIGESTS = {
    (2, 100, 0):
        "dd9f706f4c6bebfa1fd4dfb4a1a73e5331da98305e72e2afd9cffb1a4a16de17",
    (2, 100, 1):
        "1e8ad434b6e75d1fe73d28b8b3390fe7746f385eaf69c17abe51932af1aa051d",
    (3, 100, 1):
        "149e3fa3dc6a8a469d84949b24a11fc8d2de7d6d2ac18d25a070fe2418812fe3",
    (4, 50, 0):
        "1695d5636609d39c78a91ec51c1fe4d3cc7706b32fc6d07008fc95761a42947f",
    (4, 50, 1):
        "f82a3fcb910b19be8d3f61bc1f8500d853814d832f7a1f64fdaf203aecc20ecc",
}


@pytest.mark.parametrize("dim, trials, seed", sorted(KELLER_REPORT_DIGESTS))
def test_keller_report_digests(dim, trials, seed):
    # pins the report at the other dimensions and seeds by digest, so a
    # change of series representation must leave every line as it was
    text, ok = keller_report(dim, seed=seed, trials=trials)
    assert ok
    assert hashlib.sha256(text.encode()).hexdigest() == (
        KELLER_REPORT_DIGESTS[dim, trials, seed])


RN_REPORT_3 = """\
rows: 3
base_size: 16
k_size: 3584
k_atoms: 21
max_chains: 21
is_orthomodular: True
orthomodular_witness: None
center: ['()', '(a01,1)', '(a01,a32)', '(a01,a32,a33,1)', '(a01,a33)', '(a32,1)', '(a32,a33)', '(a33,1)']
center_artifacts: ['(a01,a32)', '(a01,a32,a33,1)', '(a01,a33)', '(a32,1)', '(a32,a33)', '(a33,1)']
is_directly_irreducible: True
is_directly_irreducible_unrestricted: False
atom_counts: internal=5 external=10 exceptional=5 boundary=13
atom_claims:
  atom=(a11,a12) role=internal noncommuting=4 count_ok=True pairwise_joins_dominate=True witness=('(a02,a03)', '(a03,a12)') witness_ok=True
  atom=(a03,a12) role=external noncommuting=6 count_ok=True witness=('(a02,a11)', '(a11,a12)') witness_ok=True
  atom=(a12,a13) role=external noncommuting=6 count_ok=True witness=('(a12,a21)', '(a21,a22)') witness_ok=True
embedding_check: True
covering1: False
covering1_witness: ('(a01,a10)', '(a02,a03)')
covering1_truncated: False
covering1_truncated_witness: ('(a01,a10)', '(a02,a03)')
covering2: True
covering2_witness: None
covering2_truncated: True
covering2_truncated_witness: None
"""


def test_rn_report_golden_text(capsys):
    # pins the whole ladder report: every verdict, count and least witness
    assert main(["rn", "--rows", "3", "--report"]) == 0
    assert capsys.readouterr().out == RN_REPORT_3


def test_rn_report_rows4_digest(capsys):
    # pins the whole rows 4 report, as the golden text pins rows 3
    assert main(["rn", "--rows", "4", "--report"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "c9085dba5a619787f907aa96a75da95ebaed81cc1fe0fb0f9b05dca8f1dd9273")


def test_rn_kalmbach_golden_digest(capsys):
    # pins the emitted K(rn 2), its elements in id order among the rest
    assert main(["rn", "--rows", "2", "--kalmbach"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 128_248
    assert hashlib.sha256(out).hexdigest() == (
        "82c7c808c5243dbef5fab2aa6aaa028276bea9cb64644b166b8154036cc99f2d")


@pytest.mark.parametrize("argv", [
    ["keller", "--dim", "2", "--trials", "3"],
    ["rn", "--rows", "3", "--report"],
    ["check", "--in", "{base}", "--kalmbach"],
])
def test_a_repeated_command_leaves_no_garbage_cycle(argv, write, capsys):
    # a cycle would keep its objects alive until a full collection, so a
    # process that runs many commands would grow its resident set; the
    # first call may build what a process keeps, such as the parser
    base = write("m2xc2.yaml", _doc_text(lattice_corpus()["M2xC2"]))
    argv = [a.format(base=base) for a in argv]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()
