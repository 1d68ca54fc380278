"""Tests of the benchmark's own arithmetic and checking.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import spans  # noqa: E402
import verdicts  # noqa: E402
import worker  # noqa: E402


def test_coverage_merges_overlaps():
    assert spans.coverage([]) == 0
    assert spans.coverage([(5, 6), (0, 2), (1, 3)]) == 4
    assert spans.coverage([(0, 4), (1, 2)]) == 4


def test_self_times_of_nested_spans():
    synthetic = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 7.0, 2),
        ("c", 6.5, 6.75, 3),     # recursion: c inside c
    ]
    assert spans.self_times(synthetic) == [3.0, 3.0, 3.0, 0.75, 0.25]
    # self times partition the root span
    assert sum(spans.self_times(synthetic)) == 10.0


def test_pass_view_counts_recursion_once():
    raw = [("root", 0.0, 10.0, -1, "r"), ("c", 6.0, 7.0, 0, "r"),
           ("c", 6.5, 6.75, 1, "r"), ("c", 8.0, 8.5, 0, "r")]
    view = spans.PassView(list(enumerate(raw)), spans.Counter(c=2), 10.0)
    assert view.incl("c") == 1.5
    assert view.self_s("c") == 1.5
    assert view.self_s("root") == 8.5
    assert view.calls("c") == 5    # three spans plus two counted calls


def test_install_patches_every_binding():
    import omlkit.cli

    pkg = sys.modules["omlkit"]
    kmod = sys.modules["omlkit.kalmbach"]
    scalar = sys.modules["omlkit.hahn"].HahnScalar
    original = kmod.kalmbach
    add = scalar.__dict__["__add__"]
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        wrapped = kmod.kalmbach
        assert wrapped is not original
        for module in ("omlkit.cli", "omlkit.rn", "omlkit.corpus", "omlkit"):
            assert vars(sys.modules[module])["kalmbach"] is wrapped
        assert scalar.__dict__["__radd__"] is scalar.__dict__["__add__"]
        assert scalar.__dict__["__add__"] is not add
        tracer.begin_pass("t")
        scalar(1) + 2
        assert tracer.counts["t"]["hahn.scalar_add"] == 1
    finally:
        restore()
    assert omlkit.cli.kalmbach is original and pkg.kalmbach is original
    assert scalar.__dict__["__radd__"] is add


class _ReplayCli:
    """Stands in for omlkit.cli: prints a fixed text per argv[0]."""

    def __init__(self, texts):
        self.texts = texts

    def main(self, argv):
        rc, text = self.texts[argv[0]]
        sys.stdout.write(text)
        return rc


def _capture(argv):
    import omlkit.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = omlkit.cli.main(argv)
    return rc, buf.getvalue()


def _failed_share(texts):
    cli = _ReplayCli(texts)
    commands = [(k, [k], check) for k, check in _CHECKERS.items() if k in texts]
    passes = worker.run_passes(cli, lambda _: commands, seconds=0.0)
    return passes["failed"] / passes["attempted"]


_N5 = next(expected for key, _, expected in verdicts.corpus_expectations()
           if key == "L:N5")


def _n5_check(rc, text):
    return verdicts.check_report(_N5, rc, text)


_CHECKERS = {"check": _n5_check, "keller": verdicts.check_keller,
             "rn": verdicts.check_ladder}


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    from omlkit.corpus import pentagon
    from omlkit.latfile import document_from_lattice, emit_lattice

    path = tmp_path_factory.mktemp("docs") / "n5.yaml"
    path.write_text(emit_lattice(document_from_lattice(pentagon())))
    return {
        "check": _capture(["check", "--in", str(path), "--kalmbach"]),
        "keller": _capture(["keller", "--dim", "3", "--trials", "100"]),
        "rn": _capture(["rn", "--rows", "3", "--report"]),
    }


@pytest.mark.parametrize("key,old,new", [
    ("check", "\nmodular: fail", "\nmodular: pass"),
    ("keller", "(100 trials, 0 failures)", "(100 trials, 1 failures)"),
    ("rn", "covering2_truncated: True", "covering2_truncated: False"),
])
def test_flipped_verdict_raises_failed_share(captured, key, old, new):
    assert _failed_share(captured) == 0
    rc, text = captured[key]
    assert old in text
    flipped = dict(captured, **{key: (rc, text.replace(old, new, 1))})
    assert _failed_share(flipped) == pytest.approx(1 / 3)


def test_wrong_exit_code_is_a_failure(captured):
    rc, text = captured["keller"]
    assert verdicts.check_keller(rc, text) == []
    assert verdicts.check_keller(2, text) == ["exit code 2"]
