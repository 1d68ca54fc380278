"""Command-line surface: lattice file I/O, property reports, constructions.

Subcommands: check, kalmbach, rn, hs, product, keller, dot.  All read stdin
or ``--in FILE`` and write stdout or ``--out FILE``.  Exit codes: 0 = all
checks pass, 1 = some check reported false, 2 = structural error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, fields

from .errors import OmlkitError
from .kalmbach import (
    DEFAULT_K_CAP,
    kalmbach,
    katoms_check,
    kblocks_check,
    kcommute_check,
)
from .keller import keller_report
from .latfile import (
    build_lattice,
    document_from_lattice,
    emit_lattice,
    export_dot,
    parse_lattice,
)
from .ortho import (
    blocks,
    center,
    has_n_covering,
    horizontal_sum,
    is_directly_irreducible,
    is_orthomodular,
    product,
)
from .lattice import predicates
from .rn import rn_lattice, rn_report


@dataclass(frozen=True)
class Report:
    """An ordered list of (check-name, verdict, witness-or-empty) triples."""

    entries: tuple

    @property
    def all_pass(self):
        return all(v for _, v, _ in self.entries)

    def render(self):
        lines = []
        for name, verdict, witness in self.entries:
            tail = f"  ({', '.join(witness)})" if witness else ""
            lines.append(f"{name}: {'pass' if verdict else 'fail'}{tail}")
        return "\n".join(lines) + "\n"


def run_checks(doc, with_kalmbach=False):
    """Run every checker over a document, in fixed order, as a Report.

    Order: lattice validation, predicates, ortho validation (when perp is
    present), orthomodularity, blocks/center/irreducibility, n-covering for
    n in {1, 2}, and the Kalmbach pipeline when requested.  Structural
    failures of the lattice itself propagate as exceptions (exit code 2);
    everything downstream is reported as pass/fail triples.
    """
    entries = []
    L, OL = build_lattice(doc)
    entries.append(("lattice", True, ()))
    preds = predicates(L)
    for attr in (f.name for f in fields(preds) if f.name != "witnesses"):
        entries.append((attr.split("_", 1)[1], getattr(preds, attr),
                        preds.witnesses.get(attr, ())))
    if OL is not None:
        entries.append(("ortholattice", True, ()))
        om_ok, om_w = is_orthomodular(OL)
        entries.append(("orthomodular", om_ok, tuple(om_w) if om_w else ()))
        if om_ok:
            blks = blocks(OL)
            entries.append(("blocks", True, (str(len(blks)),)))
            entries.append(("center", True, tuple(sorted(center(OL)))))
            entries.append(
                ("directly_irreducible", is_directly_irreducible(OL), ())
            )
        for n in (1, 2):
            ok, w = has_n_covering(OL, n)
            entries.append((f"covering_{n}", ok, tuple(w) if w else ()))
    if with_kalmbach:
        K = kalmbach(L)
        entries.append(("k_orthomodular", K.orthomodular,
                        tuple(K.orthomodular_witness or ())))
        entries.append(("katoms", katoms_check(K), ()))
        entries.append(("kblocks", kblocks_check(K), ()))
        entries.append(("kcommute", kcommute_check(K), ()))
    return Report(tuple(entries))


# -- rn report ---------------------------------------------------------


def render_rn_report(report):
    """Deterministic text rendering of an rn_report dict."""
    lines = []
    for key, value in report.items():
        if key == "atom_claims":
            lines.append("atom_claims:")
            for entry in value:
                bits = " ".join(f"{k}={entry[k]}" for k in entry)
                lines.append(f"  {bits}")
        elif isinstance(value, dict):
            inner = " ".join(f"{k}={v}" for k, v in value.items())
            lines.append(f"{key}: {inner}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _rn_claims_hold(report):
    """Whether every claim of an rn_report dict holds.

    ``covering1`` is not a claim: the ladder is expected to fail 1-covering.
    """
    keys = ("is_orthomodular", "is_directly_irreducible", "embedding_check",
            "covering2_truncated")
    claims = ("count_ok", "witness_ok", "pairwise_joins_dominate")
    return all(report[k] for k in keys) and all(
        entry.get(c, True) for entry in report["atom_claims"] for c in claims)


# -- argument plumbing ---------------------------------------------------


def _read(path):
    if path is None:
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OmlkitError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OmlkitError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _add_io(p, multi_in=False):
    if multi_in:
        p.add_argument("--in", dest="inputs", action="append", required=True,
                       metavar="FILE", help="input lattice file (repeatable)")
    else:
        p.add_argument("--in", dest="input", metavar="FILE",
                       help="input lattice file (default: stdin)")
    p.add_argument("--out", dest="output", metavar="FILE",
                   help="output file (default: stdout)")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _parser():
    """The argument parser, built once per process: argparse trees are
    reference cycles, so a tree per call would be garbage for the collector."""
    p = argparse.ArgumentParser(prog="omlkit")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run all property checks on a lattice file")
    _add_io(c)
    c.add_argument("--kalmbach", action="store_true",
                   help="also run the Kalmbach pipeline checks")

    k = sub.add_parser("kalmbach", help="emit K(L) of the input lattice")
    _add_io(k)

    r = sub.add_parser("rn", help="ladder truncation lattices and reports")
    r.add_argument("--rows", type=int, required=True)
    r.add_argument("--kalmbach", action="store_true",
                   help="emit K of the truncation instead of the base; a K "
                        f"of more than {DEFAULT_K_CAP} elements (rows >= 6) "
                        "raises")
    r.add_argument("--report", action="store_true",
                   help="emit the structure report (implies --kalmbach, "
                        "with its size limit)")
    r.add_argument("--out", dest="output", metavar="FILE")

    h = sub.add_parser("hs", help="horizontal sum of ortholattice files")
    _add_io(h, multi_in=True)

    pr = sub.add_parser("product", help="product of ortholattice files")
    _add_io(pr, multi_in=True)

    ke = sub.add_parser("keller", help="Hermitian-space type/pi report")
    ke.add_argument("--dim", type=_positive_int, required=True)
    ke.add_argument("--seed", type=int, default=0)
    ke.add_argument("--trials", type=_positive_int, default=1000)
    ke.add_argument("--out", dest="output", metavar="FILE")

    d = sub.add_parser("dot", help="export the Hasse diagram as DOT")
    _add_io(d)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except OmlkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args):
    if args.command == "check":
        doc = parse_lattice(_read(args.input))
        report = run_checks(doc, with_kalmbach=args.kalmbach)
        _write(args.output, report.render())
        return 0 if report.all_pass else 1

    if args.command == "kalmbach":
        doc = parse_lattice(_read(args.input))
        L, _ = build_lattice(doc)
        _write(args.output, emit_lattice(document_from_lattice(kalmbach(L))))
        return 0

    if args.command == "rn":
        if args.report:
            report = rn_report(args.rows)
            _write(args.output, render_rn_report(report))
            return 0 if _rn_claims_hold(report) else 1
        base = rn_lattice(args.rows)
        obj = kalmbach(base) if args.kalmbach else base
        _write(args.output, emit_lattice(document_from_lattice(obj)))
        return 0

    if args.command in ("hs", "product"):
        oms = []
        for path in args.inputs:
            _, OL = build_lattice(parse_lattice(_read(path)))
            if OL is None:
                raise OmlkitError(f"{path}: document has no perp field")
            oms.append(OL)
        combined = horizontal_sum(oms) if args.command == "hs" else product(oms)
        _write(args.output, emit_lattice(document_from_lattice(combined)))
        return 0

    if args.command == "keller":
        text, ok = keller_report(args.dim, seed=args.seed, trials=args.trials)
        _write(args.output, text)
        return 0 if ok else 1

    if args.command == "dot":
        doc = parse_lattice(_read(args.input))
        _write(args.output, export_dot(doc))
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
