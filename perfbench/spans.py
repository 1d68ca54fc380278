"""In-memory spans and call counters wrapped around omlkit's public functions.

The traced benchmark run patches every binding of each target named in
``TARGETS`` (module globals, re-exports in other modules and the package, and
class attributes including aliases such as ``__radd__ = __add__``), because
``cli``, ``rn`` and ``keller`` import names directly and the ``KalmbachOML``
and ``HahnScalar`` methods are class attributes.  Untraced runs never import
this module.

A span is (name, start, end, parent, run id).  A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter

# (span name, "module:qualname", kind).  "span" records timed spans, "count"
# only counts calls, for functions called too often to time each call.
TARGETS = (
    ("cli.main", "omlkit.cli:main", "span"),
    ("kalmbach.kalmbach", "omlkit.kalmbach:kalmbach", "span"),
    ("kalmbach.order_check",
     "omlkit.kalmbach:KalmbachOML.check_order_against_definition", "span"),
    ("kalmbach.om_check", "omlkit.kalmbach:KalmbachOML.check_orthomodular",
     "span"),
    ("kalmbach.katoms_check", "omlkit.kalmbach:katoms_check", "span"),
    ("kalmbach.kblocks_check", "omlkit.kalmbach:kblocks_check", "span"),
    ("kalmbach.kcommute_check", "omlkit.kalmbach:kcommute_check", "span"),
    ("kalmbach.join_idx", "omlkit.kalmbach:KalmbachOML.join_idx", "count"),
    ("kalmbach.join_batch", "omlkit.kalmbach:KalmbachOML.join_batch", "count"),
    ("kalmbach.meet_batch", "omlkit.kalmbach:KalmbachOML.meet_batch", "count"),
    ("kalmbach.commutes_idx", "omlkit.kalmbach:KalmbachOML.commutes_idx",
     "count"),
    ("rn.rn_report", "omlkit.rn:rn_report", "span"),
    ("rn.classify_atoms", "omlkit.rn:classify_atoms", "span"),
    ("rn.central_elements", "omlkit.rn:central_elements", "span"),
    ("rn.noncommuting_atoms", "omlkit.rn:noncommuting_atoms", "span"),
    ("rn.claim1_join_check", "omlkit.rn:claim1_join_check", "span"),
    ("rn.covering_report", "omlkit.rn:covering_report", "span"),
    ("rn.row_shift_embedding_check", "omlkit.rn:row_shift_embedding_check",
     "span"),
    ("lattice.lattice_from_covers", "omlkit.lattice:lattice_from_covers",
     "span"),
    ("lattice.predicates", "omlkit.lattice:predicates", "span"),
    ("lattice.compactness_witness", "omlkit.lattice:compactness_witness",
     "span"),
    ("ortho.ortholattice", "omlkit.ortho:ortholattice", "span"),
    ("ortho.is_orthomodular", "omlkit.ortho:is_orthomodular", "span"),
    ("ortho.blocks", "omlkit.ortho:blocks", "span"),
    ("ortho.center", "omlkit.ortho:center", "span"),
    ("ortho.is_directly_irreducible", "omlkit.ortho:is_directly_irreducible",
     "span"),
    ("ortho.has_n_covering", "omlkit.ortho:has_n_covering", "span"),
    ("latfile.parse_lattice", "omlkit.latfile:parse_lattice", "span"),
    ("latfile.build_lattice", "omlkit.latfile:build_lattice", "span"),
    ("hahn.scalar_new", "omlkit.hahn:HahnScalar.__init__", "count"),
    ("hahn.scalar_add", "omlkit.hahn:HahnScalar.__add__", "count"),
    ("hahn.scalar_mul", "omlkit.hahn:HahnScalar.__mul__", "count"),
    ("hahn.series_gcd", "omlkit.hahn:series_gcd", "span"),
    ("hahn.series_ratio", "omlkit.hahn:series_ratio", "span"),
    ("hahn.on_ring", "omlkit.hahn:_on_ring", "span"),
    ("keller.form", "omlkit.keller:form", "span"),
    ("keller.anisotropy_check", "omlkit.keller:anisotropy_check", "span"),
    ("keller.type_of", "omlkit.keller:type_of", "count"),
    ("keller.orthogonalize", "omlkit.keller:orthogonalize", "span"),
    ("keller.pi_map", "omlkit.keller:pi_map", "span"),
    ("keller.ortho_complement", "omlkit.keller:ortho_complement", "span"),
)

# On ladder, the self time of these span families should account for a
# pass's wall time; ``unaccounted_s`` reports the remainder.
_LADDER_LAYERS = ("kalmbach.", "rn.")

_ATOM_CLAIMS = ("rn.noncommuting_atoms", "rn.claim1_join_check",
                "lattice.compactness_witness")

# Per-layer metric -> (unit, better, end-to-end metric and workload it should
# move).  Time metrics are the union of a span family's intervals in a pass,
# so recursion and nesting are not counted twice; "self" metrics subtract
# child coverage.  Every value is the median over the passes of a run.
LAYER_METRICS = {
    "kalmbach.build_s": ("s", "lower", "wall_s, peak_rss_mb on ladder"),
    "kalmbach.build_self_s": ("s", "lower", "wall_s, peak_rss_mb on ladder"),
    "kalmbach.order_check_s": ("s", "lower", "wall_s on ladder"),
    "kalmbach.om_check_s": ("s", "lower", "wall_s on ladder"),
    "kalmbach.join_idx_calls": ("count", "lower", "wall_s on ladder"),
    "kalmbach.join_batch_calls": ("count", "lower", "wall_s on ladder"),
    "kalmbach.meet_batch_calls": ("count", "lower", "wall_s on ladder"),
    "kalmbach.elements": ("count", "lower", "wall_s, peak_rss_mb on ladder"),
    "kalmbach.table_bytes": ("bytes-computed", "lower",
                             "peak_rss_mb on ladder"),
    "kalmbach.kcommute_check_s": ("s", "lower", "wall_s on corpus"),
    "kalmbach.kblocks_check_s": ("s", "lower", "wall_s on corpus"),
    "kalmbach.katoms_check_s": ("s", "lower", "wall_s on corpus"),
    "kalmbach.commutes_idx_calls": ("count", "lower", "wall_s on corpus"),
    "rn.report_self_s": ("s", "lower", "wall_s on ladder"),
    "rn.classify_atoms_s": ("s", "lower", "wall_s on ladder"),
    "rn.central_elements_s": ("s", "lower", "wall_s on ladder"),
    "rn.atom_claims_s": ("s", "lower", "wall_s on ladder"),
    "rn.covering_report_s": ("s", "lower", "wall_s on ladder"),
    "rn.embedding_check_s": ("s", "lower", "wall_s on ladder"),
    "lattice.lattice_from_covers_s": ("s", "lower", "wall_s on corpus"),
    "lattice.predicates_s": ("s", "lower", "wall_s on corpus"),
    "lattice.compactness_witness_s": ("s", "lower", "wall_s on corpus"),
    "ortho.ortholattice_s": ("s", "lower", "wall_s on corpus"),
    "ortho.is_orthomodular_s": ("s", "lower", "wall_s on corpus"),
    "ortho.blocks_s": ("s", "lower", "wall_s on corpus"),
    "ortho.center_s": ("s", "lower", "wall_s on corpus"),
    "ortho.is_directly_irreducible_s": ("s", "lower", "wall_s on corpus"),
    "ortho.has_n_covering_s": ("s", "lower", "wall_s on corpus"),
    "latfile.parse_lattice_s": ("s", "lower", "wall_s on corpus"),
    "latfile.build_lattice_s": ("s", "lower", "wall_s on corpus"),
    "cli.self_s": ("s", "lower", "wall_s on corpus"),
    "hahn.scalar_new_calls": ("count", "lower", "wall_s on keller only"),
    "hahn.scalar_add_calls": ("count", "lower", "wall_s on keller only"),
    "hahn.scalar_mul_calls": ("count", "lower", "wall_s on keller only"),
    "hahn.series_gcd_calls": ("count", "lower", "wall_s on keller only"),
    "hahn.series_gcd_s": ("s", "lower", "wall_s on keller only"),
    "hahn.series_ratio_calls": ("count", "lower", "wall_s on keller only"),
    "hahn.series_ratio_s": ("s", "lower", "wall_s on keller only"),
    "hahn.on_ring_calls": ("count", "lower", "wall_s on keller only"),
    "hahn.on_ring_s": ("s", "lower", "wall_s on keller only"),
    "keller.form_calls": ("count", "lower", "wall_s on keller only"),
    "keller.form_s": ("s", "lower", "wall_s on keller only"),
    "keller.anisotropy_check_s": ("s", "lower", "wall_s on keller only"),
    "keller.type_of_calls": ("count", "lower", "wall_s on keller only"),
    "keller.orthogonalize_s": ("s", "lower", "wall_s on keller only"),
    "keller.pi_map_s": ("s", "lower", "wall_s on keller only"),
    "keller.ortho_complement_s": ("s", "lower", "wall_s on keller only"),
    "unaccounted_s": ("s", "lower",
                      "pass wall minus self time of kalmbach and rn spans"),
    "trace_overhead_s": ("s", "lower", "traced minus untraced wall_s"),
}


class Tracer:
    """Spans and call counts of the current pass, kept in memory."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, run id]
        self.counts = {}    # run id -> Counter of call counts
        self._stack = []
        self._run = None
        self._counter = Counter()

    def begin_pass(self, run_id):
        self._run = run_id
        self._counter = self.counts.setdefault(run_id, Counter())

    def add(self, name, amount=1):
        self._counter[name] += amount

    def span(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._run]
            spans.append(record)
            stack.append(idx)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counter[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def save(self, path):
        """Write every span as a gzipped CSV row."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("run_id,span_id,parent,name,start,end\n")
            for idx, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{run},{idx},{parent},{name},{start:.9f},{end:.9f}\n")


def _note_kalmbach(tracer, K):
    n = K.n
    tracer.add("kalmbach.elements", n)
    tracer.add("kalmbach.table_bytes", 2 * n * ((n + 7) // 8))


_ON_RESULT = {"kalmbach.kalmbach": _note_kalmbach}


def _resolve(target):
    module, qualname = target.split(":")
    obj = sys.modules[module]
    for part in qualname.split("."):
        obj = inspect.getattr_static(obj, part)
    return obj


def _bindings(original):
    """Every (owner, attribute) of a loaded omlkit module bound to original."""
    found = []
    for modname, module in list(sys.modules.items()):
        if module is None or modname.split(".")[0] != "omlkit":
            continue
        for attr, value in vars(module).items():
            if value is original:
                found.append((module, attr))
            elif isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    if cvalue is original:
                        found.append((value, cattr))
    return found


def install(tracer):
    """Patch every binding of each target; returns a function that undoes it."""
    undo = []
    for name, target, kind in TARGETS:
        original = _resolve(target)
        if kind == "span":
            wrapper = tracer.span(name, original, _ON_RESULT.get(name))
        else:
            wrapper = tracer.counter(name, original)
        bindings = _bindings(original)
        if not bindings:
            raise LookupError(f"no binding of {target} to patch")
        for owner, attr in bindings:
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# -- span arithmetic ----------------------------------------------------------


def coverage(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus its children's coverage.

    ``spans`` is a list of (name, start, end, parent index) records whose
    parent indices point into the same list (-1 for a root).
    """
    children = {}
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        (span[2] - span[1]) - coverage(children.get(idx, ()))
        for idx, span in enumerate(spans)
    ]


class PassView:
    """Span and count aggregates of one pass."""

    def __init__(self, spans, counts, wall):
        # re-index parents into this pass's list
        where = {}
        local = []
        for idx, span in spans:
            where[idx] = len(local)
            local.append((span[0], span[1], span[2], where.get(span[3], -1)))
        self.spans = local
        self.selfs = self_times(local)
        self.counts = counts
        self.wall = wall

    def incl(self, *names):
        return coverage([(s[1], s[2]) for s in self.spans if s[0] in names])

    def self_s(self, name):
        return sum(t for s, t in zip(self.spans, self.selfs) if s[0] == name)

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name) + self.counts[name]

    def layer_self_s(self, prefixes):
        return sum(t for s, t in zip(self.spans, self.selfs)
                   if s[0].startswith(prefixes))


def pass_metrics(view):
    """Every per-layer metric except trace_overhead_s, for one pass."""
    v = view
    return {
        "kalmbach.build_s": v.incl("kalmbach.kalmbach"),
        "kalmbach.build_self_s": v.self_s("kalmbach.kalmbach"),
        "kalmbach.order_check_s": v.incl("kalmbach.order_check"),
        "kalmbach.om_check_s": v.incl("kalmbach.om_check"),
        "kalmbach.join_idx_calls": v.calls("kalmbach.join_idx"),
        "kalmbach.join_batch_calls": v.calls("kalmbach.join_batch"),
        "kalmbach.meet_batch_calls": v.calls("kalmbach.meet_batch"),
        "kalmbach.elements": v.counts["kalmbach.elements"],
        "kalmbach.table_bytes": v.counts["kalmbach.table_bytes"],
        "kalmbach.kcommute_check_s": v.incl("kalmbach.kcommute_check"),
        "kalmbach.kblocks_check_s": v.incl("kalmbach.kblocks_check"),
        "kalmbach.katoms_check_s": v.incl("kalmbach.katoms_check"),
        "kalmbach.commutes_idx_calls": v.calls("kalmbach.commutes_idx"),
        "rn.report_self_s": v.self_s("rn.rn_report"),
        "rn.classify_atoms_s": v.incl("rn.classify_atoms"),
        "rn.central_elements_s": v.incl("rn.central_elements"),
        "rn.atom_claims_s": v.incl(*_ATOM_CLAIMS),
        "rn.covering_report_s": v.incl("rn.covering_report"),
        "rn.embedding_check_s": v.incl("rn.row_shift_embedding_check"),
        "lattice.lattice_from_covers_s": v.incl("lattice.lattice_from_covers"),
        "lattice.predicates_s": v.incl("lattice.predicates"),
        "lattice.compactness_witness_s": v.incl("lattice.compactness_witness"),
        "ortho.ortholattice_s": v.incl("ortho.ortholattice"),
        "ortho.is_orthomodular_s": v.incl("ortho.is_orthomodular"),
        "ortho.blocks_s": v.incl("ortho.blocks"),
        "ortho.center_s": v.incl("ortho.center"),
        "ortho.is_directly_irreducible_s":
            v.incl("ortho.is_directly_irreducible"),
        "ortho.has_n_covering_s": v.incl("ortho.has_n_covering"),
        "latfile.parse_lattice_s": v.incl("latfile.parse_lattice"),
        "latfile.build_lattice_s": v.incl("latfile.build_lattice"),
        "cli.self_s": v.self_s("cli.main"),
        "hahn.scalar_new_calls": v.calls("hahn.scalar_new"),
        "hahn.scalar_add_calls": v.calls("hahn.scalar_add"),
        "hahn.scalar_mul_calls": v.calls("hahn.scalar_mul"),
        "hahn.series_gcd_calls": v.calls("hahn.series_gcd"),
        "hahn.series_gcd_s": v.incl("hahn.series_gcd"),
        "hahn.series_ratio_calls": v.calls("hahn.series_ratio"),
        "hahn.series_ratio_s": v.incl("hahn.series_ratio"),
        "hahn.on_ring_calls": v.calls("hahn.on_ring"),
        "hahn.on_ring_s": v.incl("hahn.on_ring"),
        "keller.form_calls": v.calls("keller.form"),
        "keller.form_s": v.incl("keller.form"),
        "keller.anisotropy_check_s": v.incl("keller.anisotropy_check"),
        "keller.type_of_calls": v.calls("keller.type_of"),
        "keller.orthogonalize_s": v.incl("keller.orthogonalize"),
        "keller.pi_map_s": v.incl("keller.pi_map"),
        "keller.ortho_complement_s": v.incl("keller.ortho_complement"),
        "unaccounted_s": v.wall - v.layer_self_s(_LADDER_LAYERS),
    }


def layer_metrics(tracer, pass_walls):
    """Median over passes of every per-layer metric but trace_overhead_s.

    ``pass_walls`` maps each run id to the timed wall seconds of that pass.
    """
    by_run = {run: [] for run in pass_walls}
    for idx, span in enumerate(tracer.spans):
        by_run[span[4]].append((idx, span))
    per_pass = [
        pass_metrics(PassView(by_run[run], tracer.counts.get(run, Counter()),
                              wall))
        for run, wall in pass_walls.items()
    ]
    return {name: statistics.median(p[name] for p in per_pass)
            for name in per_pass[0]}
