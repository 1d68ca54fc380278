"""Lattice text documents: parse, emit, validation, and Hasse-diagram export.

The on-disk format is a YAML mapping with the fields

    elements: [names...]
    covers: [[a, b], ...]
    perp: {a: b, ...}          # optional
    metadata: {key: value}     # optional, free-form

All names are treated as strings.  ``export_dot`` writes the Hasse diagram in
DOT format with covers as bottom-to-top directed edges; ``parse_lattice``
accepts both the YAML format and the DOT output, so exports round-trip.
YAML goes through PyYAML's libyaml classes when PyYAML was built with them,
and through its pure-Python ones otherwise; both give the same documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import NonTotalPerp, NotOML, ParseError, UnknownName
from .lattice import lattice_from_covers
from .ortho import ortholattice


@dataclass(frozen=True)
class LatticeDocument:
    """A validated lattice description: elements, covers, optional perp."""

    elements: tuple
    covers: tuple
    perp: tuple = None          # tuple of (name, name) pairs, or None
    metadata: tuple = ()        # tuple of (key, value) pairs

    def perp_map(self):
        return dict(self.perp) if self.perp is not None else None

    def metadata_map(self):
        return dict(self.metadata)


def _as_name(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _validate(elements, covers, perp, metadata):
    elements = tuple(_as_name(e) for e in elements)
    if len(set(elements)) != len(elements):
        dup = sorted(e for e in set(elements) if elements.count(e) > 1)[0]
        raise ParseError(0, f"duplicate element name {dup!r}")
    declared = set(elements)
    norm_covers = []
    for pair in covers:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(0, f"cover entry {pair!r} is not a pair")
        a, b = _as_name(pair[0]), _as_name(pair[1])
        for nm in (a, b):
            if nm not in declared:
                raise UnknownName(f"cover references undeclared name {nm!r}")
        norm_covers.append((a, b))
    norm_perp = None
    if perp is not None:
        if not isinstance(perp, dict):
            raise ParseError(0, "perp must be a mapping")
        pm = {_as_name(k): _as_name(v) for k, v in perp.items()}
        for k, v in pm.items():
            for nm in (k, v):
                if nm not in declared:
                    raise UnknownName(f"perp references undeclared name {nm!r}")
        missing = [e for e in elements if e not in pm]
        if missing:
            raise NonTotalPerp(f"perp missing for {missing[0]!r}")
        norm_perp = tuple((e, pm[e]) for e in elements)
    norm_meta = tuple(
        (_as_name(k), _as_name(v)) for k, v in (metadata or {}).items()
    )
    return LatticeDocument(elements, tuple(norm_covers), norm_perp, norm_meta)


def parse_lattice(text):
    """Parse a YAML lattice document (or re-import a DOT export)."""
    if text.lstrip().startswith("digraph"):
        return parse_dot(text)
    try:
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        data = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        line = getattr(getattr(exc, "problem_mark", None), "line", -1) + 1
        raise ParseError(line, str(exc).splitlines()[0]) from exc
    if not isinstance(data, dict):
        raise ParseError(0, "document must be a mapping")
    unknown = set(data) - {"elements", "covers", "perp", "metadata"}
    if unknown:
        raise ParseError(0, f"unknown field {sorted(unknown)[0]!r}")
    if "elements" not in data:
        raise ParseError(0, "missing field 'elements'")
    elements = data["elements"]
    if not isinstance(elements, list):
        raise ParseError(0, "'elements' must be a list")
    covers = data.get("covers") or []
    if not isinstance(covers, list):
        raise ParseError(0, "'covers' must be a list of pairs")
    return _validate(elements, covers, data.get("perp"), data.get("metadata"))


def emit_lattice(doc):
    """Serialize a LatticeDocument; parse(emit(doc)) == doc, byte-stable."""
    payload = {
        "elements": list(doc.elements),
        "covers": [list(p) for p in doc.covers],
    }
    if doc.perp is not None:
        payload["perp"] = dict(doc.perp)
    if doc.metadata:
        payload["metadata"] = dict(doc.metadata)
    return yaml.dump(
        payload, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper),
        sort_keys=False, default_flow_style=None, width=100000,
    )


def document_from_lattice(L, perp=None, metadata=()):
    """Build a document from a lattice-protocol object.

    ``L`` needs names, cover information and (optionally) a perp; works for
    BoundedLattice, OrthoLattice and KalmbachOML, whose names are built
    here once each.
    """
    if hasattr(L, "lattice"):      # OrthoLattice carries its own perp
        if perp is None:
            perp = L.perp_map()
        L = L.lattice
    names = tuple(L.names)
    if hasattr(L, "cover_matrix"):
        covers = tuple(
            (names[int(a)], names[int(b)])
            for a, b in np.argwhere(L.cover_matrix)
        )
    else:                           # KalmbachOML
        covers = _covers_from_protocol(L, names)
        if perp is None:
            perp = dict(zip(names, map(names.__getitem__,
                                       L.perp_idx.tolist())))
    covers = tuple(sorted(covers))
    perp_field = (
        tuple((nm, perp[nm]) for nm in names) if perp is not None else None
    )
    return LatticeDocument(names, covers, perp_field, tuple(metadata))


def _covers_from_protocol(K, names):
    """The pairs (a, b) of an orthomodular K with [a, b] = {a, b}.

    In an OML, a is covered by b iff p = b ^ a' is an atom; then b = a v p by
    the orthomodular law, and p is orthogonal to a, so (a v p) ^ a' = p.  So
    the covers are the (a, a v p) for each atom p and each a <= p', and each
    occurs once; ``names`` are K's names in id order.  Raises NotOML unless
    K has been found orthomodular.
    """
    if K.orthomodular is not True:
        raise NotOML("covers are read through atoms only in an orthomodular K")
    atoms = np.array(K.atoms_idx())
    ids = np.arange(K.n)
    out = []
    for p, below in zip(atoms, K.leq_batch(ids, K.perp_idx[atoms][:, None])):
        a = ids[below]
        b = K.join_batch(a, p)
        out += [(names[x], names[y]) for x, y in zip(a.tolist(), b.tolist())]
    return out


def build_lattice(doc):
    """Construct the BoundedLattice (and OrthoLattice when perp is given)."""
    L = lattice_from_covers(list(doc.elements), list(doc.covers))
    if doc.perp is None:
        return L, None
    return L, ortholattice(L, doc.perp_map())


# -- DOT export ----------------------------------------------------------


_DOT_ID = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _dot_quote(name):
    if _DOT_ID.fullmatch(name):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(doc):
    """The Hasse diagram as DOT text: deterministic node order, edges upward.

    Accepts a LatticeDocument or any lattice-protocol object (converted via
    :func:`document_from_lattice`).  Perp values, when present, are stored as
    node attributes so the export can be re-imported losslessly.
    """
    if not isinstance(doc, LatticeDocument):
        doc = document_from_lattice(doc)
    perp = doc.perp_map()
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for nm in doc.elements:
        attrs = f' [perp={_dot_quote(perp[nm])}]' if perp else ""
        lines.append(f"  {_dot_quote(nm)}{attrs};")
    for a, b in sorted(doc.covers):
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_TOKEN = r'(?:"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*)'
_DOT_NODE = re.compile(
    rf"^({_DOT_TOKEN})(?:\s*\[perp=({_DOT_TOKEN})\])?;$"
)
_DOT_EDGE = re.compile(rf"^({_DOT_TOKEN})\s*->\s*({_DOT_TOKEN});$")


def _dot_unquote(token):
    if token.startswith('"'):
        return re.sub(r"\\(.)", r"\1", token[1:-1])
    return token


def parse_dot(text):
    """Re-import the output of :func:`export_dot` as a LatticeDocument."""
    elements, covers, perp = [], [], {}
    lines = text.splitlines()
    if not lines or not lines[0].lstrip().startswith("digraph"):
        raise ParseError(1, "not a DOT digraph")
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line == "}" or line.startswith("rankdir"):
            continue
        m = _DOT_EDGE.match(line)
        if m:
            covers.append((_dot_unquote(m[1]), _dot_unquote(m[2])))
            continue
        m = _DOT_NODE.match(line)
        if m:
            nm = _dot_unquote(m[1])
            elements.append(nm)
            if m[2] is not None:
                perp[nm] = _dot_unquote(m[2])
            continue
        raise ParseError(lineno, f"unrecognized DOT line {line!r}")
    return _validate(elements, covers, perp or None, {})
