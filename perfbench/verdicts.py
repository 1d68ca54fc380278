"""Hand-written expected verdicts for every benchmark command.

None of these values is taken from omlkit's output.  The ladder counts come
from the cover definition of rn_lattice: 4·rows + 4 base elements, one atom
of K per Hasse edge, one maximal chain per bottom-to-top Hasse path, and one
element of K per even-length chain of the base (26,752 at rows = 4, 3,584 at
rows = 3).  The verdicts are the source paper's claims and textbook facts.

Each checker takes (exit code, stdout text) and returns a list of problems;
an empty list means the command's output is correct.
"""

from __future__ import annotations

import re

LADDER_ROWS = 3

# The paper's claims for K(rn_lattice(rows)) plus counts fixed by the base.
LADDER_EXPECTED = {
    "rows": "3",
    "base_size": "16",        # 4 * rows + 4
    "k_size": "3584",         # even-length chains of the base
    "k_atoms": "21",          # Hasse edges of the base
    "max_chains": "21",       # bottom-to-top Hasse paths of the base
    "is_orthomodular": "True",
    "orthomodular_witness": "None",
    "is_directly_irreducible": "True",
    "embedding_check": "True",
    # 1-covering fails away from the artificial top, 2-covering holds there
    "covering1": "False",
    "covering1_truncated": "False",
    "covering2_truncated": "True",
    "covering2_truncated_witness": "None",
}

# Non-commuting atoms of an internal / external atom (the paper's counts).
LADDER_NONCOMMUTING = {"internal": "4", "external": "6"}

KELLER_DIM = 3
KELLER_TRIALS = 100
KELLER_SEED = 0

KELLER_EXPECTED_LINES = (
    f"ambient dimension: {KELLER_DIM}",
    # <e_i, e_i> = t_i has valuation delta_i, whose class is T(i)
    *(f"type(e{i}) = T({i})" for i in range(KELLER_DIM)),
    f"anisotropy_formula: pass ({KELLER_TRIALS} trials, 0 failures)",
    f"pi_complement_law: pass ({KELLER_TRIALS} trials, 0 failures)",
)

# `check --kalmbach` on each lattice_corpus() base: K(L) is an OML whose
# atoms, blocks and commutation follow the paper's structure theorems.
KALMBACH_THEOREMS = {
    "lattice": True,
    "k_orthomodular": True,
    "katoms": True,
    "kblocks": True,
    "kcommute": True,
}

_DISTRIBUTIVE = {"modular": True, "distributive": True}
_MODULAR_ONLY = {"modular": True, "distributive": False}

# Textbook facts per lattice_corpus() base, on top of KALMBACH_THEOREMS.
LATTICE_FACTS = {
    **{f"C{k}": _DISTRIBUTIVE for k in range(2, 9)},     # chains
    "M2": _DISTRIBUTIVE,                                 # M2 is 2^2
    **{f"M{k}": _MODULAR_ONLY for k in range(3, 7)},     # diamonds M3..M6
    "N5": {"modular": False, "distributive": False},     # the pentagon
    "O6": {"modular": False},                            # contains N5
    "2^3": _DISTRIBUTIVE,                                # Boolean
    "C2xC3": _DISTRIBUTIVE,                              # products of chains
    "C2xC4": _DISTRIBUTIVE,
    "M2+stem": _DISTRIBUTIVE,                            # ordinal sums of
    "M2+M2": _DISTRIBUTIVE,                              # distributive ones
    "M2xC2": _DISTRIBUTIVE,                              # 2^2 x 2 = 2^3
}

# `check` on each oml_corpus() member: it is an orthomodular ortholattice.
OML_BASICS = {"lattice": True, "ortholattice": True, "orthomodular": True}

OML_FACTS = {
    **{f"2^{n}": {"distributive": True} for n in range(1, 6)},   # Boolean
    "MO1": {"distributive": True},                               # MO1 is 2^2
    **{f"MO{n}": _MODULAR_ONLY for n in range(2, 5)},
    "MO2x2^1": _MODULAR_ONLY,
    "K(C3)": {"distributive": True},   # K of a chain is Boolean
    "K(C4)": {"distributive": True},
    "K(M2)": {},
}


def _exit_problems(rc, all_pass):
    if rc not in (0, 1):
        return [f"exit code {rc}"]
    if (rc == 0) != all_pass:
        return [f"exit code {rc} disagrees with the report lines"]
    return []


_CHECK_LINE = re.compile(r"^([a-z_0-9]+): (pass|fail)(?:  \((.*)\))?$")


def check_report(expected, rc, text):
    """Problems of one `omlkit check` report against expected line verdicts."""
    seen = {}
    for line in text.splitlines():
        m = _CHECK_LINE.match(line)
        if m is None:
            return [f"unparseable report line {line!r}"]
        seen[m.group(1)] = m.group(2) == "pass"
    problems = [
        f"{name}: expected {'pass' if want else 'fail'}, "
        f"got {'missing' if name not in seen else ('pass' if seen[name] else 'fail')}"
        for name, want in expected.items()
        if seen.get(name) is not want
    ]
    return problems + _exit_problems(rc, bool(seen) and all(seen.values()))


def corpus_expectations():
    """(document key, with --kalmbach, expected line verdicts) for the corpus."""
    out = []
    for name, facts in LATTICE_FACTS.items():
        out.append((f"L:{name}", True, {**KALMBACH_THEOREMS, **facts}))
    for name, facts in OML_FACTS.items():
        out.append((f"O:{name}", False, {**OML_BASICS, **facts}))
    return out


_CLAIM_FIELD = re.compile(r"(\w+)=(\S+)")


def check_ladder(rc, text):
    """Problems of an `omlkit rn --report` output against LADDER_EXPECTED."""
    fields = {}
    claims = []
    for line in text.splitlines():
        if line.startswith("  "):
            claims.append(dict(_CLAIM_FIELD.findall(line)))
        elif ": " in line:
            key, value = line.split(": ", 1)
            fields[key] = value
    problems = [
        f"{key}: expected {want}, got {fields.get(key, 'missing')}"
        for key, want in LADDER_EXPECTED.items()
        if fields.get(key) != want
    ]
    roles = {c.get("role") for c in claims}
    if not {"internal", "external"} <= roles:
        problems.append("atom claims miss an internal or external atom")
    for c in claims:
        role = c.get("role")
        if c.get("noncommuting") != LADDER_NONCOMMUTING.get(role):
            problems.append(f"{c.get('atom')}: noncommuting {c.get('noncommuting')}")
        for key in ("count_ok", "witness_ok"):
            if c.get(key) != "True":
                problems.append(f"{c.get('atom')}: {key} {c.get(key)}")
        if role == "internal" and c.get("pairwise_joins_dominate") != "True":
            problems.append(f"{c.get('atom')}: pairwise joins do not dominate")
    if rc != 0:
        problems.append(f"exit code {rc}")
    return problems


_SAMPLE = re.compile(r"^  sample \d+: dim (\d+) -> \{(.*)\}$")


def check_keller(rc, text):
    """Problems of an `omlkit keller` report: both laws hold, 0 failures."""
    lines = text.splitlines()
    problems = [f"missing line {want!r}" for want in KELLER_EXPECTED_LINES
                if want not in lines]
    samples = [m for m in map(_SAMPLE.match, lines) if m]
    if len(samples) != 5:
        problems.append(f"{len(samples)} pi-map samples, expected 5")
    for m in samples:
        # pi maps a subspace to exactly dim-many distinct types
        if len(m.group(2).split()) != int(m.group(1)):
            problems.append(f"pi-map sample {m.group(0).strip()!r}")
    if rc != 0:
        problems.append(f"exit code {rc}")
    return problems
