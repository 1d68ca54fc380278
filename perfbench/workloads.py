"""Inputs and commands of the three benchmark workloads.

Each workload is a closed loop: one process, one caller, and the next command
starts when the previous one returns.  A pass is the unit that repeats until
the run's time is up:

- ladder: one `rn --rows 3 --report`.  Deterministic, the seed is unused.
  Rows = 4 (26,752 elements) takes over two minutes per command, longer
  than one benchmark run may last.
- corpus: one round of `check --kalmbach` on the 20 lattice_corpus() bases
  and `check` on the 13 oml_corpus() OMLs, read back from YAML written in
  set-up, in an order shuffled by the seed afresh for every round.
- keller: one `keller --dim 3 --trials 100 --seed 0`.  The keller seed is
  fixed because the work per trial depends on it; the run seed is unused.
  100 trials keep a pass near one second, so a run holds many passes.
"""

from __future__ import annotations

import os
import random

import verdicts


def _ladder(seed, tmpdir):
    argv = ["rn", "--rows", str(verdicts.LADDER_ROWS), "--report"]
    return lambda _: [("rn", argv, verdicts.check_ladder)]


def _keller(seed, tmpdir):
    argv = ["keller", "--dim", str(verdicts.KELLER_DIM),
            "--trials", str(verdicts.KELLER_TRIALS),
            "--seed", str(verdicts.KELLER_SEED)]
    return lambda _: [("keller", argv, verdicts.check_keller)]


def _corpus(seed, tmpdir):
    from omlkit.corpus import lattice_corpus, oml_corpus
    from omlkit.latfile import document_from_lattice, emit_lattice

    docs = {f"L:{k}": v for k, v in lattice_corpus().items()}
    docs.update({f"O:{k}": v for k, v in oml_corpus().items()})
    expectations = verdicts.corpus_expectations()
    if sorted(docs) != sorted(key for key, _, _ in expectations):
        raise ValueError("the corpus differs from the expected-verdict table")
    commands = []
    for i, (key, with_kalmbach, expected) in enumerate(expectations):
        path = os.path.join(tmpdir, f"doc{i}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_lattice(document_from_lattice(docs[key])))
        argv = ["check", "--in", path] + (["--kalmbach"] if with_kalmbach else [])
        commands.append(
            (key, argv,
             lambda rc, text, exp=expected: verdicts.check_report(exp, rc, text))
        )
    rng = random.Random(seed)

    def next_pass(_):
        rng.shuffle(commands)
        return list(commands)

    return next_pass


WORKLOADS = {"ladder": _ladder, "corpus": _corpus, "keller": _keller}


def prepare(name, seed, tmpdir):
    """Generate a workload's inputs; returns pass index -> commands.

    A command is (label, CLI argv, checker of (exit code, stdout text)).
    """
    return WORKLOADS[name](seed, tmpdir)
