"""Shared helpers for the test suite (importable, unlike conftest fixtures)."""

import os
import pathlib
import subprocess
import sys
from contextlib import contextmanager

from repro.model import UncertainDatabase
from repro.model.symbols import Variable
from repro.query import ConjunctiveQuery


def open_variant(query, variable_name):
    """The query with one variable freed (same atoms, one free variable)."""
    variable = Variable(variable_name)
    assert variable in query.variables
    return ConjunctiveQuery(query.atoms, free_variables=[variable])


def random_instance(query, rng, domain_size=3, facts_per_relation=5):
    """A small random database for *query*, used in oracle-agreement tests."""
    db = UncertainDatabase()
    domain = [f"c{i}" for i in range(domain_size)]
    for atom in query.atoms:
        relation = atom.relation
        for _ in range(facts_per_relation):
            db.add(relation.fact(*[rng.choice(domain) for _ in range(relation.arity)]))
    return db


@contextmanager
def constructions(*classes):
    """Count the instances of *classes* constructed inside the block.

    Yields a dict from class name to count; each ``__init__`` is wrapped for
    the duration of the block and restored afterwards.
    """
    counts = {cls.__name__: 0 for cls in classes}
    originals = {cls: cls.__init__ for cls in classes}

    def counting(name, original):
        def __init__(self, *args, **kwargs):
            counts[name] += 1
            original(self, *args, **kwargs)

        return __init__

    for cls, original in originals.items():
        cls.__init__ = counting(cls.__name__, original)
    try:
        yield counts
    finally:
        for cls, original in originals.items():
            cls.__init__ = original


def outputs_under_hash_seeds(probe, seeds=("0", "1")):
    """The distinct stdouts of the script *probe*, run once per ``PYTHONHASHSEED``.

    Each run is a fresh interpreter with the repository's ``src`` on its
    path, so a result that follows string hashing shows up as two outputs.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outputs = set()
    for seed in seeds:
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    return outputs
