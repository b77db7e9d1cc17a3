"""Shared helpers for the test suite (importable, unlike conftest fixtures)."""

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
