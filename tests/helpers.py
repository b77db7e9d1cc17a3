"""Shared helpers for the test suite (importable, unlike conftest fixtures)."""

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
