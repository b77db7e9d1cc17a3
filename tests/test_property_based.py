"""Property-based tests (hypothesis) for the core data structures and invariants."""


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks import AttackGraph, enumerate_cycles, has_strong_cycle
from repro.certainty import (
    certain_by_enumeration,
    certain_two_atom,
    is_certain,
    is_purified,
    purify,
)
from repro.core import ComplexityBand, classify
from repro.fd import FDSet, fd
from repro.model import RelationSchema, UncertainDatabase, Variable
from repro.model.repairs import count_repairs, enumerate_repairs, is_repair
from repro.query import parse_query
from repro.workloads import random_acyclic_query

# --------------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------------

_VARIABLES = [Variable(name) for name in "uvwxyz"]

variable_sets = st.sets(st.sampled_from(_VARIABLES), max_size=4)

functional_dependencies = st.builds(
    fd,
    st.sets(st.sampled_from(_VARIABLES), min_size=1, max_size=3),
    st.sets(st.sampled_from(_VARIABLES), min_size=1, max_size=3),
)

fd_sets = st.lists(functional_dependencies, max_size=6).map(FDSet)

R2 = RelationSchema("R", 2, 1)
S2 = RelationSchema("S", 2, 1)

constants = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def small_databases(draw):
    """Random databases over two binary relations with small domains."""
    facts = draw(
        st.lists(
            st.tuples(st.sampled_from([R2, S2]), constants, constants),
            max_size=10,
        )
    )
    db = UncertainDatabase()
    for relation, first, second in facts:
        db.add(relation.fact(first, second))
    return db


@st.composite
def pair_databases(draw):
    """Random databases for the weak-cycle pair query {R(x|y), S(y|x)}."""
    query = parse_query("R(x | y), S(y | x)")
    schema = query.schema()
    facts = draw(
        st.lists(
            st.tuples(st.sampled_from(["R", "S"]), constants, constants),
            max_size=9,
        )
    )
    db = UncertainDatabase()
    for name, first, second in facts:
        db.add(schema[name].fact(first, second))
    return query, db


# --------------------------------------------------------------------------------
# Functional dependency properties
# --------------------------------------------------------------------------------


@given(fd_sets, variable_sets)
def test_closure_is_extensive(fds, attributes):
    assert attributes <= fds.closure(attributes)


@given(fd_sets, variable_sets)
def test_closure_is_idempotent(fds, attributes):
    closure = fds.closure(attributes)
    assert fds.closure(closure) == closure


@given(fd_sets, variable_sets, variable_sets)
def test_closure_is_monotone(fds, first, second):
    assert fds.closure(first) <= fds.closure(first | second)


@given(fd_sets)
def test_minimal_cover_is_equivalent(fds):
    assert fds.minimal_cover().equivalent(fds)


# --------------------------------------------------------------------------------
# Repair properties
# --------------------------------------------------------------------------------


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(small_databases())
def test_repair_count_is_product_of_block_sizes(db):
    assert count_repairs(db) == len(list(enumerate_repairs(db)))


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(small_databases())
def test_every_enumerated_repair_is_a_repair(db):
    for repair in enumerate_repairs(db):
        assert is_repair(db, repair)
        assert len(repair) == db.num_blocks()


# --------------------------------------------------------------------------------
# Purification properties (Lemma 1)
# --------------------------------------------------------------------------------


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair_databases())
def test_purification_preserves_certainty(case):
    query, db = case
    purified = purify(db, query)
    assert is_purified(purified, query)
    assert purified.facts <= db.facts
    assert certain_by_enumeration(db, query) == certain_by_enumeration(purified, query)


# --------------------------------------------------------------------------------
# Solver agreement properties
# --------------------------------------------------------------------------------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair_databases())
def test_pair_solver_agrees_with_oracle(case):
    query, db = case
    assert certain_two_atom(db, query) == certain_by_enumeration(db, query)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair_databases())
def test_dispatcher_agrees_with_oracle_on_pairs(case):
    query, db = case
    assert is_certain(db, query) == certain_by_enumeration(db, query)


# --------------------------------------------------------------------------------
# Attack graph properties over random acyclic queries
# --------------------------------------------------------------------------------


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=5))
def test_lemma4_on_random_queries(seed, atoms):
    """A strong cycle exists iff a strong 2-cycle exists (Lemma 4)."""
    query = random_acyclic_query(seed=seed, atoms=atoms)
    graph = AttackGraph(query)
    cycles = enumerate_cycles(graph)
    has_strong = any(c.is_strong for c in cycles)
    has_strong_two = any(c.is_strong and c.length == 2 for c in cycles)
    assert has_strong == has_strong_two
    assert has_strong == has_strong_cycle(graph)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=5))
def test_classifier_covers_random_acyclic_queries(seed, atoms):
    """Every acyclic self-join-free query lands in a supported band, and the
    bands are consistent with the attack-graph structure."""
    query = random_acyclic_query(seed=seed, atoms=atoms)
    classification = classify(query)
    assert classification.band.is_supported
    graph = AttackGraph(query)
    if classification.band is ComplexityBand.FO:
        assert graph.is_acyclic()
    if classification.band is ComplexityBand.CONP_COMPLETE:
        assert has_strong_cycle(graph)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10**6))
def test_classifier_is_deterministic(seed):
    query = random_acyclic_query(seed=seed, atoms=4)
    assert classify(query).band == classify(query).band
