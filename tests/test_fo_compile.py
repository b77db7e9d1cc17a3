"""Differential tests for the compiled set-at-a-time formula evaluator.

The naive :class:`FormulaEvaluator` (``compiled=False``) is the executable
definition of active-domain semantics; the compiled plans of
:mod:`repro.fo.compile` must agree with it on *every* formula they accept,
and ``FormulaEvaluator`` evaluates the formulas they refuse naively.
The tests below fuzz that agreement over randomly generated formulas and
workload databases, check that the compiler accepts the rewritings of
Theorem 1 and refuses formulas that would read the active domain, and
cross-check the compiled-rewriting certainty solver against the peeling
solver and repair enumeration (the paper's definition).
"""

import random

import pytest

import repro.fo.evaluate as fo_evaluate
from repro.certainty import (
    UnsupportedQueryError,
    certain_by_enumeration,
    certain_fo,
    certain_fo_rewriting,
)
from repro.engine import CertaintySession, compile_plan
from repro.fo import (
    And,
    AtomFormula,
    Bottom,
    CompiledFormula,
    Equals,
    EvalContext,
    Exists,
    Forall,
    FormulaEvaluator,
    Implies,
    Not,
    Or,
    Top,
    UnguardedFormulaError,
    certain_rewriting,
    certain_rewriting_cached,
    compile_formula,
    evaluate_sentence,
    push_negation,
)
from repro.model import UncertainDatabase
from repro.model.atoms import RelationSchema
from repro.model.symbols import Constant, Variable
from repro.model.valuation import Valuation
from repro.query import (
    ConjunctiveQuery,
    cycle_query_c,
    figure2_q1,
    fuxman_miller_cfree_example,
    parse_query,
    path_query,
)
from repro.query.evaluation import FactIndex
from repro.store import ColumnarFactIndex
from repro.workloads import figure1_database, figure1_query, uniform_random_instance

from tests.helpers import random_instance

FO_QUERIES = [
    fuxman_miller_cfree_example(),
    path_query(3),
    figure1_query(),
    parse_query("A(x | y), B(x, y | w), D(w, x | v)"),
    parse_query("R(x | y, 'a'), S(y | z), T(y, z | u)"),
    parse_query("A(x | y), B(y | y, w)"),
    parse_query("Lonely(x | y)"),
]

SCHEMAS = [
    RelationSchema("R", 2, 1),
    RelationSchema("S", 2, 1),
    RelationSchema("T", 3, 2),
    RelationSchema("U", 1, 1),
]

VARIABLES = [Variable(name) for name in ("x", "y", "z", "w")]


def random_database(rng, domain_size=3, facts_per_relation=4):
    """A random database over the fuzzing schema."""
    domain = [f"c{i}" for i in range(domain_size)]
    db = UncertainDatabase()
    for relation in SCHEMAS:
        for _ in range(rng.randrange(facts_per_relation + 1)):
            db.add(relation.fact(*[rng.choice(domain) for _ in range(relation.arity)]))
    return db


def random_formula(rng, scope, depth):
    """A random formula whose free variables are drawn from *scope*."""
    domain_constants = [Constant(f"c{i}") for i in range(3)]

    def random_term():
        choices = list(scope) + domain_constants
        return rng.choice(choices)

    def random_atom():
        relation = rng.choice(SCHEMAS)
        return AtomFormula(relation.atom(*[random_term() for _ in range(relation.arity)]))

    if depth <= 0:
        roll = rng.random()
        if roll < 0.70:
            return random_atom()
        if roll < 0.85:
            return Equals(random_term(), random_term())
        return Top() if rng.random() < 0.5 else Bottom()
    roll = rng.random()
    if roll < 0.20:
        return random_atom()
    if roll < 0.35:
        operands = [random_formula(rng, scope, depth - 1) for _ in range(rng.randrange(1, 4))]
        return And(operands)
    if roll < 0.50:
        operands = [random_formula(rng, scope, depth - 1) for _ in range(rng.randrange(1, 4))]
        return Or(operands)
    if roll < 0.60:
        return Not(random_formula(rng, scope, depth - 1))
    if roll < 0.70:
        return Implies(
            random_formula(rng, scope, depth - 1), random_formula(rng, scope, depth - 1)
        )
    quantified = rng.sample(VARIABLES, rng.randrange(1, 3))
    inner = random_formula(rng, list(set(scope) | set(quantified)), depth - 1)
    if roll < 0.85:
        return Exists(quantified, inner)
    return Forall(quantified, inner)


SENTENCE_SEEDS = range(40)
OPEN_FORMULA_SEEDS = range(20)


def sentence_cases(seed):
    """The database and the six sentences of one random-sentence seed."""
    rng = random.Random(seed)
    db = random_database(rng)
    return db, [random_formula(rng, [], depth=3) for _ in range(6)]


def open_formula_cases(seed):
    """The database and the four ``(formula, valuation)`` pairs of one open-formula seed."""
    rng = random.Random(1000 + seed)
    db = random_database(rng)
    domain = sorted(db.active_domain(), key=str) or [Constant("c0")]
    scope = VARIABLES[:2]
    cases = []
    for _ in range(4):
        formula = random_formula(rng, scope, depth=2)
        cases.append((formula, Valuation({v: rng.choice(domain) for v in scope})))
    return db, cases


def compiles(formula):
    """Does :func:`compile_formula` accept *formula*?"""
    try:
        compile_formula(formula)
    except UnguardedFormulaError:
        return False
    return True


class TestDifferentialFuzz:
    """compiled evaluation ≡ naive active-domain evaluation, always."""

    @pytest.mark.parametrize("seed", SENTENCE_SEEDS)
    def test_random_sentences(self, seed):
        db, formulas = sentence_cases(seed)
        for formula in formulas:
            naive = FormulaEvaluator(db, compiled=False).evaluate(formula)
            compiled = FormulaEvaluator(db, compiled=True).evaluate(formula)
            assert compiled == naive, f"disagreement on {formula!r} over {sorted(map(str, db.facts))}"

    @pytest.mark.parametrize("seed", OPEN_FORMULA_SEEDS)
    def test_random_open_formulas_under_valuations(self, seed):
        db, cases = open_formula_cases(seed)
        for formula, valuation in cases:
            naive = FormulaEvaluator(db, compiled=False).evaluate(formula, valuation)
            compiled = FormulaEvaluator(db, compiled=True).evaluate(formula, valuation)
            assert compiled == naive, f"disagreement on {formula!r} under {valuation}"

    def test_fuzzed_formulas_often_compile(self):
        """The fuzz is not vacuous: at least 30% of its formulas run compiled."""
        sentences = [f for seed in SENTENCE_SEEDS for f in sentence_cases(seed)[1]]
        open_formulas = [f for seed in OPEN_FORMULA_SEEDS for f, _ in open_formula_cases(seed)[1]]
        for formulas in (sentences, open_formulas):
            assert sum(map(compiles, formulas)) >= 0.3 * len(formulas)

    @pytest.mark.parametrize("seed", range(10))
    def test_explicit_restricted_domain(self, seed, monkeypatch):
        """A supplied quantification domain smaller than the active domain
        takes the naive path, whatever the formula."""
        rng = random.Random(2000 + seed)
        db = random_database(rng, domain_size=4)
        domain = [Constant("c0"), Constant("c1")]
        formulas = [random_formula(rng, [], depth=2) for _ in range(4)]
        naive = [FormulaEvaluator(db, domain=domain, compiled=False).evaluate(f) for f in formulas]

        def no_compilation(formula):
            raise AssertionError("an explicit domain must not compile")

        monkeypatch.setattr(fo_evaluate, "compile_formula", no_compilation)
        evaluator = FormulaEvaluator(db, domain=domain, compiled=True)
        assert [evaluator.evaluate(f) for f in formulas] == naive

    def test_empty_database_and_domain(self):
        db = UncertainDatabase()
        x = Variable("x")
        exists = Exists([x], Top())
        forall = Forall([x], Bottom())
        for formula, expected in ((exists, False), (forall, True)):
            assert FormulaEvaluator(db, compiled=False).evaluate(formula) is expected
            assert FormulaEvaluator(db, compiled=True).evaluate(formula) is expected

    @pytest.mark.parametrize("query", FO_QUERIES, ids=lambda q: str(q)[:40])
    def test_rewriting_formulas(self, query, rng):
        """Both strategies agree on the actual rewritings of Theorem 1."""
        formula = certain_rewriting(query)
        for _ in range(6):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=4)
            naive = evaluate_sentence(db, formula, compiled=False)
            assert evaluate_sentence(db, formula, compiled=True) == naive


def unguarded_cases():
    """Formulas whose plan would read the active domain, with their answer
    over :func:`refusal_database` (the valuation binds ``x`` to ``c0``)."""
    x, y = Variable("x"), Variable("y")
    return [
        pytest.param(Exists([x, y], Equals(x, y)), True, id="exists-x-y-x=y"),
        pytest.param(Exists([y], Not(AtomFormula(SCHEMAS[0].atom(x, y)))), True, id="exists-y-not-R"),
        pytest.param(Exists([x], Top()), True, id="vacuous-exists"),
        pytest.param(Exists([x], Equals(x, Constant("c1"))), True, id="exists-x=c1"),
        pytest.param(Exists([x], Equals(x, Constant("c9"))), False, id="exists-x=c9"),
    ]


def refusal_database():
    return UncertainDatabase([SCHEMAS[0].fact("c0", "c1"), SCHEMAS[0].fact("c1", "c1")])


class TestGuardedness:
    """Range analysis: the compiler accepts the rewritings and refuses every
    formula whose plan would read the active domain."""

    @pytest.mark.parametrize("query", FO_QUERIES, ids=lambda q: str(q)[:40])
    def test_rewriting_plans_are_guarded(self, query, rng):
        plan = compile_formula(certain_rewriting_cached(query))
        db = random_instance(query, rng, domain_size=3, facts_per_relation=5)
        assert plan.evaluate(db) == certain_by_enumeration(db, query)

    @pytest.mark.parametrize("formula,expected", unguarded_cases())
    def test_unguarded_formulas_are_refused(self, formula, expected):
        """Refused by the compiler, answered by the naive recursion."""
        with pytest.raises(UnguardedFormulaError):
            compile_formula(formula)
        db = refusal_database()
        valuation = Valuation({Variable("x"): Constant("c0")}) if formula.free_variables() else None
        naive = FormulaEvaluator(db, compiled=False).evaluate(formula, valuation)
        assert FormulaEvaluator(db).evaluate(formula, valuation) is naive is expected

    def test_atom_probes_use_block_index(self):
        query = fuxman_miller_cfree_example()
        plan = compile_formula(certain_rewriting_cached(query))
        schema = query.schema()
        db = UncertainDatabase(
            [schema["R"].fact("a", "b"), schema["S"].fact("b", "c")]
        )
        ctx = EvalContext.for_database(db)
        assert plan.evaluate(context=ctx)
        assert ctx.block_lookups > 0

    def test_push_negation_flips_evaluation(self):
        random_rng = random.Random(7)
        db = random_database(random_rng)
        evaluator = FormulaEvaluator(db, compiled=False)
        for _ in range(20):
            formula = random_formula(random_rng, [], depth=2)
            assert evaluator.evaluate(push_negation(formula)) != evaluator.evaluate(formula)


class TestMemoisation:
    def test_compile_formula_is_memoised_per_object(self):
        formula = certain_rewriting(fuxman_miller_cfree_example())
        assert compile_formula(formula) is compile_formula(formula)

    def test_cached_rewriting_shares_formula_and_plan(self):
        q1 = fuxman_miller_cfree_example()
        q2 = fuxman_miller_cfree_example()
        assert certain_rewriting_cached(q1) is certain_rewriting_cached(q2)
        assert compile_formula(certain_rewriting_cached(q1)) is compile_formula(
            certain_rewriting_cached(q2)
        )

    def test_shared_index_is_used(self):
        db = UncertainDatabase([SCHEMAS[0].fact("a", "b")])
        index = ColumnarFactIndex(db.facts)
        evaluator = FormulaEvaluator(db, index=index)
        assert evaluator.index is index
        atom = AtomFormula(SCHEMAS[0].atom(Constant("a"), Constant("b")))
        assert evaluator.evaluate(atom)
        # The naive path reads fact membership from the database.
        assert FormulaEvaluator(db, index=index, compiled=False).evaluate(atom)
        # Compiled plans run on id-rows only: a plain FactIndex has no store.
        plain = FactIndex(db.facts)
        assert FormulaEvaluator(db, index=plain, compiled=False).evaluate(atom)
        with pytest.raises(TypeError):
            FormulaEvaluator(db, index=plain).evaluate(atom)


class TestCompiledRewritingSolver:
    @pytest.mark.parametrize("query", FO_QUERIES, ids=lambda q: str(q)[:40])
    def test_agrees_with_peeling_and_oracle(self, query, rng):
        for _ in range(8):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=4)
            expected = certain_by_enumeration(db, query)
            assert certain_fo(db, query) == expected
            assert certain_fo_rewriting(db, query) == expected

    def test_rejects_cyclic_attack_graph(self):
        with pytest.raises(UnsupportedQueryError):
            certain_fo_rewriting(UncertainDatabase(), cycle_query_c(2))
        with pytest.raises(UnsupportedQueryError):
            certain_fo_rewriting(UncertainDatabase(), figure2_q1())

    def test_figure1(self):
        assert certain_fo_rewriting(figure1_database(), figure1_query()) is False

    def test_empty_query_is_certain(self):
        assert certain_fo_rewriting(UncertainDatabase(), ConjunctiveQuery([]))

    @pytest.mark.parametrize("query", FO_QUERIES[:4], ids=lambda q: str(q)[:40])
    def test_workload_instances(self, query):
        for seed in range(6):
            db = uniform_random_instance(query, seed=seed, domain_size=3, facts_per_relation=5)
            assert certain_fo_rewriting(db, query) == certain_fo(db, query)


class TestEngineRouting:
    """FO-band plans execute through the compiled rewriting."""

    def test_plan_carries_compiled_rewriting(self):
        plan = compile_plan(fuxman_miller_cfree_example())
        assert plan.method == "fo-rewriting"
        assert isinstance(plan.fo_rewriting, CompiledFormula)

    def test_non_fo_plan_has_no_rewriting(self):
        plan = compile_plan(figure2_q1())
        assert plan.fo_rewriting is None

    @pytest.mark.parametrize("query", FO_QUERIES[:4], ids=lambda q: str(q)[:40])
    def test_session_matches_one_shot(self, query, rng):
        for _ in range(4):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=4)
            with CertaintySession(db) as session:
                outcome = session.solve(query)
                assert outcome.method == "fo-rewriting"
                assert outcome.certain == certain_fo(db, query)

    def test_open_fo_plan_compiles_once_for_all_candidates(self):
        query = parse_query("Emp(name | dept), Dept(dept | city)", free=["name"])
        plan = compile_plan(query)
        assert plan.method == "fo-rewriting"
        assert isinstance(plan.fo_rewriting, CompiledFormula)
        assert plan.fo_candidate_vars is not None
        assert len(plan.fo_candidate_vars) == 1
        # The open plan's free variables are exactly the candidate variables.
        assert plan.fo_rewriting.free_variables <= frozenset(plan.fo_candidate_vars)

    def test_session_certain_answers_on_fo_query(self, rng):
        from repro import certain_answers
        from repro.query.substitution import ground_free_variables

        query = parse_query("Emp(name | dept), Dept(dept | city)", free=["name"])
        for _ in range(4):
            db = random_instance(query, rng, domain_size=3, facts_per_relation=4)
            with CertaintySession(db) as session:
                batched = session.certain_answers(query)
            assert batched == certain_answers(db, query)
            # Every claimed answer's grounding is certain per the oracle,
            # exercising the shared open-plan + valuation path end to end.
            for candidate in batched:
                grounded = ground_free_variables(query, [c.value for c in candidate])
                assert certain_by_enumeration(db, grounded)

    @pytest.mark.parametrize(
        "text,city",
        [
            ("Emp(name | dept), Dept(dept | '__plan_placeholder_0__')", "__plan_placeholder_0__"),
            ("Emp(name | __plan_placeholder_0__), Dept(__plan_placeholder_0__ | 'Mons')", "Mons"),
        ],
        ids=["constant", "bound-variable"],
    )
    def test_placeholders_never_collide(self, text, city):
        """A constant or a bound variable named like a placeholder is neither
        captured by the open-plan back-substitution nor a reason to give up
        the batched plan."""
        from repro import certain_answers
        from repro.query.substitution import ground_free_variables

        query = parse_query(text, free=["name"])
        assert compile_plan(query).batched_fo
        schema = query.schema()
        db = UncertainDatabase(
            [schema["Emp"].fact("alice", "d1"), schema["Dept"].fact("d1", city)]
        )
        grounded = ground_free_variables(query, ["alice"])
        assert certain_by_enumeration(db, grounded)
        with CertaintySession(db) as session:
            assert len(session.certain_answers(query)) == 1
        assert len(certain_answers(db, query)) == 1

    def test_session_evaluates_unguarded_sentences(self):
        x, y = Variable("x"), Variable("y")
        with CertaintySession(refusal_database()) as session:
            assert session.evaluate_formula(Exists([x, y], Equals(x, y)))
            assert not session.evaluate_formula(Exists([x], Equals(x, Constant("c9"))))

    def test_session_tracks_mutation(self):
        query = fuxman_miller_cfree_example()
        schema = query.schema()
        db = UncertainDatabase([schema["R"].fact("a", "b"), schema["S"].fact("b", "c")])
        with CertaintySession(db) as session:
            assert session.is_certain(query)
            db.add(schema["R"].fact("a", "z"))  # conflicting block breaks certainty
            assert not session.is_certain(query)
            db.add(schema["S"].fact("z", "c"))  # both choices now witness the query
            assert session.is_certain(query)
