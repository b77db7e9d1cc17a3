"""Executable reproductions of every figure, example, and theorem claim.

The paper is a theory paper: its "evaluation" consists of worked examples
(Figures 1–7, Examples 1–6) and complexity theorems.  Each ``experiment_*``
function below regenerates the corresponding artefact with the library and
checks the claims the paper makes about it, returning an
:class:`~repro.experiments.runner.ExperimentReport`.  The benchmark harness
and EXPERIMENTS.md are built on these functions.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from ..attacks.cycles import enumerate_cycles, has_strong_cycle
from ..attacks.graph import AttackGraph
from ..attacks.properties import lemma_report
from ..certainty import (
    certain_brute_force,
    certain_by_enumeration,
    certain_cycle_query,
    certain_fo,
    certain_terminal_cycles,
    is_certain,
    purify,
    theorem2_reduction,
)
from ..core.classify import classify
from ..core.complexity import ComplexityBand
from ..core.frontier import band_counts, classify_corpus
from ..counting import count_satisfying_repairs, repair_frequency
from ..fo import evaluate_sentence, formula_size
from ..model.repairs import count_repairs, enumerate_repairs, is_repair
from ..probability import (
    BIDDatabase,
    compare_frontiers,
    is_safe,
    probability_by_worlds,
    probability_safe_plan,
    proposition1_holds,
)
from ..query.evaluation import satisfies
from ..query.families import (
    cycle_query_ac,
    cycle_query_c,
    figure2_q1,
    figure4_query,
    kolaitis_pema_q0,
)
from ..query.jointree import build_join_tree
from ..workloads.corpora import mixed_corpus
from ..workloads.generators import synthetic_instance, uniform_random_instance
from ..workloads.instances import (
    figure1_database,
    figure1_query,
    figure6_database,
    figure7_falsifying_repairs,
)
from .runner import ExperimentReport


def experiment_figure1() -> ExperimentReport:
    """E1: the conference-planning example of Figure 1 and the introduction."""
    report = ExperimentReport("E1", "Figure 1 — uncertain conference database")
    db = figure1_database()
    query = figure1_query()
    repairs = list(enumerate_repairs(db))
    satisfied = sum(1 for repair in repairs if satisfies(repair, query))
    report.set_columns("quantity", "value")
    report.add_row("facts", len(db))
    report.add_row("blocks", db.num_blocks())
    report.add_row("repairs", len(repairs))
    report.add_row("repairs satisfying q", satisfied)
    report.add_row("certain", is_certain(db, query))
    report.add_check("the database has four repairs", len(repairs) == 4)
    report.add_check("the query is true in exactly three repairs", satisfied == 3)
    report.add_check("the query is not certain", not is_certain(db, query))
    report.add_check(
        "CERTAINTY(q) is first-order expressible for the Figure 1 query",
        classify(query).band is ComplexityBand.FO,
    )
    return report


def experiment_figure2() -> ExperimentReport:
    """E2: the join tree, closures and attack graph of q1 (Figure 2, Examples 2–4)."""
    report = ExperimentReport("E2", "Figure 2 — attack graph of q1")
    query = figure2_q1()
    graph = AttackGraph(query)
    atoms = {atom.name: atom for atom in query.atoms}
    f, g, h, i = atoms["R"], atoms["S"], atoms["T"], atoms["P"]

    def names(variables) -> str:
        return "{" + ",".join(sorted(v.name for v in variables)) + "}"

    report.set_columns("atom", "key", "F+,q", "F⊞,q")
    for atom in (f, g, h, i):
        report.add_row(
            str(atom),
            names(atom.key_variables),
            names(graph.plus_closures[atom]),
            names(graph.box_closures[atom]),
        )
    expected_plus = {
        "R": {"u"},
        "S": {"y"},
        "T": {"x", "z"},
        "P": {"x", "y", "z"},
    }
    closures_match = all(
        {v.name for v in graph.plus_closures[atoms[name]]} == expected
        for name, expected in expected_plus.items()
    )
    report.add_check("the F+,q closures match Example 2", closures_match)
    report.add_check(
        "the attack from G=S to F=R is strong", graph.is_strong_attack(g, f)
    )
    strong_attacks = [a for a in graph.attacks if a.is_strong]
    report.add_check(
        "G ⤳ F is the only strong attack (Example 4)",
        len(strong_attacks) == 1 and strong_attacks[0].source == g and strong_attacks[0].target == f,
    )
    cycles = enumerate_cycles(graph)
    report.add_check(
        "the attack graph has both a strong 2-cycle and a strong 3-cycle (Example 4)",
        any(c.is_strong and c.length == 2 for c in cycles)
        and any(c.is_strong and c.length == 3 for c in cycles),
    )
    report.add_check(
        "the weak cycle G ⤳ H ⤳ G exists (Example 4)",
        graph.is_weak_attack(h, g) and graph.is_weak_attack(g, h),
    )
    report.add_check(
        "q1 is classified coNP-complete (Theorem 2)",
        classify(query).band is ComplexityBand.CONP_COMPLETE,
    )
    tree = build_join_tree(query)
    report.add_check("the constructed join tree satisfies connectedness", tree.satisfies_connectedness())
    return report


def experiment_figure4() -> ExperimentReport:
    """E3: the Figure 4 query — all cycles weak and terminal, CERTAINTY in P."""
    report = ExperimentReport("E3", "Figure 4 — weak terminal cycles (Theorem 3)")
    query = figure4_query()
    graph = AttackGraph(query)
    cycles = enumerate_cycles(graph)
    report.set_columns("cycle", "weak", "terminal")
    for cycle in cycles:
        report.add_row(" ⤳ ".join(a.name for a in cycle.atoms), cycle.is_weak, cycle.is_terminal)
    report.add_check("the attack graph has exactly three cycles", len(cycles) == 3)
    report.add_check("every cycle is weak", all(c.is_weak for c in cycles))
    report.add_check("every cycle is terminal", all(c.is_terminal for c in cycles))
    report.add_check(
        "the query is classified in P but not FO (Theorem 3 + Theorem 1)",
        classify(query).band is ComplexityBand.PTIME_NOT_FO,
    )
    agreement = True
    for seed in range(8):
        db = synthetic_instance(query, seed=seed, domain_size=3, witnesses=2, noise_per_relation=2)
        if certain_terminal_cycles(db, query) != certain_by_enumeration(db, query):
            agreement = False
            break
    report.add_check("the Theorem 3 solver agrees with the oracle on random instances", agreement)
    return report


def experiment_figure6() -> ExperimentReport:
    """E4: AC(3), the Figure 6 database and the falsifying repairs of Figure 7."""
    report = ExperimentReport("E4", "Figures 5–7 — AC(3) and its graph algorithm (Theorem 4)")
    query = cycle_query_ac(3)
    graph = AttackGraph(query)
    cycles = enumerate_cycles(graph)
    two_cycles = [c for c in cycles if c.length == 2]
    report.set_columns("quantity", "value")
    report.add_row("elementary attack cycles", len(cycles))
    report.add_row("attack 2-cycles", len(two_cycles))
    report.add_row("weak cycles", sum(1 for c in cycles if c.is_weak))
    report.add_row("nonterminal cycles", sum(1 for c in cycles if not c.is_terminal))
    report.add_check(
        "AC(3) has k(k-1)/2 = 3 attack 2-cycles, all weak and nonterminal (Figure 5)",
        len(two_cycles) == 3 and all(c.is_weak and not c.is_terminal for c in cycles),
    )
    report.add_check("no attack cycle of AC(3) is strong", not has_strong_cycle(graph))

    db = figure6_database()
    purified = purify(db, query)
    report.add_row("Figure 6 facts", len(db))
    report.add_check("the Figure 6 database is purified relative to AC(3)", purified.facts == db.facts)
    certain_graph = certain_cycle_query(db, query)
    certain_oracle = certain_by_enumeration(db, query)
    report.add_row("certain (Theorem 4 algorithm)", certain_graph)
    report.add_row("certain (oracle)", certain_oracle)
    report.add_check("the Figure 6 database is NOT certain for AC(3)", not certain_graph)
    report.add_check("the Theorem 4 algorithm agrees with the oracle on Figure 6", certain_graph == certain_oracle)

    falsifiers_ok = True
    for repair in figure7_falsifying_repairs():
        if not is_repair(db, repair) or satisfies(repair, query):
            falsifiers_ok = False
            break
    report.add_check("both Figure 7 repairs are repairs of Figure 6 and falsify AC(3)", falsifiers_ok)
    report.add_check(
        "AC(3) is classified in P via Theorem 4",
        classify(query).band is ComplexityBand.PTIME_CYCLE_QUERY,
    )
    report.add_check(
        "C(3) is classified in P via Corollary 1",
        classify(cycle_query_c(3)).band is ComplexityBand.PTIME_CYCLE_QUERY,
    )
    return report


def experiment_theorem1(trials: int = 25, seed: int = 11) -> ExperimentReport:
    """E5: FO classification and the certain FO rewriting versus the oracle.

    The rewriting is exercised through *both* evaluation strategies — the
    naive active-domain recursion and the compiled set-at-a-time plans of
    :mod:`repro.fo.compile` — and is checked to be guarded: the compiler,
    which refuses every formula whose plan would read the active domain,
    accepts it.
    """
    report = ExperimentReport("E5", "Theorem 1 — first-order expressibility")
    from ..fo import UnguardedFormulaError, certain_rewriting_cached, compile_formula
    from ..query.families import fuxman_miller_cfree_example, path_query

    queries = [fuxman_miller_cfree_example(), path_query(3), figure1_query()]
    report.set_columns("query", "band", "rewriting size", "oracle agreement", "guarded")
    all_agree = True
    all_guarded = True
    rng = random.Random(seed)
    for query in queries:
        formula = certain_rewriting_cached(query)
        try:
            compile_formula(formula)
            guarded = True
        except UnguardedFormulaError:
            guarded = False
        agree = True
        for _ in range(trials):
            db = uniform_random_instance(query, seed=rng.randrange(10**9), domain_size=3, facts_per_relation=4)
            expected = certain_by_enumeration(db, query)
            if (
                evaluate_sentence(db, formula) != expected
                or evaluate_sentence(db, formula, compiled=False) != expected
                or certain_fo(db, query) != expected
            ):
                agree = False
                break
        all_agree &= agree
        all_guarded &= guarded
        report.add_row(
            str(query), classify(query).band.name, formula_size(formula), agree, guarded
        )
    report.add_check("compiled and naive rewriting evaluation agree with the oracle", all_agree)
    report.add_check(
        "compiled rewriting plans are fully guarded (no active-domain enumeration)",
        all_guarded,
    )
    report.add_check(
        "every tested query with an acyclic attack graph is classified FO",
        all(classify(q).band is ComplexityBand.FO for q in queries),
    )
    return report


def experiment_theorem2(trials: int = 12, seed: int = 5) -> ExperimentReport:
    """E6: the Theorem 2 reduction preserves certainty on concrete instances."""
    report = ExperimentReport("E6", "Theorem 2 — reduction from CERTAINTY(q0)")
    q0 = kolaitis_pema_q0()
    target = figure2_q1()
    rng = random.Random(seed)
    agreements = 0
    sizes: List[Tuple[int, int]] = []
    for trial in range(trials):
        db0 = uniform_random_instance(q0, seed=rng.randrange(10**9), domain_size=3, facts_per_relation=4)
        transformed = theorem2_reduction(target, db0)
        source_certain = certain_by_enumeration(purify(db0, q0), q0)
        target_certain = certain_by_enumeration(transformed, target)
        if source_certain == target_certain:
            agreements += 1
        sizes.append((len(db0), len(transformed)))
    report.set_columns("quantity", "value")
    report.add_row("trials", trials)
    report.add_row("equivalences preserved", agreements)
    report.add_row("average source size", sum(s for s, _ in sizes) / len(sizes))
    report.add_row("average target size", sum(t for _, t in sizes) / len(sizes))
    report.add_check(
        "db0 ∈ CERTAINTY(q0) ⇔ reduction(db0) ∈ CERTAINTY(q1) on every trial",
        agreements == trials,
    )
    report.add_check(
        "the reduction output stays polynomial (≤ |q| · #witnesses facts)",
        all(t <= len(target) * max(1, s) ** 3 for s, t in sizes),
    )
    report.add_check(
        "q1 (the reduction target) is classified coNP-complete",
        classify(target).band is ComplexityBand.CONP_COMPLETE,
    )
    return report


def experiment_theorem3_agreement(trials: int = 20, seed: int = 3) -> ExperimentReport:
    """E7: Theorem 3 solver agreement with the oracle on random instances."""
    report = ExperimentReport("E7", "Theorem 3 — weak terminal cycles solver")
    queries = [cycle_query_c(2), figure4_query(include_r0=False), figure4_query()]
    rng = random.Random(seed)
    report.set_columns("query", "band", "trials", "agreements")
    all_ok = True
    for query in queries:
        agreements = 0
        for _ in range(trials):
            db = synthetic_instance(
                query, seed=rng.randrange(10**9), domain_size=3, witnesses=2, noise_per_relation=2
            )
            if certain_terminal_cycles(db, query) == certain_by_enumeration(db, query):
                agreements += 1
        all_ok &= agreements == trials
        report.add_row(str(query)[:60], classify(query).band.name, trials, agreements)
    report.add_check("the Theorem 3 solver matches the oracle on every instance", all_ok)
    return report


def experiment_theorem4_agreement(trials: int = 20, seed: int = 9) -> ExperimentReport:
    """E8: Theorem 4 / Corollary 1 solver agreement for AC(k) and C(k)."""
    report = ExperimentReport("E8", "Theorem 4 — AC(k) and C(k) solver")
    rng = random.Random(seed)
    report.set_columns("query", "band", "trials", "agreements")
    all_ok = True
    for query in (cycle_query_ac(2), cycle_query_ac(3), cycle_query_c(3), cycle_query_c(4)):
        agreements = 0
        for _ in range(trials):
            db = uniform_random_instance(
                query, seed=rng.randrange(10**9), domain_size=3, facts_per_relation=5
            )
            if certain_cycle_query(db, query) == certain_by_enumeration(db, query):
                agreements += 1
        all_ok &= agreements == trials
        report.add_row(str(query)[:60], classify(query).band.name, trials, agreements)
    report.add_check("the Theorem 4 solver matches the oracle on every instance", all_ok)
    return report


def experiment_lemmas(corpus_size: int = 30, seed: int = 13) -> ExperimentReport:
    """E9: structural lemmas (2, 3, 4, 6, 7) checked over a random query corpus."""
    report = ExperimentReport("E9", "Lemmas 2–7 — structural properties of attack graphs")
    corpus = [q for q in mixed_corpus(corpus_size, seed=seed) if not q.has_self_join]
    checked = 0
    failures: Dict[str, int] = {}
    for query in corpus:
        try:
            graph = AttackGraph(query)
        except Exception:
            continue
        checked += 1
        for name, holds in lemma_report(graph):
            if not holds:
                failures[name] = failures.get(name, 0) + 1
    report.set_columns("quantity", "value")
    report.add_row("queries checked", checked)
    report.add_row("lemma violations", sum(failures.values()))
    for name, count in sorted(failures.items()):
        report.add_row(f"violations of {name}", count)
    report.add_check("no lemma is violated on any corpus query", not failures)
    report.add_check("the corpus is non-trivial (≥ 20 acyclic queries)", checked >= 20)
    return report


def experiment_probability_bridge(trials: int = 10, seed: int = 21) -> ExperimentReport:
    """E10: Section 7 — IsSafe, safe plans, Proposition 1, Theorem 6."""
    report = ExperimentReport("E10", "Section 7 — CERTAINTY versus PROBABILITY")
    from ..query.families import fuxman_miller_cfree_example
    from ..query.parser import parse_query

    safe_query = parse_query("Single(x | y)")
    unsafe_queries = [kolaitis_pema_q0(), fuxman_miller_cfree_example(), cycle_query_ac(2)]
    report.set_columns("query", "safe", "CERTAINTY band", "Theorem 6 consistent")
    comparisons = compare_frontiers([safe_query] + unsafe_queries + [figure2_q1()])
    for comparison in comparisons:
        report.add_row(
            str(comparison.query)[:50],
            comparison.safe,
            comparison.classification.band.name,
            comparison.consistent_with_theorem6,
        )
    report.add_check(
        "Theorem 6 (safe ⇒ FO-expressible) holds on every tested query",
        all(c.consistent_with_theorem6 for c in comparisons),
    )
    report.add_check("the single-atom query is safe", is_safe(safe_query))
    report.add_check("q0 is unsafe (PROBABILITY(q0) is #P-hard)", not is_safe(kolaitis_pema_q0()))

    rng = random.Random(seed)
    safe_plan_ok = True
    proposition_ok = True
    for _ in range(trials):
        db = uniform_random_instance(safe_query, seed=rng.randrange(10**9), domain_size=3, facts_per_relation=5)
        bid = BIDDatabase.uniform_repairs(db)
        if probability_safe_plan(bid, safe_query) != probability_by_worlds(bid, safe_query):
            safe_plan_ok = False
        for query in (safe_query, fuxman_miller_cfree_example()):
            db2 = uniform_random_instance(query, seed=rng.randrange(10**9), domain_size=3, facts_per_relation=4)
            if not proposition1_holds(BIDDatabase.uniform_repairs(db2), query):
                proposition_ok = False
    report.add_check("the safe plan matches world enumeration exactly (Theorem 5)", safe_plan_ok)
    report.add_check("Proposition 1 holds on uniform-repair BID databases", proposition_ok)
    return report


def experiment_frontier_census(corpus_size: int = 60, seed: int = 17) -> ExperimentReport:
    """E11: census of complexity bands over a mixed query corpus."""
    report = ExperimentReport("E11", "Section 8 — tractability-frontier census")
    corpus = mixed_corpus(corpus_size, seed=seed)
    classifications = classify_corpus(corpus)
    counts = band_counts(classifications)
    report.set_columns("band", "queries")
    for band, count in counts.items():
        if count:
            report.add_row(band.name, count)
    supported = [c for c in classifications if c.band.is_supported]
    dichotomy = all(
        c.band
        in (
            ComplexityBand.FO,
            ComplexityBand.PTIME_NOT_FO,
            ComplexityBand.PTIME_CYCLE_QUERY,
            ComplexityBand.OPEN_CONJECTURED_P,
            ComplexityBand.CONP_COMPLETE,
        )
        for c in supported
    )
    report.add_check("every supported query lands in one of the paper's bands", dichotomy)
    report.add_check(
        "the corpus exercises at least three distinct bands",
        sum(1 for count in counts.values() if count) >= 3,
    )
    return report


def experiment_counting(trials: int = 10, seed: int = 19) -> ExperimentReport:
    """E12: repair counting is consistent with CERTAINTY and uniform probability."""
    report = ExperimentReport("E12", "#CERTAINTY — repair counting consistency")
    from ..query.families import fuxman_miller_cfree_example

    query = fuxman_miller_cfree_example()
    rng = random.Random(seed)
    consistent = True
    probability_consistent = True
    for _ in range(trials):
        db = uniform_random_instance(query, seed=rng.randrange(10**9), domain_size=3, facts_per_relation=4)
        satisfying = count_satisfying_repairs(db, query)
        total = count_repairs(db)
        certain = certain_brute_force(db, query)
        if certain != (satisfying == total):
            consistent = False
        bid = BIDDatabase.uniform_repairs(db)
        if probability_by_worlds(bid, query) != repair_frequency(db, query):
            probability_consistent = False
    report.set_columns("quantity", "value")
    report.add_row("trials", trials)
    report.add_check("certainty ⇔ all repairs satisfy the query", consistent)
    report.add_check(
        "uniform-repair BID probability equals the satisfying-repair frequency",
        probability_consistent,
    )
    return report


ALL_EXPERIMENTS = {
    "E1": experiment_figure1,
    "E2": experiment_figure2,
    "E3": experiment_figure4,
    "E4": experiment_figure6,
    "E5": experiment_theorem1,
    "E6": experiment_theorem2,
    "E7": experiment_theorem3_agreement,
    "E8": experiment_theorem4_agreement,
    "E9": experiment_lemmas,
    "E10": experiment_probability_bridge,
    "E11": experiment_frontier_census,
    "E12": experiment_counting,
}


def run_all_experiments() -> List[ExperimentReport]:
    """Run every experiment and return the reports (used by EXPERIMENTS.md)."""
    return [factory() for factory in ALL_EXPERIMENTS.values()]
