"""Tests for the workload generators, paper instances, and experiment harness."""

import pytest

from repro.certainty import certain_by_enumeration, is_certain, is_purified
from repro.core import ComplexityBand, classify
from repro.experiments import ALL_EXPERIMENTS, ExperimentReport, run_all_experiments
from repro.model.repairs import is_repair
from repro.query import cycle_query_ac, fuxman_miller_cfree_example, is_acyclic, satisfies
from repro.workloads import (
    figure1_database,
    figure6_database,
    figure7_falsifying_repairs,
    mixed_corpus,
    named_corpus,
    planted_certain_instance,
    random_acyclic_query,
    random_corpus,
    ring_instance,
    scaling_instances,
    synthetic_instance,
    uniform_random_instance,
)

from tests.helpers import outputs_under_hash_seeds


class TestGenerators:
    def test_synthetic_instance_deterministic(self):
        query = fuxman_miller_cfree_example()
        first = synthetic_instance(query, seed=3)
        second = synthetic_instance(query, seed=3)
        assert first.facts == second.facts

    def test_synthetic_instance_is_the_same_under_other_hash_seeds(self):
        """A seed names one instance in every process: the generator's RNG
        draws must not follow set iteration order, which string hashing
        salts per interpreter."""
        probe = (
            "from repro.query.families import path_query\n"
            "from repro.workloads import synthetic_instance\n"
            "db = synthetic_instance(path_query(3), seed=2, domain_size=6, witnesses=12)\n"
            "print(sorted(map(str, db.facts)))\n"
        )
        assert len(outputs_under_hash_seeds(probe, seeds=("1", "2"))) == 1

    def test_mutation_streams_are_the_same_under_other_hash_seeds(self):
        """A seed names one live mutation stream in every process."""
        probe = (
            "from repro.query.families import path_query\n"
            "from repro.workloads import apply_batch, bursty_mutation_stream,"
            " mutation_stream, synthetic_instance\n"
            "query = path_query(3)\n"
            "for stream in (mutation_stream, bursty_mutation_stream):\n"
            "    db = synthetic_instance(query, seed=2, domain_size=6, witnesses=12)\n"
            "    for batch in stream(query, db, steps=40, seed=5):\n"
            "        print([(op, str(arg)) for op, arg in batch])\n"
            "        apply_batch(db, batch)\n"
        )
        (output,) = outputs_under_hash_seeds(probe)
        assert "'discard'" in output

    def test_synthetic_instance_covers_all_relations(self):
        query = fuxman_miller_cfree_example()
        db = synthetic_instance(query, seed=1)
        for atom in query.atoms:
            assert any(f.relation.name == atom.relation.name for f in db.facts)

    def test_conflict_rate_creates_conflicts(self):
        query = fuxman_miller_cfree_example()
        db = synthetic_instance(query, seed=2, conflict_rate=1.0, witnesses=5, noise_per_relation=5)
        assert any(len(block) > 1 for block in db.blocks())

    def test_planted_certain_instance_is_certain(self):
        query = fuxman_miller_cfree_example()
        for seed in range(5):
            db = planted_certain_instance(query, seed=seed)
            assert certain_by_enumeration(db, query)
            assert is_certain(db, query)

    def test_uniform_random_instance_size(self):
        query = fuxman_miller_cfree_example()
        db = uniform_random_instance(query, seed=0, facts_per_relation=6)
        assert len(db) <= 12 and len(db) >= 2

    def test_scaling_instances_grow(self):
        query = fuxman_miller_cfree_example()
        instances = scaling_instances(query, sizes=[2, 6, 12], seed=0)
        sizes = [len(db) for _, db in instances]
        assert sizes[0] < sizes[-1]


class TestPaperInstances:
    def test_figure1_database_shape(self):
        db = figure1_database()
        assert len(db) == 6 and db.num_blocks() == 4
        assert sum(len(block) > 1 for block in db.blocks()) == 2

    def test_figure6_is_purified_and_not_certain(self):
        db = figure6_database()
        query = cycle_query_ac(3)
        assert is_purified(db, query)
        assert not certain_by_enumeration(db, query)

    def test_figure7_repairs(self):
        db = figure6_database()
        query = cycle_query_ac(3)
        repairs = figure7_falsifying_repairs()
        assert len(repairs) == 2
        for repair in repairs:
            assert is_repair(db, repair)
            assert not satisfies(repair, query)

    def test_ring_instance_matches_oracle(self):
        for with_sk in (True, False):
            query, db = ring_instance(3, copies=2, chords=1, seed=4, with_sk=with_sk)
            assert is_certain(db, query) == certain_by_enumeration(db, query)


class TestCorpora:
    def test_random_acyclic_query_is_acyclic_and_self_join_free(self):
        for seed in range(20):
            query = random_acyclic_query(seed=seed, atoms=4)
            assert not query.has_self_join
            assert is_acyclic(query)

    def test_random_corpus_size_and_determinism(self):
        first = random_corpus(10, seed=5)
        second = random_corpus(10, seed=5)
        assert len(first) == 10 and first == second

    def test_named_corpus_contains_paper_queries(self):
        names = {tuple(sorted(q.relation_names)) for q in named_corpus()}
        assert any("S3" in relations for relations in names)

    def test_mixed_corpus_classifiable(self):
        corpus = mixed_corpus(10, seed=3)
        bands = {classify(q).band for q in corpus}
        assert ComplexityBand.FO in bands


class TestExperiments:
    @pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS), ids=sorted(ALL_EXPERIMENTS))
    def test_each_experiment_passes_its_checks(self, experiment_id):
        report = ALL_EXPERIMENTS[experiment_id]()
        assert isinstance(report, ExperimentReport)
        failed = [check.claim for check in report.checks if not check.holds]
        assert not failed, f"{experiment_id} failed checks: {failed}"

    def test_reports_render(self):
        report = ALL_EXPERIMENTS["E1"]()
        rendered = report.render()
        assert "E1" in rendered and "PASS" in rendered

    def test_run_all_experiments_returns_twelve_reports(self):
        reports = run_all_experiments()
        assert len(reports) == 12
        assert all(report.all_checks_pass for report in reports)
