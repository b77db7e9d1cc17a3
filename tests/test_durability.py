"""Durability tier: segments, changelog, crash recovery, live segments.

The harness convention throughout: *ground truth* is the live database the
mutations actually ran against (and a fresh session's certain answers over
it); *recovered* is whatever :class:`~repro.durability.DurableStore.open`
reconstructs from disk after a simulated crash.  Crash injection edits the
on-disk bytes directly — truncating a changelog mid-record, flipping bytes
inside a checksummed region — and every test asserts recovery lands
exactly on the last committed batch, never on a torn or corrupt suffix.
"""

import pickle
import struct
import zlib

import pytest

from repro import CertaintySession, UncertainDatabase, parse_facts, parse_query
from repro.durability import (
    ChangelogWriter,
    DurableStore,
    SegmentCorruption,
    read_changelog,
    read_segment,
    truncate_changelog,
    write_segment,
)
from repro.incremental import ViewManager
from repro.query import figure2_q1, figure4_query
from repro.query.families import path_query
from repro.model.atoms import Fact
from repro.model.symbols import Constant
from repro.service import CertaintyService
from repro.store import ColumnarFactStore, InternTable
from repro.workloads import apply_batch, mutation_stream, synthetic_instance
from tests.helpers import constructions, open_variant


def band_cases():
    selfjoin = parse_query("R(x | 'c'), R(y | 'c')", free=["x", "y"])
    return [
        pytest.param(open_variant(path_query(3), "x1"), False, id="fo-band"),
        pytest.param(path_query(2), False, id="fo-band-boolean"),
        pytest.param(open_variant(figure4_query(), "x"), False, id="ptime-not-fo"),
        pytest.param(open_variant(figure2_q1(), "z"), True, id="conp-band"),
        pytest.param(selfjoin, True, id="self-join-per-grounding"),
    ]


def certain(db, query, allow):
    with CertaintySession(db, allow_exponential=allow) as session:
        if query.is_boolean:
            return session.is_certain(query)
        return session.certain_answers(query)


def quickstart_db():
    q = parse_query("C(x, y | z), R(x | 'A')")
    facts = parse_facts(
        [
            "C('PODS', 2016 | 'Rome')",
            "C('PODS', 2016 | 'Paris')",
            "C('KDD', 2017 | 'Rome')",
            "R('PODS' | 'A')",
            "R('KDD' | 'A')",
            "R('KDD' | 'B')",
        ],
        schema=q.schema(),
    )
    return q, UncertainDatabase(facts)


# --------------------------------------------------------------------------------
# Segment files
# --------------------------------------------------------------------------------


def live_values(facts):
    """The distinct raw constant values of *facts*."""
    return {value for fact in facts for value in fact.values}


class TestSegments:
    def test_round_trip(self, tmp_path):
        _, db = quickstart_db()
        path = tmp_path / "s.seg"
        n = write_segment(path, db.facts, mutation_version=17)
        assert n == path.stat().st_size
        segment = read_segment(path)
        assert segment.mutation_version == 17
        assert segment.fact_count() == len(db)
        assert sorted(segment.values, key=repr) == sorted(live_values(db.facts), key=repr)
        rebuilt = {
            Fact(schema, tuple(map(Constant, values)))
            for schema, rows in segment.rows().items()
            for values in rows
        }
        assert rebuilt == db.facts

    def test_empty_store_round_trip(self, tmp_path):
        path = tmp_path / "s.seg"
        write_segment(path, (), mutation_version=0)
        segment = read_segment(path)
        assert segment.fact_count() == 0
        assert segment.values == ()
        assert segment.rows() == {}

    def test_bit_flip_anywhere_in_body_is_detected(self, tmp_path):
        _, db = quickstart_db()
        path = tmp_path / "s.seg"
        write_segment(path, db.facts, mutation_version=1)
        data = bytearray(path.read_bytes())
        header_size = struct.calcsize("<4sIQQI")
        for offset in range(header_size, len(data), max(1, (len(data) - header_size) // 7)):
            flipped = bytearray(data)
            flipped[offset] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises(SegmentCorruption):
                read_segment(path)
        path.write_bytes(bytes(data))
        read_segment(path)  # pristine bytes still parse

    def test_truncation_is_detected(self, tmp_path):
        _, db = quickstart_db()
        path = tmp_path / "s.seg"
        write_segment(path, db.facts, mutation_version=1)
        data = path.read_bytes()
        for cut in (3, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(SegmentCorruption):
                read_segment(path)

    def test_bad_magic_is_detected(self, tmp_path):
        path = tmp_path / "s.seg"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(SegmentCorruption):
            read_segment(path)


# --------------------------------------------------------------------------------
# Write-ahead changelog
# --------------------------------------------------------------------------------


def _record(version):
    return (version, (("R", 2, 1, ((version, version),)),), ())


class TestChangelog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        with ChangelogWriter(path, sync="commit") as log:
            for v in range(5):
                log.append(_record(v))
            assert log.records_written == 5
        records, valid_bytes, torn = read_changelog(path)
        assert [r[0] for r in records] == list(range(5))
        assert valid_bytes == path.stat().st_size
        assert not torn

    def test_missing_file_reads_empty(self, tmp_path):
        records, valid_bytes, torn = read_changelog(tmp_path / "absent.log")
        assert records == [] and valid_bytes == 0 and not torn

    def test_torn_tail_stops_at_last_committed(self, tmp_path):
        path = tmp_path / "wal.log"
        with ChangelogWriter(path) as log:
            for v in range(4):
                log.append(_record(v))
        committed = path.stat().st_size
        # A torn write: half of a fifth record lands, then the crash.
        payload = pickle.dumps(_record(4))
        frame = struct.pack("<II", len(payload), zlib.crc32(payload))
        with open(path, "ab") as fh:
            fh.write((frame + payload)[: len(frame) + len(payload) // 2])
        records, valid_bytes, torn = read_changelog(path)
        assert [r[0] for r in records] == list(range(4))
        assert valid_bytes == committed
        assert torn

    def test_corrupt_crc_stops_at_last_committed(self, tmp_path):
        path = tmp_path / "wal.log"
        with ChangelogWriter(path) as log:
            offsets = [0]
            for v in range(4):
                log.append(_record(v))
                offsets.append(log.bytes_written)
        data = bytearray(path.read_bytes())
        data[offsets[2] + struct.calcsize("<II") + 1] ^= 0xFF  # damage record 2
        path.write_bytes(bytes(data))
        records, valid_bytes, torn = read_changelog(path)
        assert [r[0] for r in records] == [0, 1]
        assert valid_bytes == offsets[2]
        assert torn

    def test_truncate_then_append_resumes_cleanly(self, tmp_path):
        path = tmp_path / "wal.log"
        with ChangelogWriter(path) as log:
            log.append(_record(0))
            committed = log.bytes_written
        with open(path, "ab") as fh:
            fh.write(b"\x99" * 7)  # garbage tail
        records, valid_bytes, torn = read_changelog(path)
        assert torn and valid_bytes == committed
        truncate_changelog(path, valid_bytes)
        with ChangelogWriter(path) as log:
            log.append(_record(1))
        records, _, torn = read_changelog(path)
        assert [r[0] for r in records] == [0, 1]
        assert not torn

    def test_rejects_unknown_sync_policy(self, tmp_path):
        with pytest.raises(ValueError):
            ChangelogWriter(tmp_path / "wal.log", sync="eventually")


# --------------------------------------------------------------------------------
# DurableStore: checkpoint, replay, crash recovery
# --------------------------------------------------------------------------------


class TestDurableStore:
    def test_attach_fresh_writes_initial_checkpoint(self, tmp_path):
        _, db = quickstart_db()
        with DurableStore(tmp_path) as durable:
            durable.attach(db)
            assert durable.stats.checkpoints == 1
            (segment,) = tmp_path.glob("segment-*.seg")
            assert read_segment(segment).fact_count() == len(db)
            assert set(durable.facts()) == db.facts

    def test_recovery_restores_facts_and_version(self, tmp_path):
        q, db = quickstart_db()
        durable = DurableStore(tmp_path).attach(db)
        extra = parse_facts(["C('VLDB', 2018 | 'LA')", "R('VLDB' | 'A')"], schema=q.schema())
        db.bulk_add(extra)
        db.discard(extra[0])
        durable.simulate_crash()
        recovered = DurableStore.open(tmp_path)
        assert recovered.mutation_version == db.mutation_version
        assert recovered.stats.replayed_records == 2
        rdb = recovered.database()
        assert rdb.facts == db.facts
        assert rdb.mutation_version == db.mutation_version

    def test_reattach_continues_the_version_sequence(self, tmp_path):
        q, db = quickstart_db()
        DurableStore(tmp_path).attach(db).simulate_crash()
        recovered = DurableStore.open(tmp_path)
        db2 = recovered.database()
        recovered.attach(db2)
        before = db2.mutation_version
        db2.add(parse_facts(["R('Z' | 'A')"], schema=q.schema())[0])
        assert db2.mutation_version == before + 1
        recovered.simulate_crash()
        again = DurableStore.open(tmp_path)
        assert again.mutation_version == before + 1
        assert again.database().facts == db2.facts

    def test_torn_changelog_tail_recovers_last_committed_batch(self, tmp_path):
        q, db = quickstart_db()
        durable = DurableStore(tmp_path).attach(db)
        db.add(parse_facts(["R('X' | 'A')"], schema=q.schema())[0])
        committed_facts = set(db.facts)
        committed_version = db.mutation_version
        durable.simulate_crash()
        wal = next(tmp_path.glob("wal-*.log"))
        with open(wal, "ab") as fh:
            fh.write(b"\x07garbage-half-frame")
        recovered = DurableStore.open(tmp_path)
        assert recovered.stats.torn_tail_bytes > 0
        assert recovered.mutation_version == committed_version
        assert set(recovered.database().facts) == committed_facts
        # Re-attaching truncates the garbage and appends cleanly after it.
        db2 = recovered.database()
        recovered.attach(db2)
        db2.add(parse_facts(["R('Y' | 'A')"], schema=q.schema())[0])
        recovered.simulate_crash()
        final = DurableStore.open(tmp_path)
        assert final.stats.torn_tail_bytes == 0
        assert final.database().facts == db2.facts

    def test_corrupt_record_mid_log_recovers_prefix(self, tmp_path):
        q, db = quickstart_db()
        durable = DurableStore(tmp_path).attach(db)
        frontier = []
        for i in range(4):
            db.add(parse_facts([f"R('N{i}' | 'A')"], schema=q.schema())[0])
            frontier.append((set(db.facts), db.mutation_version, durable._log.bytes_written))
        durable.simulate_crash()
        wal = next(tmp_path.glob("wal-*.log"))
        data = bytearray(wal.read_bytes())
        # Damage the third appended record: recovery must stop after two.
        offset = frontier[1][2]
        data[offset + struct.calcsize("<II") + 1] ^= 0xFF
        wal.write_bytes(bytes(data))
        recovered = DurableStore.open(tmp_path)
        expected_facts, expected_version, _ = frontier[1]
        assert recovered.mutation_version == expected_version
        assert set(recovered.database().facts) == expected_facts
        assert recovered.stats.replayed_records == 2

    def test_corrupt_segment_is_skipped(self, tmp_path):
        _, db = quickstart_db()
        DurableStore(tmp_path).attach(db).simulate_crash()
        segment = next(tmp_path.glob("segment-*.seg"))
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF
        segment.write_bytes(bytes(data))
        recovered = DurableStore.open(tmp_path)
        assert recovered.stats.skipped_segments == 1
        assert recovered.facts() == ()  # no older segment to fall back on

    def test_checkpoint_prunes_superseded_files(self, tmp_path):
        q, db = quickstart_db()
        with DurableStore(tmp_path) as durable:
            durable.attach(db)
            db.add(parse_facts(["R('X' | 'A')"], schema=q.schema())[0])
            durable.checkpoint()
            assert len(list(tmp_path.glob("segment-*.seg"))) == 1
            assert len(list(tmp_path.glob("wal-*.log"))) == 1

    def test_sync_never_loses_only_the_unflushed_tail(self, tmp_path):
        q, db = quickstart_db()
        durable = DurableStore(tmp_path, sync="never").attach(db)
        checkpoint_facts = set(db.facts)
        db.add(parse_facts(["R('X' | 'A')"], schema=q.schema())[0])
        durable.simulate_crash()  # drops the user-space buffer, as a crash would
        recovered = DurableStore.open(tmp_path)
        # The changelog record rode the unflushed buffer: recovery lands on
        # the checkpoint — a committed prefix, never a torn suffix.
        assert set(recovered.database().facts) == checkpoint_facts

    def test_commit_before_attach_is_an_error(self, tmp_path):
        _, db = quickstart_db()
        durable = DurableStore(tmp_path)
        db.register_observer(durable)  # bypassing attach() leaves no changelog
        with pytest.raises(RuntimeError):
            db.add(parse_facts(["R('X' | 'A')"], schema=parse_query("R(x | y)").schema())[0])

    def test_double_attach_is_an_error(self, tmp_path):
        _, db = quickstart_db()
        with DurableStore(tmp_path) as durable:
            durable.attach(db)
            with pytest.raises(RuntimeError):
                durable.attach(db)


# --------------------------------------------------------------------------------
# Randomized crash recovery across the complexity bands
# --------------------------------------------------------------------------------


class TestBandRecoveryEquivalence:
    @pytest.mark.parametrize("query,allow", band_cases())
    def test_recovered_certain_answers_equal_precrash(self, tmp_path, query, allow):
        for seed in range(3):
            workdir = tmp_path / f"seed{seed}"
            db = synthetic_instance(
                query, seed=seed, domain_size=4, witnesses=5, conflict_rate=0.5
            )
            durable = DurableStore(workdir).attach(db)
            stream = mutation_stream(
                query, db, steps=12, seed=seed, batch_range=(1, 4)
            )
            for step, batch in enumerate(stream):
                apply_batch(db, batch)
                if step == 5:
                    durable.checkpoint()  # mid-stream: recovery = segment + tail
            ground_truth = certain(db, query, allow)
            expected_facts = set(db.facts)
            durable.simulate_crash()

            recovered = DurableStore.open(workdir)
            rdb = recovered.database()
            assert set(rdb.facts) == expected_facts
            assert rdb.mutation_version == db.mutation_version
            assert certain(rdb, query, allow) == ground_truth

    @pytest.mark.parametrize("query,allow", band_cases())
    def test_recovered_view_equals_cold_recompute(self, tmp_path, query, allow):
        db = synthetic_instance(
            query, seed=1, domain_size=4, witnesses=5, conflict_rate=0.5
        )
        durable = DurableStore(tmp_path).attach(db)
        for batch in mutation_stream(query, db, steps=8, seed=1, batch_range=(1, 3)):
            apply_batch(db, batch)
        ground_truth = certain(db, query, allow)
        durable.simulate_crash()

        recovered = DurableStore.open(tmp_path)
        rdb = recovered.database()
        with ViewManager(rdb, allow_exponential=allow) as manager:
            view = manager.register(query)
            if query.is_boolean:
                assert view.is_certain == ground_truth
            else:
                assert view.answers == ground_truth


# --------------------------------------------------------------------------------
# Live segments: a checkpoint writes the live facts' constants, nothing more
# --------------------------------------------------------------------------------


class TestLiveSegments:
    @pytest.mark.parametrize(
        "generations,size,kept",
        [(5, 20, 1), (4, 20, 3), (5, 4, 1)],
        ids=["5x20-keep1", "4x20-keep3", "5x4-keep1"],
    )
    def test_checkpoint_writes_only_live_constants(self, tmp_path, generations, size, kept):
        """Write generations of fresh facts, discard all but the last *kept*."""
        schema = parse_query("R(x | y)").schema()
        db = UncertainDatabase(schema=schema)
        durable = DurableStore(tmp_path).attach(db)
        batches = [
            parse_facts([f"R('k{g}-{i}' | 'v{g}-{i}')" for i in range(size)], schema=schema)
            for g in range(generations)
        ]
        for facts in batches:
            db.bulk_add(facts)
        for facts in batches[:-kept]:
            db.bulk_discard(facts)
        summary = durable.checkpoint()
        segment = read_segment(summary["segment"])
        live = live_values(db.facts)
        assert set(segment.values) == live
        assert len(segment.values) == len(live)
        durable.close()

    @pytest.mark.parametrize("query,allow", band_cases())
    def test_recovery_after_churn(self, tmp_path, query, allow):
        db = synthetic_instance(
            query, seed=2, domain_size=4, witnesses=5, conflict_rate=0.5
        )
        durable = DurableStore(tmp_path).attach(db)
        db.bulk_discard(list(db.facts))  # churn: every first-generation fact goes
        stream = mutation_stream(
            query, db, steps=16, seed=2, domain_size=6, batch_range=(1, 4)
        )
        for step, batch in enumerate(stream):
            apply_batch(db, batch)
            if step == 7:
                durable.checkpoint()  # then more writes land in the changelog
        ground_truth = certain(db, query, allow)
        expected_facts, expected_version = set(db.facts), db.mutation_version
        durable.simulate_crash()

        recovered = DurableStore.open(tmp_path)
        assert recovered.stats.replayed_records > 0
        rdb = recovered.database()
        assert set(rdb.facts) == expected_facts
        assert rdb.mutation_version == expected_version
        assert certain(rdb, query, allow) == ground_truth


# --------------------------------------------------------------------------------
# Service-layer durability
# --------------------------------------------------------------------------------


class TestServiceDurability:
    def test_tenant_recovers_across_service_restart(self, tmp_path):
        q, db = quickstart_db()
        with CertaintyService(durability_dir=tmp_path) as svc:
            tenant = svc.create_tenant("acme", facts=db.facts)
            answers = svc.certain_answers("acme", q, timeout=10)
            svc.apply("acme", [("add", parse_facts(["R('X' | 'A')"], schema=q.schema())[0])])
            expected = tenant.db.facts
            tenant.durable.simulate_crash()  # no checkpoint, no clean close

        with CertaintyService(durability_dir=tmp_path) as svc2:
            assert svc2.tenants == ("acme",)  # rediscovered from disk
            tenant2 = svc2.tenant("acme")
            assert tenant2.db.facts == expected
            assert svc2.certain_answers("acme", q, timeout=10) == answers
            assert tenant2.stats()["durability"]["mutation_version"] > 0

    def test_durable_tenant_keeps_one_encoded_copy(self, tmp_path):
        """The durable tier logs facts, so the session's store and table are
        the tenant's only encoded copy of its data."""
        q, db = quickstart_db()
        writes = parse_facts([f"R('N{i}' | 'A')" for i in range(10)], schema=q.schema())
        with constructions(ColumnarFactStore, InternTable) as built:
            with CertaintyService(durability_dir=tmp_path) as svc:
                tenant = svc.create_tenant("acme", facts=db.facts)
                for fact in writes:
                    svc.apply("acme", [("add", fact)])
                svc.checkpoint("acme")
                svc.checkpoint("acme")
                verdict = svc.is_certain("acme", q, timeout=10)
                assert tenant.durable.stats.checkpoints == 3
        assert verdict == certain(UncertainDatabase(db.facts | set(writes)), q, False)
        assert built == {"ColumnarFactStore": 1, "InternTable": 1}

    def test_recovered_state_wins_over_facts_argument(self, tmp_path):
        q, db = quickstart_db()
        with CertaintyService(durability_dir=tmp_path) as svc:
            svc.create_tenant("acme", facts=db.facts)
        with CertaintyService(durability_dir=tmp_path) as svc2:
            with pytest.raises(ValueError):
                svc2.create_tenant("acme")  # already recovered at startup
            assert svc2.tenant("acme").db.facts == db.facts

    def test_checkpoint_all(self, tmp_path):
        q, db = quickstart_db()
        with CertaintyService(durability_dir=tmp_path) as svc:
            svc.create_tenant("a", facts=db.facts)
            svc.create_tenant("b")
            summaries = svc.checkpoint_all()
            assert set(summaries) == {"a", "b"}
            assert all(s is not None for s in summaries.values())

    def test_non_durable_service_checkpoint_is_none(self):
        with CertaintyService() as svc:
            svc.create_tenant("a")
            assert svc.checkpoint("a") is None
            assert svc.tenant("a").stats()["durability"] is None
