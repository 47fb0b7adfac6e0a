"""Sharded multi-host runs (``--shard K/N``), streaming results
(``--stream``) and ``picola merge``.

Covers the protocol invariants: the deterministic partition (N shards
cover every unit exactly once), self-describing shard checkpoints,
kill-one-shard-and-resume, merge validation (tag/spec/params
mismatches, duplicate/missing shards, foreign or missing cells), and
the headline guarantee — a merged report renders **byte-identical**
to an unsharded run, for all four experiments and for stream files.
"""

import json

import pytest

from repro.harness.ablation import run_ablation
from repro.harness.cli import main
from repro.harness.merge import merge_files
from repro.harness.shard import (
    ShardSpec,
    StreamWriter,
    build_meta,
    parse_shard,
    read_stream,
)
from repro.harness.sweep import run_seed_sweep
from repro.harness.table1 import run_table1
from repro.harness.table2 import run_table2
from repro.runtime import (
    Checkpoint,
    CheckpointError,
    InvalidSpecError,
    SolverTimeout,
    faults,
)


class TestShardSpec:
    def test_partition_covers_every_unit_exactly_once(self):
        """The defining property: over all N shards, the partitions
        are disjoint and their union is the full unit list."""
        keys = [f"u{i}" for i in range(17)]
        for total in (1, 2, 3, 5, 16, 17, 20):
            parts = [
                ShardSpec(index=k, total=total).partition(keys)
                for k in range(1, total + 1)
            ]
            flat = [key for part in parts for key in part]
            assert sorted(flat) == sorted(keys)  # cover, no overlap
            assert len(flat) == len(keys)

    def test_partition_is_round_robin_and_ordered(self):
        keys = ["a", "b", "c", "d", "e"]
        assert ShardSpec(1, 2).partition(keys) == ["a", "c", "e"]
        assert ShardSpec(2, 2).partition(keys) == ["b", "d"]
        # a shard beyond the list length simply owns nothing
        assert ShardSpec(7, 8).partition(["a", "b"]) == []

    def test_parse_shard(self):
        assert parse_shard("2/3") == ShardSpec(index=2, total=3)
        assert str(parse_shard("2/3")) == "2/3"
        for bad in ("", "3", "0/2", "3/2", "-1/2", "a/b", "1/2/3"):
            with pytest.raises(InvalidSpecError):
                parse_shard(bad)

    def test_dict_round_trip(self):
        spec = ShardSpec(index=3, total=4)
        assert ShardSpec.from_dict(spec.to_dict()) == spec


class TestShardCheckpointMeta:
    def test_shard_checkpoint_is_self_describing(self, tmp_path):
        path = tmp_path / "s1.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=path, shard="1/2",
        )
        ckpt = Checkpoint(path)
        assert ckpt.meta["experiment"] == "table1"
        assert ckpt.meta["shard"] == {"index": 1, "total": 2}
        assert ckpt.meta["units"] == ["lion9", "ex3"]
        assert ckpt.meta["params"]["include_enc"] is False
        assert ckpt.keys() == ["lion9"]  # shard 1/2 of two rows

    def test_resume_refuses_mismatched_run_spec(self, tmp_path):
        path = tmp_path / "s1.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=path, shard="1/2",
        )
        # same file, different unit universe -> different meta
        with pytest.raises(CheckpointError):
            run_table1(
                ["lion9", "ex3", "opus"], include_enc=False,
                checkpoint=path, shard="1/2",
            )
        # ... different shard spec
        with pytest.raises(CheckpointError):
            run_table1(
                ["lion9", "ex3"], include_enc=False,
                checkpoint=path, shard="2/2",
            )
        # ... different params
        with pytest.raises(CheckpointError):
            run_table1(
                ["lion9", "ex3"], include_enc=False, seed=9,
                checkpoint=path, shard="1/2",
            )

    def test_sharded_resume_refuses_plain_checkpoint(self, tmp_path):
        path = tmp_path / "plain.json"
        run_table1(["lion9"], include_enc=False, checkpoint=path)
        with pytest.raises(CheckpointError):
            run_table1(
                ["lion9"], include_enc=False,
                checkpoint=path, shard="1/1",
            )

    def test_unsharded_resume_still_ignores_params(self, tmp_path):
        """Legacy behavior is preserved: without --shard no meta is
        stamped, so resuming with different knobs keeps working."""
        path = tmp_path / "plain.json"
        run_table1(["lion9"], include_enc=False, checkpoint=path)
        assert Checkpoint(path).meta is None
        report = run_table1(
            ["lion9"], include_enc=False, seed=9, checkpoint=path
        )
        assert report.rows[0].ok


class TestKillAndResumeShard:
    def test_killed_shard_resumes_then_merges(self, tmp_path):
        """Kill one shard mid-run; its checkpoint holds the finished
        cells, a resume completes the remainder, and the merge then
        succeeds."""
        fsms = ["lion9", "ex3", "opus", "train11"]
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        run_table1(
            fsms, include_enc=False, checkpoint=s2, shard="2/2"
        )
        # shard 1 owns lion9 and opus; die on opus
        with faults.inject("table1.row", KeyboardInterrupt, key="opus"):
            with pytest.raises(KeyboardInterrupt):
                run_table1(
                    fsms, include_enc=False,
                    checkpoint=s1, shard="1/2",
                )
        killed = Checkpoint(s1)
        assert killed.is_done("lion9") and not killed.is_done("opus")

        # an incomplete shard is rejected with a pointed diagnostic
        with pytest.raises(CheckpointError, match="missing 1 cell"):
            merge_files([s1, s2])

        with faults.inject(
            "table1.row", SolverTimeout, key="lion9"
        ) as fault:
            run_table1(
                fsms, include_enc=False, checkpoint=s1, shard="1/2"
            )
            assert fault.fired == 0  # finished cell was not re-run
        merged, experiment = merge_files([s1, s2])
        assert experiment == "table1"
        unsharded = run_table1(fsms, include_enc=False)
        assert merged.render() == unsharded.render()


class TestMergeValidation:
    def _two_shards(self, tmp_path, **kwargs):
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=s1, shard="1/2", **kwargs,
        )
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=s2, shard="2/2", **kwargs,
        )
        return s1, s2

    def test_merge_needs_files(self):
        with pytest.raises(CheckpointError):
            merge_files([])

    def test_rejects_mismatched_experiments(self, tmp_path):
        t1 = tmp_path / "t1.json"
        t2 = tmp_path / "t2.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=t1, shard="1/2",
        )
        run_table2(["dk16", "s386"], checkpoint=t2, shard="2/2")
        with pytest.raises(CheckpointError, match="cannot merge"):
            merge_files([t1, t2])

    def test_rejects_disagreeing_unit_universe(self, tmp_path):
        s1 = tmp_path / "s1.json"
        s2 = tmp_path / "s2.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=s1, shard="1/2",
        )
        run_table1(
            ["lion9", "opus"], include_enc=False,
            checkpoint=s2, shard="2/2",
        )
        with pytest.raises(CheckpointError, match="unit universe"):
            merge_files([s1, s2])

    def test_rejects_disagreeing_params(self, tmp_path):
        s1 = tmp_path / "s1.json"
        s2 = tmp_path / "s2.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=s1, shard="1/2",
        )
        run_table1(
            ["lion9", "ex3"], include_enc=False, seed=9,
            checkpoint=s2, shard="2/2",
        )
        with pytest.raises(CheckpointError, match="params"):
            merge_files([s1, s2])

    def test_rejects_disagreeing_shard_totals(self, tmp_path):
        s1 = tmp_path / "s1.json"
        s2 = tmp_path / "s2.json"
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=s1, shard="1/1",
        )
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=s2, shard="2/2",
        )
        with pytest.raises(CheckpointError, match="totals must agree"):
            merge_files([s1, s2])

    def test_rejects_duplicate_shards(self, tmp_path):
        s1, _ = self._two_shards(tmp_path)
        with pytest.raises(CheckpointError, match="duplicate shard"):
            merge_files([s1, s1])

    def test_rejects_missing_shards(self, tmp_path):
        s1, _ = self._two_shards(tmp_path)
        with pytest.raises(
            CheckpointError, match="missing shard file"
        ):
            merge_files([s1])

    def test_rejects_foreign_cells(self, tmp_path):
        """A cell outside the shard's own partition means the files
        overlap or were tampered with."""
        s1, s2 = self._two_shards(tmp_path)
        data = json.loads(s1.read_text())
        data["completed"]["ex3"] = data["completed"]["lion9"]
        s1.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="outside shard"):
            merge_files([s1, s2])

    def test_rejects_plain_checkpoint(self, tmp_path):
        plain = tmp_path / "plain.json"
        run_table1(["lion9"], include_enc=False, checkpoint=plain)
        with pytest.raises(
            CheckpointError, match="not a shard checkpoint"
        ):
            merge_files([plain])

    def test_rejects_unknown_schema(self, tmp_path):
        s1, s2 = self._two_shards(tmp_path)
        data = json.loads(s1.read_text())
        data["meta"]["schema"] = 99
        s1.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="schema"):
            merge_files([s1, s2])


class TestMergedRendersByteIdentical:
    """The headline guarantee, per experiment: run N shards, merge,
    compare the rendered report (and JSON modulo wall-clock fields)
    against a plain unsharded run."""

    def test_table1(self, tmp_path):
        fsms = ["lion9", "ex3", "opus"]
        shards = []
        for k in (1, 2):
            path = tmp_path / f"s{k}.json"
            run_table1(
                fsms, include_enc=False,
                checkpoint=path, shard=f"{k}/2",
            )
            shards.append(path)
        merged, _ = merge_files(shards)
        unsharded = run_table1(fsms, include_enc=False)
        assert merged.render() == unsharded.render()

    def test_table1_failed_rows_survive_the_merge(self, tmp_path):
        fsms = ["lion9", "ex3"]
        shards = []
        with faults.inject(
            "table1.row", SolverTimeout, key="ex3", times=2
        ):
            for k in (1, 2):
                path = tmp_path / f"s{k}.json"
                run_table1(
                    fsms, include_enc=False,
                    checkpoint=path, shard=f"{k}/2",
                )
                shards.append(path)
            merged, _ = merge_files(shards)
            unsharded = run_table1(fsms, include_enc=False)
        assert merged.n_failed == 1
        assert merged.render() == unsharded.render()

    @pytest.mark.parametrize("site,key,fsms,run", [
        ("table2.row", "s386", ["dk16", "s386"], run_table2),
        ("ablation.fsm", "ex3", ["lion9", "ex3"],
         lambda fsms, **kw: run_ablation(fsms, ["full"], **kw)),
        ("sweep.benchmark", "1/ex3", ["lion9", "ex3"],
         lambda fsms, **kw: run_seed_sweep(fsms, seeds=(0, 1), **kw)),
    ], ids=["table2", "ablation", "sweep"])
    def test_failed_cells_survive_the_merge(
        self, tmp_path, site, key, fsms, run
    ):
        """test_table1_failed_rows_survive_the_merge for the other
        three experiments: each one's failure payload and fold."""
        import re

        shards = []
        with faults.inject(site, SolverTimeout, key=key, times=2):
            for k in (1, 2):
                path = tmp_path / f"s{k}.json"
                run(fsms, checkpoint=path, shard=f"{k}/2")
                shards.append(path)
            merged, _ = merge_files(shards)
            unsharded = run(fsms)
        assert merged.n_failed == 1
        # Table II's time ratios differ between live runs; mask them
        assert re.sub(r"\d+\.\d+", "#", merged.render()) == re.sub(
            r"\d+\.\d+", "#", unsharded.render()
        )

    def test_table2(self, tmp_path):
        fsms = ["dk16", "s386"]
        shards = []
        for k in (1, 2):
            path = tmp_path / f"s{k}.json"
            run_table2(fsms, checkpoint=path, shard=f"{k}/2")
            shards.append(path)
        merged, _ = merge_files(shards)
        unsharded = run_table2(fsms)
        # Table II renders wall-clock time *ratios*, which no two
        # live runs share — mask them; everything else must match
        # byte for byte (the merge replays the shard cells verbatim,
        # ratios included, so merged == its own shards exactly)
        import re

        def mask_times(text):
            return re.sub(r"\d+\.\d+", "#", text)

        assert mask_times(merged.render()) == mask_times(
            unsharded.render()
        )
        # JSON too, modulo the wall-clock fields
        from repro.harness.serialize import to_dict

        def scrub(data):
            for row in data["rows"]:
                row["seconds"] = None
                row["time_ratios"] = None
            return data

        assert scrub(to_dict(merged)) == scrub(to_dict(unsharded))

    def test_ablation(self, tmp_path):
        fsms = ["lion9", "ex3", "opus"]
        variants = ["full", "no_guides"]
        shards = []
        for k in (1, 2, 3):
            path = tmp_path / f"s{k}.json"
            run_ablation(
                fsms, variants, checkpoint=path, shard=f"{k}/3"
            )
            shards.append(path)
        merged, _ = merge_files(shards)
        unsharded = run_ablation(fsms, variants)
        assert merged.render() == unsharded.render()

    def test_sweep(self, tmp_path):
        fsms = ["lion9", "ex3"]
        shards = []
        for k in (1, 2):
            path = tmp_path / f"s{k}.json"
            run_seed_sweep(
                fsms, seeds=(0, 1),
                checkpoint=path, shard=f"{k}/2",
            )
            shards.append(path)
        merged, _ = merge_files(shards)
        unsharded = run_seed_sweep(fsms, seeds=(0, 1))
        assert merged.render() == unsharded.render()


class TestStreaming:
    def test_stream_file_round_trips(self, tmp_path):
        stream = tmp_path / "run.jsonl"
        report = run_table1(
            ["lion9", "ex3"], include_enc=False, stream=stream
        )
        lines = [
            json.loads(line)
            for line in stream.read_text().splitlines()
        ]
        assert [e["type"] for e in lines] == [
            "header", "cell", "cell", "end",
        ]
        assert lines[0]["experiment"] == "table1"
        assert lines[0]["shard"] is None
        assert lines[-1]["cells"] == 2
        meta, completed = read_stream(stream)
        assert sorted(completed) == ["ex3", "lion9"]
        # an unsharded stream merges on its own, as shard 1/1
        merged, _ = merge_files([stream], from_stream=True)
        assert merged.render() == report.render()

    def test_stream_tolerates_torn_final_line(self, tmp_path):
        stream = tmp_path / "run.jsonl"
        run_table1(
            ["lion9", "ex3"], include_enc=False, stream=stream
        )
        text = stream.read_text().splitlines()
        # drop the end marker and tear the last cell mid-JSON
        torn = "\n".join(text[:-2] + [text[-2][: len(text[-2]) // 2]])
        stream.write_text(torn)
        meta, completed = read_stream(stream)
        assert list(completed) == ["lion9"]

    def test_stream_rejects_non_stream_files(self, tmp_path):
        bad = tmp_path / "nope.jsonl"
        bad.write_text('{"type":"cell","key":"x","payload":{}}\n')
        with pytest.raises(CheckpointError, match="header"):
            read_stream(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            read_stream(empty)

    def test_stream_last_write_wins(self, tmp_path):
        meta = build_meta("table1", ["a"], {}, None)
        stream = tmp_path / "dup.jsonl"
        writer = StreamWriter(stream, meta)
        writer.emit_cell("a", {"v": 1})
        writer.emit_cell("a", {"v": 2}, resumed=True)
        writer.close()
        _, completed = read_stream(stream)
        assert completed == {"a": {"v": 2}}

    def test_sharded_streams_merge_like_checkpoints(self, tmp_path):
        fsms = ["lion9", "ex3", "opus"]
        streams = []
        for k in (1, 2):
            path = tmp_path / f"s{k}.jsonl"
            run_table1(
                fsms, include_enc=False,
                stream=path, shard=f"{k}/2",
            )
            streams.append(path)
        merged, _ = merge_files(streams, from_stream=True)
        # auto-detection handles stream files without the flag too
        detected, _ = merge_files(streams)
        unsharded = run_table1(fsms, include_enc=False)
        assert merged.render() == unsharded.render()
        assert detected.render() == unsharded.render()


class TestFuzzSharding:
    def test_sharded_fuzz_streams_merge_byte_identical(self, tmp_path):
        from repro.fuzz import FuzzConfig, run_fuzz

        base = dict(
            solver="picola", generators=("random",),
            max_examples=6, seed=3, scale=8, timeout=10.0,
        )
        streams = []
        for k in (1, 2):
            path = tmp_path / f"f{k}.jsonl"
            config = FuzzConfig(
                **base, shard=f"{k}/2", stream=str(path)
            )
            report = run_fuzz(config)
            assert len(report.outcomes) == 3  # this shard's half
            streams.append(path)
        merged, experiment = merge_files(streams, from_stream=True)
        assert experiment == "fuzz"
        unsharded = run_fuzz(FuzzConfig(**base))
        assert merged.render() == unsharded.render()
        assert [o.key for o in merged.outcomes] == [
            o.key for o in unsharded.outcomes
        ]
        assert [o.classification for o in merged.outcomes] == [
            o.classification for o in unsharded.outcomes
        ]


class TestCliEndToEnd:
    def _table_of(self, text):
        """The deterministic tail of a command's output: everything
        from the table border on (verbose per-row progress lines and
        the merge banner differ by construction)."""
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line and set(line) == {"="}:  # the title underline
                return "\n".join(lines[i - 1:])
        raise AssertionError(f"no table in output:\n{text}")

    def test_shard_merge_matches_unsharded(self, tmp_path, capsys):
        args = ["table1", "--fsm", "lion9", "ex3", "opus", "--no-enc"]
        shard_files = []
        for k in (1, 2):
            ckpt = tmp_path / f"s{k}.json"
            stream = tmp_path / f"s{k}.jsonl"
            assert main(args + [
                "--shard", f"{k}/2",
                "--resume", str(ckpt), "--stream", str(stream),
            ]) == 0
            shard_files.append(ckpt)
        capsys.readouterr()
        assert main(args) == 0
        unsharded = self._table_of(capsys.readouterr().out)

        assert main(["merge"] + [str(p) for p in shard_files]) == 0
        merged_out = capsys.readouterr().out
        assert "merged 2 shard file(s): table1" in merged_out
        assert self._table_of(merged_out) == unsharded

        streams = [str(tmp_path / f"s{k}.jsonl") for k in (1, 2)]
        assert main(["merge", "--from-stream"] + streams) == 0
        assert self._table_of(capsys.readouterr().out) == unsharded

    def test_merge_json_flag(self, tmp_path, capsys):
        for k in (1, 2):
            assert main([
                "table1", "--fsm", "lion9", "ex3", "--no-enc",
                "--shard", f"{k}/2",
                "--resume", str(tmp_path / f"s{k}.json"),
            ]) == 0
        out = tmp_path / "merged.json"
        assert main([
            "merge", str(tmp_path / "s1.json"),
            str(tmp_path / "s2.json"), "--json", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        assert data["experiment"] == "table1"
        assert [r["fsm"] for r in data["rows"]] == ["lion9", "ex3"]

    def test_bad_shard_spec_is_usage_error(self, capsys):
        assert main([
            "table1", "--fsm", "lion9", "--no-enc", "--shard", "3/2",
        ]) == 2
        assert "shard" in capsys.readouterr().err

    def test_merge_mismatch_is_usage_error(self, tmp_path, capsys):
        run_table1(
            ["lion9", "ex3"], include_enc=False,
            checkpoint=tmp_path / "s1.json", shard="1/2",
        )
        run_table2(
            ["dk16", "s386"],
            checkpoint=tmp_path / "s2.json", shard="2/2",
        )
        assert main([
            "merge", str(tmp_path / "s1.json"),
            str(tmp_path / "s2.json"),
        ]) == 2
        assert "cannot merge" in capsys.readouterr().err

    def test_merge_propagates_failure_exit_code(self, tmp_path):
        with faults.inject(
            "table1.row", SolverTimeout, key="ex3", times=2
        ):
            for k in (1, 2):
                run_table1(
                    ["lion9", "ex3"], include_enc=False,
                    checkpoint=tmp_path / f"s{k}.json",
                    shard=f"{k}/2",
                )
        assert main([
            "merge", str(tmp_path / "s1.json"),
            str(tmp_path / "s2.json"),
        ]) == 1  # failed rows surface, same as the experiment commands
