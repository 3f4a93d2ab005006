import ctypes
import hashlib
import json
import logging
import os
import pathlib
import re
import struct
import subprocess
import sys
import types
import warnings
import weakref

import numpy as np
import pytest

from stylepair import cli, embedcore, evaluator, styler
from stylepair.cli import _emit_json, _from_options, build_parser, main
from stylepair.embedcore import blas_thread_controls, save_embeddings
from stylepair.errors import SingularSystem
from stylepair.styler import GeneratedPairSet, read_generated_pairs, write_generated_pairs
from stylepair.synthgen import SynthConfig
from stylepair.trainer import TrainConfig, init_adapter, save_adapter

from conftest import (GOLDEN_DIR, count_forks, forks_workers, golden, make_set, needs_blas_controls,
                      random_unit_set)


def tree_hashes(root):
    out = {}
    for p in sorted(pathlib.Path(root).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def write_truth(path, mapping):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"kind": "retrieval_truth"}) + "\n")
        for q, c in mapping.items():
            f.write(json.dumps({"query_id": q, "candidate_id": c}) + "\n")


SMALL_SYNTH = ["--queries-per-style", "32", "--pool-size", "192",
               "--dim", "16", "--content-dim", "6"]
SMALL_TRAIN = ["--batch-size", "32"]
BLOCKED_POOL = ["--pool-size", "1100"]   # three row blocks of stylize, the last one ragged


class TestSynthCommand:
    def test_writes_six_embedding_files_and_truth(self, tmp_path):
        out = tmp_path / "data"
        rc = main(["synth", "--out", str(out), "--seed", "7"] + SMALL_SYNTH)
        assert rc == 0
        iemb = sorted(p.name for p in out.glob("*.iemb"))
        assert len(iemb) == 6
        assert (out / "truth.jsonl").exists()

    def test_invalid_fraction_exits_2(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path / "d"),
                   "--held-out-fraction", "1.5"] + SMALL_SYNTH)
        assert rc == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_cross_modal_noise_exits_2(self, tmp_path, caplog, value):
        rc = main(["synth", "--out", str(tmp_path / "d"),
                   "--cross-modal-noise", value] + SMALL_SYNTH)
        assert rc == 2
        assert "error=ConfigInvalid" in caplog.text
        assert not (tmp_path / "d").exists()

    def test_default_options_give_the_default_config_at_the_cli_seed(self):
        assert _from_options(SynthConfig, build_parser().parse_args(["synth", "--out", "d"])) \
            == SynthConfig(seed=7)

    @pytest.mark.parametrize("command", [
        ["train", "--pool", "p", "--styled", "s", "--pairs", "g", "--out", "a"],
        ["pipeline", "--workdir", "w"],
    ])
    def test_default_options_give_the_default_train_config(self, command):
        assert _from_options(TrainConfig, build_parser().parse_args(command)) == TrainConfig()

    def test_repeated_runs_hash_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out", str(out), "--seed", "3"] + SMALL_SYNTH) == 0
        assert tree_hashes(a) == tree_hashes(b)


class TestStageCommands:
    @pytest.fixture()
    def data_dir(self, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), "--seed", "7", "--styles", "1"]
                    + SMALL_SYNTH) == 0
        return out

    def test_match_stylize_filter_train_eval_chain(self, data_dir, tmp_path, capsys):
        d = tmp_path
        queries = str(data_dir / "queries_style0.iemb")
        pool = str(data_dir / "pool.iemb")
        assert main(["match", "--queries", queries, "--pool", pool,
                     "--out", str(d / "pairs.jsonl")]) == 0
        assert main(["stylize", "--queries", queries, "--pool", pool,
                     "--pairs", str(d / "pairs.jsonl"),
                     "--style-out", str(d / "style.iemb"),
                     "--styled-out", str(d / "styled.iemb"),
                     "--tag", "style0", "--seed", "7"]) == 0
        assert main(["filter", "--styled", str(d / "styled.iemb"), "--pool", pool,
                     "--out", str(d / "gen.jsonl"), "--threshold", "0.2"]) == 0
        assert main(["train", "--pool", pool,
                     "--styled", str(d / "styled.iemb"),
                     "--pairs", str(d / "gen.jsonl"),
                     "--out", str(d / "adapter.iemb"),
                     "--loss-log", str(d / "loss.csv"),
                     "--epochs", "1", "--batch-size", "8", "--seed", "7"]) == 0
        assert (d / "loss.csv").read_text().startswith("step,style_tag,loss")
        capsys.readouterr()
        assert main(["eval", "--captions", str(data_dir / "test_captions_style0.iemb"),
                     "--candidates", str(data_dir / "test_clips.iemb"),
                     "--truth", str(data_dir / "truth.jsonl"),
                     "--adapter", str(d / "adapter.iemb")]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert set(rep) >= {"r1", "r5", "r10", "median_rank", "query_count"}

    def test_missing_input_exits_2(self, tmp_path):
        rc = main(["match", "--queries", str(tmp_path / "nope.iemb"),
                   "--pool", str(tmp_path / "nope2.iemb"),
                   "--out", str(tmp_path / "pairs.jsonl")])
        assert rc == 2

    def test_os_errors_exit_1_without_traceback(self, tmp_path, caplog):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main(["synth", "--out", str(taken)] + SMALL_SYNTH) == 1
        assert "error=FileExistsError" in caplog.text
        save_embeddings(make_set([[1.0, 0.0]]), tmp_path / "pool.iemb")
        rc = main(["match", "--queries", str(tmp_path), "--pool", str(tmp_path / "pool.iemb"),
                   "--out", str(tmp_path / "pairs.jsonl")])
        assert rc == 1
        assert "error=IsADirectoryError" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("sigma", ["1e200", "1e308"])
    def test_overflowing_styled_norm_exits_1_naming_the_clip(self, data_dir, tmp_path, caplog,
                                                             sigma):
        queries = str(data_dir / "queries_style0.iemb")
        pool = str(data_dir / "pool.iemb")
        assert main(["match", "--queries", queries, "--pool", pool,
                     "--out", str(tmp_path / "pairs.jsonl")]) == 0
        with warnings.catch_warnings(record=True) as caught:   # pytest's recorder would hide them
            warnings.simplefilter("always")
            rc = main(["stylize", "--queries", queries, "--pool", pool,
                       "--pairs", str(tmp_path / "pairs.jsonl"),
                       "--style-out", str(tmp_path / "style.iemb"),
                       "--styled-out", str(tmp_path / "styled.iemb"), "--noise-sigma", sigma])
        assert rc == 1
        assert "error=NonFiniteValue detail=row id " in caplog.text
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not list(tmp_path.glob("styled.iemb*"))   # neither the file nor its temp

    def test_memory_error_exits_1_without_traceback(self, tmp_path, caplog, monkeypatch):
        # numpy raises a MemoryError subclass for a request it cannot allocate, e.g. at
        # `synth --pool-size 1000000000000`; raising one here allocates nothing
        detail = "Unable to allocate 7.28 TiB for an array with shape (1000000000000, 8)"

        def generate(cfg):
            raise MemoryError(detail)

        monkeypatch.setattr("stylepair.synthgen.generate", generate)
        assert main(["synth", "--out", str(tmp_path / "d")] + SMALL_SYNTH) == 1
        assert [r.getMessage() for r in caplog.records] == [
            f"error=MemoryError detail={detail}"]
        assert "Traceback" not in caplog.text

    def test_negative_threads_exit_2(self, tmp_path, caplog):
        w = tmp_path / "w"
        rc = main(["pipeline", "--workdir", str(w), "--threads", "-5"] + SMALL_SYNTH)
        assert rc == 2
        assert "error=ConfigInvalid" in caplog.text
        assert not w.exists()

    def test_threads_only_on_commands_that_train(self, data_dir, tmp_path, capsys):
        # --threads only on pipeline; --seed only where a stage draws randomness
        out = tmp_path / "out"
        match = ["match", "--queries", str(data_dir / "queries_style0.iemb"),
                 "--pool", str(data_dir / "pool.iemb"), "--out", str(out)]
        styled = ["--styled", str(data_dir / "queries_style0.iemb"),
                  "--pool", str(data_dir / "pool.iemb")]
        cases = [
            (match + ["--threads", "2"], "--threads 2"),
            (["train", *styled, "--pairs", str(out), "--out", str(out), "--threads", "2"],
             "--threads 2"),
            (match + ["--seed", "1"], "--seed 1"),
            (["filter", *styled, "--out", str(out), "--seed", "1"], "--seed 1"),
            (["sweep", *styled, "--out", str(out), "--seed", "1"], "--seed 1"),
            (["eval", "--captions", str(data_dir / "test_captions_style0.iemb"),
              "--candidates", str(data_dir / "test_clips.iemb"),
              "--truth", str(data_dir / "truth.jsonl"),
              "--out", str(out), "--seed", "1"], "--seed 1"),
        ]
        for argv, extra in cases:
            with pytest.raises(SystemExit) as usage:
                main(argv)
            assert usage.value.code == 2
            assert f"unrecognized arguments: {extra}" in capsys.readouterr().err
            assert not out.exists()

    def test_oversized_container_header_exits_1(self, tmp_path, caplog):
        # a 24-byte file whose header claims 2**40 rows (8 TiB of ids)
        huge = tmp_path / "huge.iemb"
        huge.write_bytes(b"IEMB" + struct.pack("<IQII", 1, 2**40, 2, 0))
        save_embeddings(make_set([[1.0, 0.0]]), tmp_path / "pool.iemb")
        rc = main(["match", "--queries", str(huge), "--pool", str(tmp_path / "pool.iemb"),
                   "--out", str(tmp_path / "pairs.jsonl")])
        assert rc == 1
        assert "error=TruncatedFile" in caplog.text
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "pairs.jsonl").exists()

    def test_match_on_empty_query_set_exits_1_before_writing(self, tmp_path, caplog):
        rng = np.random.default_rng(0)
        save_embeddings(make_set(np.empty((0, 16))), tmp_path / "queries.iemb")
        save_embeddings(random_unit_set(rng, 24, 16), tmp_path / "pool.iemb")
        rc = main(["match", "--queries", str(tmp_path / "queries.iemb"),
                   "--pool", str(tmp_path / "pool.iemb"), "--out", str(tmp_path / "pairs.jsonl")])
        assert rc == 1
        assert "error=EmptyStyleSet" in caplog.text
        assert "mean_sim" not in caplog.text
        assert not (tmp_path / "pairs.jsonl").exists()

    def test_filter_keeping_nothing_still_succeeds(self, tmp_path):
        rng = np.random.default_rng(0)
        styled = random_unit_set(rng, 24, 16)
        pool = random_unit_set(rng, 24, 16)
        save_embeddings(styled, tmp_path / "styled.iemb")
        save_embeddings(pool, tmp_path / "pool.iemb")
        rc = main(["filter", "--styled", str(tmp_path / "styled.iemb"),
                   "--pool", str(tmp_path / "pool.iemb"),
                   "--out", str(tmp_path / "gen.jsonl"), "--threshold", "0.99"])
        assert rc == 0
        assert len(read_generated_pairs(tmp_path / "gen.jsonl")) == 0

    @pytest.mark.parametrize("clip_id,row", [(5, 1_000_000), (6, 5)])
    def test_train_rejects_bad_generated_rows(self, tmp_path, clip_id, row):
        rng = np.random.default_rng(0)
        save_embeddings(random_unit_set(rng, 24, 16), tmp_path / "styled.iemb")
        save_embeddings(random_unit_set(rng, 24, 16), tmp_path / "pool.iemb")
        gen = GeneratedPairSet(clip_ids=[3, clip_id], rows=[3, row], sims=[0.5, 0.5],
                               threshold=0.0)
        write_generated_pairs(gen, tmp_path / "gen.jsonl")
        rc = main(["train", "--pool", str(tmp_path / "pool.iemb"),
                   "--styled", str(tmp_path / "styled.iemb"),
                   "--pairs", str(tmp_path / "gen.jsonl"),
                   "--out", str(tmp_path / "adapter.iemb"), "--batch-size", "2"])
        assert rc == 1
        assert not (tmp_path / "adapter.iemb").exists()

    def test_train_rejects_pool_with_same_ids_but_other_rows(self, data_dir, tmp_path, caplog):
        other = tmp_path / "other"
        assert main(["synth", "--out", str(other), "--seed", "9", "--styles", "1"]
                    + SMALL_SYNTH) == 0
        queries = str(data_dir / "queries_style0.iemb")
        pool = str(data_dir / "pool.iemb")
        d = tmp_path
        assert main(["match", "--queries", queries, "--pool", pool,
                     "--out", str(d / "pseudo.jsonl")]) == 0
        assert main(["stylize", "--queries", queries, "--pool", pool,
                     "--pairs", str(d / "pseudo.jsonl"), "--style-out", str(d / "style.iemb"),
                     "--styled-out", str(d / "styled.iemb")]) == 0
        assert main(["filter", "--styled", str(d / "styled.iemb"), "--pool", pool,
                     "--out", str(d / "gen.jsonl")]) == 0
        train = ["train", "--styled", str(d / "styled.iemb"), "--pairs", str(d / "gen.jsonl"),
                 "--out", str(d / "adapter.iemb")] + SMALL_TRAIN
        caplog.clear()
        assert main(train + ["--pool", str(other / "pool.iemb")]) == 1
        assert "error=CountMismatch" in caplog.text
        assert "Traceback" not in caplog.text
        assert not (d / "adapter.iemb").exists()
        assert main(train + ["--pool", pool]) == 0

    def test_queue_capacity_past_the_pairs_trains_like_a_queue_of_all_pairs(self, data_dir,
                                                                           tmp_path):
        queries = str(data_dir / "queries_style0.iemb")
        pool = str(data_dir / "pool.iemb")
        d = tmp_path
        assert main(["match", "--queries", queries, "--pool", pool,
                     "--out", str(d / "pseudo.jsonl")]) == 0
        assert main(["stylize", "--queries", queries, "--pool", pool,
                     "--pairs", str(d / "pseudo.jsonl"), "--style-out", str(d / "style.iemb"),
                     "--styled-out", str(d / "styled.iemb")]) == 0
        assert main(["filter", "--styled", str(d / "styled.iemb"), "--pool", pool,
                     "--out", str(d / "gen.jsonl"), "--threshold", "0.2"]) == 0
        n_pairs = len(read_generated_pairs(d / "gen.jsonl"))
        outputs = []
        for capacity in (n_pairs, 10**20):
            out = d / f"adapter_{len(outputs)}.iemb"
            assert main(["train", "--pool", pool, "--styled", str(d / "styled.iemb"),
                         "--pairs", str(d / "gen.jsonl"), "--out", str(out), "--epochs", "2",
                         "--batch-size", "8", "--queue-capacity", str(capacity)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_stage_chain_matches_pipeline(self, tmp_path):
        # two styles: the pipeline stylizes both in one pass, each subcommand run one
        data, d, w = tmp_path / "data", tmp_path / "chain", tmp_path / "w"
        d.mkdir()
        assert main(["synth", "--out", str(data), "--seed", "7", "--styles", "2"]
                    + SMALL_SYNTH) == 0
        pool = str(data / "pool.iemb")
        flags = ["--seed", "5", "--batch-size", "16", "--epochs", "2"]
        train = ["train", "--pool", pool, "--out", str(d / "adapter.iemb"),
                 "--loss-log", str(d / "loss.csv"), "--mode", "in_style"] + flags
        for tag in ("style0", "style1"):
            queries = str(data / f"queries_{tag}.iemb")
            assert main(["match", "--queries", queries, "--pool", pool,
                         "--out", str(d / f"pseudo_{tag}.jsonl")]) == 0
            assert main(["stylize", "--queries", queries, "--pool", pool,
                         "--pairs", str(d / f"pseudo_{tag}.jsonl"),
                         "--style-out", str(d / f"style_{tag}.iemb"),
                         "--styled-out", str(d / f"styled_{tag}.iemb"),
                         "--tag", tag, "--seed", "5"]) == 0
            assert main(["filter", "--styled", str(d / f"styled_{tag}.iemb"), "--pool", pool,
                         "--out", str(d / f"gen_{tag}.jsonl")]) == 0
            train += ["--styled", str(d / f"styled_{tag}.iemb"),
                      "--pairs", str(d / f"gen_{tag}.jsonl")]
        assert main(train) == 0
        assert main(["pipeline", "--workdir", str(w), "--data-dir", str(data),
                     "--styles", "2"] + SMALL_SYNTH + flags) == 0
        same = [("adapter.iemb", "adapter_in_style.iemb"), ("loss.csv", "loss_in_style.csv")]
        for tag in ("style0", "style1"):
            same += [(f"style_{tag}.iemb", f"style_{tag}.iemb"),
                     (f"styled_{tag}.iemb", f"styled_{tag}.iemb")]
        for mine, theirs in same:
            assert (d / mine).read_bytes() == (w / theirs).read_bytes(), mine
        # the headers name their inputs differently; every record must agree
        for tag in ("style0", "style1"):
            for mine, theirs in [(f"pseudo_{tag}.jsonl", f"pseudo_pairs_{tag}.jsonl"),
                                 (f"gen_{tag}.jsonl", f"generated_pairs_{tag}.jsonl")]:
                ours = (d / mine).read_text().splitlines()
                pipe = (w / theirs).read_text().splitlines()
                assert len(ours) > 1 and ours[1:] == pipe[1:], mine

    @needs_blas_controls
    def test_stylize_at_two_blas_threads_writes_the_pipelines_style_file(self, tmp_path):
        # default scale, where OpenBLAS splits the style map's products across its threads
        # and, under this kernel, the split moves their last bits
        data, w = tmp_path / "data", tmp_path / "w"
        src = os.path.dirname(os.path.dirname(embedcore.__file__))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2",
               "OPENBLAS_CORETYPE": "Haswell"}
        for argv in (["synth", "--out", data, "--seed", "7", "--styles", "1"],
                     ["pipeline", "--workdir", w, "--data-dir", data, "--styles", "1",
                      "--seed", "7", "--epochs", "1"],
                     ["stylize", "--queries", data / "queries_style0.iemb",
                      "--pool", data / "pool.iemb", "--pairs", w / "pseudo_pairs_style0.jsonl",
                      "--style-out", tmp_path / "style.iemb",
                      "--styled-out", tmp_path / "styled.iemb", "--tag", "style0",
                      "--seed", "7"]):
            run = subprocess.run([sys.executable, "-c", PLAIN_MAIN, *map(str, argv)],
                                 capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
        assert (tmp_path / "style.iemb").read_bytes() == (w / "style_style0.iemb").read_bytes()

    def test_bad_knobs_exit_2(self, tmp_path):
        args = ["pipeline", "--workdir", str(tmp_path / "w"), "--styles", "1"]
        assert main(args + ["--threshold", "1.5"]) == 2
        assert main(args + ["--tau", "0"]) == 2
        assert main(args + ["--batch-size", "1"]) == 2

    @pytest.mark.parametrize("command, inputs, outputs", [
        ("stylize", ["--queries", "--pool", "--pairs"], ["--style-out", "--styled-out"]),
        ("train", ["--pool", "--styled", "--pairs"], ["--out", "--loss-log"]),
        ("eval", ["--captions", "--candidates", "--truth"], ["--out", "--ranks-csv"]),
    ])
    def test_two_outputs_at_one_path_exit_2_before_any_input_is_read(self, tmp_path, caplog,
                                                                     command, inputs, outputs):
        argv = [command]
        for flag in inputs:
            argv += [flag, str(tmp_path / "missing")]
        # one file, spelled two ways
        argv += [outputs[0], str(tmp_path / "out"), outputs[1], os.path.join(tmp_path, ".", "out")]
        assert main(argv) == 2
        first, second = (flag[2:].replace("-", "_") for flag in outputs)
        assert f"error=ConfigInvalid detail={first} and {second} name one file" in caplog.text
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, clash", [
        (["match", "--queries", "queries_style0.iemb", "--pool", "pool.iemb",
          "--out", "pool.iemb"], "pool and out"),
        (["filter", "--styled", "pool.iemb", "--pool", "pool.iemb", "--out", "pool.iemb"],
         "pool and out"),
        (["eval", "--captions", "test_captions_style0.iemb", "--candidates", "test_clips.iemb",
          "--truth", "truth.jsonl", "--out", "truth.jsonl"], "truth and out"),
        (["stylize", "--queries", "queries_style0.iemb", "--pool", "pool.iemb",
          "--pairs", "pairs.jsonl", "--style-out", "style.iemb",
          "--styled-out", "pairs.jsonl"], "pairs and styled_out"),
        (["sweep", "--styled", "pool.iemb", "--pool", "pool.iemb", "--config", "c.json",
          "--out", "c.json"], "config and out"),
    ])
    def test_an_output_at_an_input_path_exits_2_and_keeps_the_input(self, data_dir, caplog,
                                                                    argv, clash):
        assert main(["match", "--queries", str(data_dir / "queries_style0.iemb"),
                     "--pool", str(data_dir / "pool.iemb"),
                     "--out", str(data_dir / "pairs.jsonl")]) == 0
        (data_dir / "c.json").write_text("{}")
        before = tree_hashes(data_dir)
        argv = [argv[0], *(a if a.startswith("--") else str(data_dir / a) for a in argv[1:])]
        assert main(argv) == 2
        assert f"error=ConfigInvalid detail={clash} name one file" in caplog.text
        assert tree_hashes(data_dir) == before

    def test_eval_writes_rank_csv(self, tmp_path, capsys):
        basis = make_set(np.eye(3))
        save_embeddings(basis, tmp_path / "caps.iemb")
        save_embeddings(basis, tmp_path / "cands.iemb")
        write_truth(tmp_path / "truth.jsonl", {i: i for i in range(3)})
        rc = main(["eval", "--captions", str(tmp_path / "caps.iemb"),
                   "--candidates", str(tmp_path / "cands.iemb"),
                   "--truth", str(tmp_path / "truth.jsonl"),
                   "--ranks-csv", str(tmp_path / "ranks.csv")])
        assert rc == 0
        lines = (tmp_path / "ranks.csv").read_text().strip().splitlines()
        assert lines[0] == "query_index,rank"
        assert len(lines) == 4

    def test_eval_rejects_an_adapter_with_bytes_appended(self, tmp_path, caplog):
        basis = make_set(np.eye(3))
        save_embeddings(basis, tmp_path / "caps.iemb")
        save_embeddings(basis, tmp_path / "cands.iemb")
        write_truth(tmp_path / "truth.jsonl", {i: i for i in range(3)})
        adapter = tmp_path / "adapter.iemb"
        save_adapter(init_adapter(3), adapter)
        adapter.write_bytes(adapter.read_bytes() * 2)
        rc = main(["eval", "--captions", str(tmp_path / "caps.iemb"),
                   "--candidates", str(tmp_path / "cands.iemb"),
                   "--truth", str(tmp_path / "truth.jsonl"), "--adapter", str(adapter)])
        assert rc == 1
        assert "error=TrailingBytes" in caplog.text
        assert "Traceback" not in caplog.text

    def test_eval_zero_shot_on_identity_fixture(self, tmp_path, capsys):
        basis = make_set(np.eye(5))
        save_embeddings(basis, tmp_path / "caps.iemb")
        save_embeddings(basis, tmp_path / "cands.iemb")
        write_truth(tmp_path / "truth.jsonl", {i: i for i in range(5)})
        rc = main(["eval", "--captions", str(tmp_path / "caps.iemb"),
                   "--candidates", str(tmp_path / "cands.iemb"),
                   "--truth", str(tmp_path / "truth.jsonl")])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["r1"] == 100.0
        assert rep["median_rank"] == 1.0

    def test_eval_zero_shot_flag_is_a_usage_error(self, tmp_path, capsys):
        # eval without --adapter is zero-shot, so no flag asks for it
        with pytest.raises(SystemExit) as usage:
            main(["eval", "--captions", str(tmp_path / "caps.iemb"),
                  "--candidates", str(tmp_path / "cands.iemb"),
                  "--truth", str(tmp_path / "truth.jsonl"), "--zero-shot"])
        assert usage.value.code == 2
        assert "unrecognized arguments: --zero-shot" in capsys.readouterr().err

    def test_sweep_counts_monotone(self, data_dir, tmp_path, capsys):
        queries = str(data_dir / "queries_style0.iemb")
        pool = str(data_dir / "pool.iemb")
        d = tmp_path
        main(["match", "--queries", queries, "--pool", pool,
              "--out", str(d / "p.jsonl")])
        main(["stylize", "--queries", queries, "--pool", pool,
              "--pairs", str(d / "p.jsonl"), "--style-out", str(d / "s.iemb"),
              "--styled-out", str(d / "styled.iemb"), "--seed", "7"])
        capsys.readouterr()
        rc = main(["sweep", "--styled", str(d / "styled.iemb"), "--pool", pool])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["threshold"] for r in rows] == [0.26, 0.27, 0.28, 0.29, 0.30]
        counts = [r["kept"] for r in rows]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("grid", ["0.3,abc", "0.3,0.2", "nan", "", ",", "0.2,inf",
                                      "-1,0.5", "0.5,1", "0.26,,0.28", "0.3,", ",0.3"])
    def test_bad_sweep_grid_exits_2_before_any_input_is_read(self, tmp_path, caplog, capsys,
                                                             grid):
        missing = str(tmp_path / "missing.iemb")
        rc = main(["sweep", "--styled", missing, "--pool", missing, f"--thresholds={grid}"])
        assert rc == 2
        assert "error=ConfigInvalid" in caplog.text
        assert capsys.readouterr().out == ""


def test_malloc_thresholds_are_set_once_per_process_by_training(tmp_path, monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(embedcore, "_libc", lambda: types.SimpleNamespace(mallopt=mallopt))
    held = [(-3, 32 << 20), (-1, 64 << 20)]   # glibc's M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    def calls_of(*argv):
        calls.clear()
        assert main(list(argv)) == 0
        return list(calls)

    w, d = tmp_path / "w", tmp_path
    assert calls_of("pipeline", "--workdir", str(w), "--styles", "1", "--seed", "7",
                    "--epochs", "1", *SMALL_SYNTH, *SMALL_TRAIN) == held
    data = w / "data"
    queries, pool = str(data / "queries_style0.iemb"), str(data / "pool.iemb")
    assert calls_of("train", "--pool", pool, "--styled", str(w / "styled_style0.iemb"),
                    "--pairs", str(w / "generated_pairs_style0.jsonl"),
                    "--out", str(d / "a.iemb"), "--epochs", "1", *SMALL_TRAIN) == held
    assert calls_of("synth", "--out", str(d / "data"), "--styles", "1", *SMALL_SYNTH) == []
    assert calls_of("match", "--queries", queries, "--pool", pool,
                    "--out", str(d / "p.jsonl")) == []
    assert calls_of("stylize", "--queries", queries, "--pool", pool, "--pairs", str(d / "p.jsonl"),
                    "--style-out", str(d / "s.iemb"), "--styled-out", str(d / "styled.iemb")) == []
    assert calls_of("filter", "--styled", str(d / "styled.iemb"), "--pool", pool,
                    "--out", str(d / "g.jsonl")) == []
    assert calls_of("sweep", "--styled", str(d / "styled.iemb"), "--pool", pool) == []
    assert calls_of("eval", "--captions", str(data / "test_captions_style0.iemb"),
                    "--candidates", str(data / "test_clips.iemb"),
                    "--truth", str(data / "truth.jsonl"), "--adapter", str(d / "a.iemb")) == []


FAULTS_PER_STEP = """
import resource, sys
from stylepair import cli, trainer
faults, step = [], trainer.info_nce_loss
def counted(*args):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return step(*args)
trainer.info_nce_loss = counted
assert cli.main(sys.argv[1:]) == 0
print((faults[-1] - faults[0]) / (len(faults) - 1), len(faults))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or getattr(ctypes.CDLL(None), "mallopt", None) is None,
                    reason="glibc malloc on Linux")
def test_standalone_train_does_not_fault_in_its_step_matrices_every_step(tmp_path):
    # each step makes two (128, 128 + 1,024) float64 matrices of 1.2 MB, one at a time
    w = tmp_path / "w"
    assert main(["pipeline", "--workdir", str(w), "--seed", "7", "--epochs", "1",
                 "--queries-per-style", "256", "--pool-size", "4096"]) == 0
    argv = ["train", "--pool", str(w / "data" / "pool.iemb"), "--out", str(tmp_path / "a.iemb"),
            "--queue-capacity", "1024", "--epochs", "2"]
    for tag in ("style0", "style1"):
        argv += ["--styled", str(w / f"styled_{tag}.iemb"),
                 "--pairs", str(w / f"generated_pairs_{tag}.jsonl")]
    src = os.path.dirname(os.path.dirname(embedcore.__file__))
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP, *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    per_step, steps = out.split()
    assert int(steps) > 40
    assert float(per_step) < 30


PLAIN_MAIN = "import sys; from stylepair import cli; sys.exit(cli.main(sys.argv[1:]))"

NUMPY_MA_AFTER_PIPELINE = """
import sys
from stylepair import cli
assert cli.main(sys.argv[1:]) == 0
print("numpy.ma" in sys.modules)
"""


def test_pipeline_never_imports_numpy_ma(tmp_path):
    # importing numpy.ma takes ~15 ms; np.isin and np.unique pull it in on first use
    argv = ["pipeline", "--workdir", str(tmp_path / "w"), "--styles", "2", "--seed", "7",
            "--epochs", "1"] + SMALL_SYNTH + SMALL_TRAIN
    src = os.path.dirname(os.path.dirname(embedcore.__file__))
    out = subprocess.run([sys.executable, "-c", NUMPY_MA_AFTER_PIPELINE, *argv],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True).stdout
    assert out.splitlines()[-1] == "False"


PACKAGE_DIR = os.path.dirname(embedcore.__file__)
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE_DIR)
                 if name.endswith(".py") and name != "__init__.py")


def imports_in_a_fresh_interpreter(code):
    """stdout of `code` run by a new interpreter that finds the package on its path."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE_DIR)},
                          check=True).stdout


def test_importing_the_package_root_loads_none_of_its_modules():
    out = imports_in_a_fresh_interpreter(
        "import sys, stylepair; print(sorted(m for m in sys.modules"
        " if m.startswith('stylepair.') or m == 'numpy'))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    # the root no longer imports its modules in a fixed order, which hid any import cycle
    assert imports_in_a_fresh_interpreter(f"import stylepair.{module}; print('ok')") == "ok\n"


NO_LIBC_BY_NAME = """
import ctypes, sys
real = ctypes.CDLL
def cdll(name, *args, **kwargs):
    if name is None:   # as on Windows, where ctypes tests '/' in name
        raise TypeError("argument of type 'NoneType' is not iterable")
    return real(name, *args, **kwargs)
ctypes.CDLL = cdll
from stylepair import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_pipeline_runs_where_the_c_library_cannot_be_opened_by_name(tmp_path):
    argv = ["pipeline", "--workdir", str(tmp_path / "w"), "--styles", "1", "--seed", "7",
            "--epochs", "1", "--threads", "1"] + SMALL_SYNTH + SMALL_TRAIN
    src = os.path.dirname(os.path.dirname(embedcore.__file__))
    run = subprocess.run([sys.executable, "-c", NO_LIBC_BY_NAME, *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "w" / "report.json").exists()


def test_json_output_refuses_non_finite_numbers(tmp_path, capsys):
    with pytest.raises(ValueError):
        _emit_json({"threshold": float("nan")}, str(tmp_path / "out.json"))
    assert not (tmp_path / "out.json").exists()
    assert capsys.readouterr().out == ""


class TestConfigPrecedence:
    def test_config_file_sets_defaults_and_flags_win(self, tmp_path):
        # `threads` names only pipeline's flag, and loads for synth too
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "styles": 1, "queries_per_style": 32,
                                   "pool_size": 192, "dim": 16, "content_dim": 6, "threads": 2}))
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["synth", "--out", str(a), "--config", str(cfg)]) == 0
        assert main(["synth", "--out", str(b), "--seed", "3", "--styles", "1",
                     "--queries-per-style", "32", "--pool-size", "192",
                     "--dim", "16", "--content-dim", "6"]) == 0
        assert tree_hashes(a) == tree_hashes(b)
        # explicit flag beats the config value
        assert main(["synth", "--out", str(c), "--config", str(cfg),
                     "--seed", "5"]) == 0
        assert tree_hashes(c) != tree_hashes(a)

    @pytest.mark.parametrize("values", [{"epoch": 9}, {"epochs": 2.5}, {"threshold": None},
                                        {"mode": "bogus"}, {"no_ranks": "yes"}])
    def test_unknown_key_or_wrong_type_exits_2_naming_the_key(self, tmp_path, caplog, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        rc = main(["pipeline", "--workdir", str(tmp_path / "w"), "--config", str(cfg),
                   "--styles", "1"] + SMALL_SYNTH + SMALL_TRAIN)
        assert rc == 2
        (key,) = values
        assert "error=ConfigInvalid" in caplog.text and repr(key) in caplog.text
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "w" / "report.json").exists()

    def test_abbreviated_and_repeated_config_flags_apply_the_file_argparse_took(self, tmp_path):
        small = {"seed": 3, "styles": 1, "queries_per_style": 32, "pool_size": 192,
                 "dim": 16, "content_dim": 6}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(small))
        b.write_text(json.dumps({**small, "seed": 4}))
        for out, flags in (("full", ["--config", str(a)]), ("abbrev", ["--conf", str(a)]),
                           ("abbrev_eq", [f"--conf={a}"]),
                           ("first", ["--config", str(b)]),
                           ("last", ["--config", str(b), "--config", str(a)])):
            assert main(["synth", "--out", str(tmp_path / out)] + flags) == 0
        full = tree_hashes(tmp_path / "full")
        assert len(full) == 6
        for out in ("abbrev", "abbrev_eq", "last"):
            assert tree_hashes(tmp_path / out) == full, out
        assert tree_hashes(tmp_path / "first") != full

    @pytest.mark.parametrize("flag", ["--config", "--conf"])
    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", None])
    def test_bad_or_missing_config_file_exits_2(self, tmp_path, caplog, text, flag):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        rc = main(["synth", "--out", str(tmp_path / "out"), flag, str(cfg)])
        assert rc == 2
        assert ("error=MissingInput" if text is None else "error=ConfigInvalid") in caplog.text
        assert not (tmp_path / "out").exists()

    def test_config_switch_acts_like_the_flag(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--seed", "7", "--styles", "1"]
                    + SMALL_SYNTH) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_ranks": True}))
        argv = ["eval", "--captions", str(data / "test_captions_style0.iemb"),
                "--candidates", str(data / "test_clips.iemb"), "--truth", str(data / "truth.jsonl")]
        reports = []
        for extra in ([], ["--no-ranks"], ["--config", str(cfg)]):
            capsys.readouterr()
            assert main(argv + extra) == 0
            reports.append(json.loads(capsys.readouterr().out))
        with_ranks = reports[0]
        assert with_ranks.pop("per_query_ranks")
        assert reports[1] == reports[2] == with_ranks

    def test_config_numbers_act_like_the_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "learning_rate": 1, "threshold": 0}))
        args = ["pipeline", "--styles", "1", "--seed", "7"] + SMALL_SYNTH + SMALL_TRAIN
        assert main(args + ["--workdir", str(tmp_path / "a"), "--config", str(cfg)]) == 0
        assert main(args + ["--workdir", str(tmp_path / "b"), "--epochs", "1",
                            "--learning-rate", "1", "--threshold", "0"]) == 0
        assert tree_hashes(tmp_path / "a") == tree_hashes(tmp_path / "b")


class TestPipelineCommand:
    @needs_blas_controls
    def test_blas_holds_one_thread_in_the_run_and_its_count_after(self, tmp_path, monkeypatch):
        get, set_ = blas_thread_controls()
        seen, rank_queries = [], evaluator.rank_queries

        def ranked(*args, **kwargs):   # eval's products run in the calling process
            seen.append(get())
            return rank_queries(*args, **kwargs)

        def singular(*args, **kwargs):
            seen.append(get())
            raise SingularSystem("no style today")

        monkeypatch.setattr(evaluator, "rank_queries", ranked)
        args = ["pipeline", "--styles", "2", "--seed", "7", "--epochs", "1"] + SMALL_SYNTH \
            + SMALL_TRAIN
        saved = get()
        set_(2)
        try:
            assert main(args + ["--workdir", str(tmp_path / "ok")]) == 0
            assert get() == 2
            monkeypatch.setattr(styler, "fit_style", singular)
            assert main(args + ["--workdir", str(tmp_path / "fails")]) == 1
            assert get() == 2
        finally:
            set_(saved)
        assert len(seen) == 2 * 3 + 2 + 1 and set(seen) == {1}   # zero-shot, two adapters; fit

    def test_single_style_report_sections(self, tmp_path, capsys):
        rc = main(["pipeline", "--workdir", str(tmp_path / "w"), "--styles", "1",
                   "--seed", "7", "--epochs", "1"] + SMALL_SYNTH + SMALL_TRAIN)
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert "zero_shot" in rep and "in_style" in rep
        assert "mixed" not in rep
        assert rep["pair_counts"]["pseudo"] == [32]

    def test_report_records_the_style_map_options(self, tmp_path):
        rc = main(["pipeline", "--workdir", str(tmp_path / "w"), "--styles", "1", "--seed", "7",
                   "--epochs", "1", "--ridge-lambda", "0.5", "--noise-sigma", "0.1"]
                  + SMALL_SYNTH + SMALL_TRAIN)
        assert rc == 0
        config = json.loads((tmp_path / "w" / "report.json").read_text())["config"]
        assert config["ridge_lambda"] == 0.5 and config["noise_sigma"] == 0.1

    def test_two_style_report_adds_mixed(self, tmp_path, capsys):
        rc = main(["pipeline", "--workdir", str(tmp_path / "w"), "--styles", "2",
                   "--seed", "7", "--epochs", "1"] + SMALL_SYNTH + SMALL_TRAIN)
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert {"zero_shot", "in_style", "mixed"} <= set(rep)
        for section in ("zero_shot", "in_style", "mixed"):
            assert len(rep[section]["per_style"]) == 2

    def test_post_training_evals_run_after_the_pool_and_styled_sets_are_freed(self, tmp_path,
                                                                             monkeypatch):
        # the evals after training read only the test sets, so their products must not
        # sit on top of the pool, the query sets and the styled sets
        args = ["pipeline", "--styles", "2", "--seed", "7", "--epochs", "1"] + SMALL_SYNTH \
            + SMALL_TRAIN
        assert main(args + ["--workdir", str(tmp_path / "plain")]) == 0
        load, train, evaluate = cli.load_embeddings, cli.train_stage, cli.eval_stage
        refs, names, trained, live_at_eval = [], [], [], []

        def loaded(path):
            name = os.path.basename(path)
            names.append(name)
            emb = load(path)
            if name.startswith(("pool", "queries", "styled")):
                refs.append(weakref.ref(emb))
            return emb

        def training(*args, **kwargs):
            result = train(*args, **kwargs)
            trained.append(True)
            return result

        def evaluated(*args, **kwargs):
            if trained:
                live_at_eval.append(sum(ref() is not None for ref in refs))
            return evaluate(*args, **kwargs)

        for name, wrapper in [("load_embeddings", loaded), ("train_stage", training),
                              ("eval_stage", evaluated)]:
            monkeypatch.setattr(cli, name, wrapper)
        assert main(args + ["--workdir", str(tmp_path / "watched")]) == 0
        assert len(refs) == 3   # the pool and two query sets
        assert not [name for name in names if name.startswith("styled")]   # never loaded whole
        assert live_at_eval == [0] * 4   # two styles under each of two adapters
        assert (tmp_path / "watched" / "report.json").read_bytes() == \
            (tmp_path / "plain" / "report.json").read_bytes()

    def test_no_whole_pool_query_or_styled_set_is_live_after_stylize(self, tmp_path,
                                                                      monkeypatch):
        # stylize writes the styled sets to their files; filter streams them and the pool
        # file, and training reads back only the rows its pairs use
        load, stylize, filtering, train = (cli.load_embeddings, cli.stylize_stage,
                                           cli.filter_stage, cli.train_stage)
        refs, names, live_after_stylize = [], [], []

        def loaded(path):
            names.append(os.path.basename(path))
            emb = load(path)
            if names[-1].startswith(("pool", "queries")):
                refs.append(weakref.ref(emb))
            return emb

        def stylizing(*args, **kwargs):
            assert stylize(*args, **kwargs) is None   # it hands back no set

        def watched(stage):
            def run(*args, **kwargs):
                live_after_stylize.append(sum(ref() is not None for ref in refs))
                return stage(*args, **kwargs)
            return run

        monkeypatch.setattr(cli, "load_embeddings", loaded)
        monkeypatch.setattr(cli, "stylize_stage", stylizing)
        monkeypatch.setattr(cli, "filter_stage", watched(filtering))
        monkeypatch.setattr(cli, "train_stage", watched(train))
        assert main(["pipeline", "--workdir", str(tmp_path / "w"), "--styles", "2", "--seed",
                     "7", "--epochs", "1"] + SMALL_SYNTH + SMALL_TRAIN) == 0
        assert len(refs) == 3 and live_after_stylize == [0, 0, 0]   # two filters, one train
        assert not [name for name in names if name.startswith("styled")]

    def test_a_style_set_too_small_to_train_is_named_with_its_filter_counts(self, tmp_path,
                                                                            caplog):
        # at the paper's width the synthetic sims fall below the default threshold, so the
        # filter keeps no pair; the error must say which style, how many of how many
        # candidates and at what threshold, and each filter line the median of every sim
        caplog.set_level(logging.INFO)
        w = tmp_path / "w"
        assert main(["pipeline", "--workdir", str(w), "--dim", "512", "--queries-per-style",
                     "128", "--pool-size", "2048"]) == 1
        lines = [r.getMessage() for r in caplog.records]
        assert lines[-1] == ("error=EmptyStyleSet detail=style set 'style0' is empty: the "
                             "filter kept 0 of its 2048 candidates at threshold 0.28")
        filtered = [line for line in lines if line.startswith("stage=filter threshold=")]
        assert len(filtered) == 2
        for line in filtered:
            assert re.fullmatch(r"stage=filter threshold=0\.28 kept=0 total=2048 "
                                r"rate=0\.0000 median_sim=0\.\d{4}", line), line
        assert not list(w.glob("adapter_*")) and not (w / "report.json").exists()

    def test_default_two_style_golden_regression(self, tmp_path, capsys):
        rc = main(["pipeline", "--workdir", str(tmp_path / "w"), "--seed", "7"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        golden("pipeline_k2_seed7", {
            "zero_shot_mean_r1": rep["zero_shot"]["mean_r1"],
            "in_style_mean_r1": rep["in_style"]["mean_r1"],
            "mixed_mean_r1": rep["mixed"]["mean_r1"],
            "pseudo_counts": rep["pair_counts"]["pseudo"],
            "generated_counts": rep["pair_counts"]["generated"],
            "in_style_final_loss": rep["in_style"]["final_loss"],
        })

    @forks_workers
    def test_split_match_and_stylize_write_the_serial_bytes_and_logs(self, tmp_path, caplog,
                                                                      monkeypatch):
        # three styles over three row blocks: every pool forks; criterion 9's 384-row pool is
        # one block, so it never splits stylize
        args = ["pipeline", "--styles", "3", "--seed", "7", "--epochs", "1"] + SMALL_SYNTH \
            + BLOCKED_POOL + SMALL_TRAIN
        caplog.set_level(logging.INFO)
        trees, logs = [], []
        for threads, children in [(1, 0), (2, 3), (3, 5)]:   # match, stylize, train: 1+1+1, 2+2+1
            forks = count_forks(monkeypatch, cpus=3, limit=children)
            caplog.clear()
            assert main(args + ["--workdir", str(tmp_path / f"t{threads}"),
                                "--threads", str(threads)]) == 0
            assert len(forks) == children
            trees.append(tree_hashes(tmp_path / f"t{threads}"))
            logs.append([r.getMessage() for r in caplog.records
                         if r.getMessage().startswith("stage=")])
        assert trees[0] == trees[1] == trees[2]
        assert logs[0] == logs[1] == logs[2]
        stylized = [line for line in logs[0] if line.startswith("stage=stylize")]
        assert stylized == [f"stage=stylize tag=style{s} styled=1100" for s in range(3)]
        assert sum(line.startswith("stage=match") for line in logs[0]) == 3

    @forks_workers
    def test_threads_past_the_cpus_fork_no_more_workers(self, tmp_path, monkeypatch):
        forks = count_forks(monkeypatch, cpus=2, limit=3)   # one child for each of three pools
        assert main(["pipeline", "--workdir", str(tmp_path / "w"), "--styles", "2",
                     "--seed", "7", "--epochs", "1", "--threads", "1000000"]
                    + SMALL_SYNTH + BLOCKED_POOL + SMALL_TRAIN) == 0
        assert len(forks) == 3

    @pytest.mark.parametrize("flags, error, unwritten", [
        # every stylize block overflows, the children's too
        (["--noise-sigma", "1e200"] + BLOCKED_POOL, "NonFiniteValue detail=row id ", "styled_*"),
        # synthesized rows past float32's range
        (["--cross-modal-noise", "1e40"], "NonFiniteValue detail=row id ", "data/*.iemb"),
        # synthesized noise past float64's range
        (["--cross-modal-noise", "1e308"], "NonFiniteValue detail=row id ", "data/*.iemb"),
        # heads past float32's range, which the adapter file could not hold
        (["--learning-rate", "1e45"], "NonFiniteLoss detail=step 0: adapter weights", "loss_*"),
        (["--learning-rate", "1e200"], "NonFiniteLoss detail=step 0: adapter weights", "loss_*"),
        (["--tau", "1e-300"], "NonFiniteLoss detail=step 0: adapter weights", "loss_*"),
        # logits past float64's range
        (["--tau", "3e-309"], "NonFiniteLoss detail=step 0: contrastive loss", "loss_*"),
    ], ids=["stylize", "synth", "synth-1e308", "lr-1e45", "lr-1e200", "tau-1e-300", "tau-3e-309"])
    def test_failing_runs_report_the_serial_error_quietly(self, tmp_path, flags, error,
                                                         unwritten):
        # a plain process, so every warning and traceback, a forked child's too, reaches fd 2
        args = ["pipeline", "--styles", "2", "--seed", "7", "--epochs", "1"] + SMALL_SYNTH \
            + SMALL_TRAIN + flags
        src = os.path.dirname(os.path.dirname(embedcore.__file__))
        errors = []
        for threads in (1, 2):
            w = tmp_path / f"t{threads}"
            run = subprocess.run([sys.executable, "-c", PLAIN_MAIN, *args, "--workdir", str(w),
                                  "--threads", str(threads)], capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": src})
            assert run.returncode == 1
            assert "Traceback" not in run.stderr and "Warning" not in run.stderr
            errors.append([line for line in run.stderr.splitlines() if line.startswith("error=")])
            assert not list(w.glob(unwritten))
            assert not list(w.glob("adapter_*")) and not (w / "report.json").exists()
        assert errors[0] == errors[1]
        [line] = errors[0]
        assert line.startswith("error=" + error)

    def test_concurrent_training_writes_the_serial_bytes(self, tmp_path):
        # three styles with queue negatives: criterion 9 covers neither
        args = ["pipeline", "--styles", "3", "--seed", "7", "--epochs", "2",
                "--queue-capacity", "64"] + SMALL_SYNTH + SMALL_TRAIN
        assert main(args + ["--workdir", str(tmp_path / "t1"), "--threads", "1"]) == 0
        assert main(args + ["--workdir", str(tmp_path / "t2"), "--threads", "2"]) == 0
        serial, concurrent = tree_hashes(tmp_path / "t1"), tree_hashes(tmp_path / "t2")
        assert {"adapter_in_style.iemb", "adapter_mixed.iemb",
                "loss_in_style.csv", "loss_mixed.csv"} <= set(serial)
        assert serial == concurrent

    def test_eval_of_the_written_adapters_prints_the_scores_in_the_report(self, tmp_path,
                                                                            capsys):
        # the report scores the float64 heads, while the files hold them as float32
        w = tmp_path / "w"
        assert main(["pipeline", "--workdir", str(w), "--styles", "2", "--seed", "7",
                     "--epochs", "1"] + SMALL_SYNTH + SMALL_TRAIN) == 0
        report, data = json.loads((w / "report.json").read_text()), w / "data"
        for section in ("zero_shot", "in_style", "mixed"):
            adapter = [] if section == "zero_shot" else [
                "--adapter", str(w / f"adapter_{section}.iemb")]
            for s in range(2):
                capsys.readouterr()
                assert main(["eval", "--captions", str(data / f"test_captions_style{s}.iemb"),
                             "--candidates", str(data / "test_clips.iemb"),
                             "--truth", str(data / "truth.jsonl"), "--no-ranks"] + adapter) == 0
                assert json.loads(capsys.readouterr().out) == report[section]["per_style"][s]

    def test_workdir_data_from_another_config_rejected(self, tmp_path, caplog):
        args = ["pipeline", "--workdir", str(tmp_path / "w"), "--styles", "1",
                "--epochs", "1"] + SMALL_SYNTH + SMALL_TRAIN
        assert main(args + ["--seed", "7"]) == 0
        before = tree_hashes(tmp_path / "w" / "data")
        caplog.clear()
        assert main(args + ["--seed", "8"]) == 2
        assert "seed" in caplog.text
        assert main(args + ["--seed", "7"]) == 0   # same config still reuses the data
        assert tree_hashes(tmp_path / "w" / "data") == before

    def test_negative_seed_exits_2_before_any_stage_writes(self, tmp_path, caplog):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--seed", "7"] + SMALL_SYNTH) == 0
        w = tmp_path / "w"
        rc = main(["pipeline", "--workdir", str(w), "--data-dir", str(data), "--seed", "-1",
                   "--epochs", "1"] + SMALL_SYNTH + SMALL_TRAIN)
        assert rc == 2
        assert "error=ConfigInvalid" in caplog.text
        assert tree_hashes(w) == {}

    @pytest.mark.parametrize("flag,value", [
        ("--noise-sigma", "nan"), ("--noise-sigma", "-0.5"),
        ("--ridge-lambda", "-1"), ("--ridge-lambda", "nan"),
        ("--learning-rate", "-0.3"), ("--learning-rate", "inf"), ("--tau", "nan"),
        ("--momentum", "nan"), ("--momentum", "1.5"), ("--momentum", "1"),
        ("--queue-capacity", "-3"), ("--epochs", "0"),
        # the synth config goes into report.json even when --data-dir is given
        ("--cross-modal-noise", "nan"), ("--cross-modal-noise", "inf"),
    ])
    def test_bad_numeric_flag_exits_2_before_any_stage_writes(self, tmp_path, caplog,
                                                              flag, value):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--seed", "7"] + SMALL_SYNTH) == 0
        w = tmp_path / "w"
        rc = main(["pipeline", "--workdir", str(w), "--data-dir", str(data), "--epochs", "1",
                   flag, value] + SMALL_SYNTH + SMALL_TRAIN)
        assert rc == 2
        assert "error=ConfigInvalid" in caplog.text
        assert tree_hashes(w) == {}

    def test_reuses_existing_data_dir(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--seed", "7", "--styles", "1"]
                    + SMALL_SYNTH) == 0
        before = tree_hashes(data)
        rc = main(["pipeline", "--workdir", str(tmp_path / "w"), "--data-dir", str(data),
                   "--styles", "1", "--seed", "7", "--epochs", "1"] + SMALL_SYNTH + SMALL_TRAIN)
        assert rc == 0
        assert tree_hashes(data) == before   # inputs never mutated

    def test_flags_that_contradict_the_data_dir_exit_2_naming_the_key(self, tmp_path, caplog):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--seed", "7"]) == 0
        w = tmp_path / "w"
        rc = main(["pipeline", "--workdir", str(w), "--data-dir", str(data), "--styles", "1",
                   "--pool-size", "3000", "--queries-per-style", "100",
                   "--held-out-fraction", "0.5", "--seed", "11"])
        assert rc == 2
        assert "error=ConfigInvalid" in caplog.text and "n_styles=2" in caplog.text
        assert tree_hashes(w) == {}

    def test_data_dir_report_records_the_data_seed_apart_from_the_run_seed(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--seed", "7"] + SMALL_SYNTH) == 0
        w = tmp_path / "w"
        assert main(["pipeline", "--workdir", str(w), "--data-dir", str(data), "--seed", "11",
                     "--epochs", "1"] + SMALL_SYNTH + SMALL_TRAIN) == 0
        config = json.loads((w / "report.json").read_text())["config"]
        assert config["seed"] == 11 and config["data_seed"] == 7
        assert config["n_styles"] == 2 and config["pool_size"] == 192

    def test_data_dir_without_a_latent_file_records_no_data_seed(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--seed", "7"] + SMALL_SYNTH) == 0
        (data / "latent.jsonl").unlink()
        w = tmp_path / "w"
        assert main(["pipeline", "--workdir", str(w), "--data-dir", str(data), "--seed", "11",
                     "--epochs", "1"] + SMALL_SYNTH + SMALL_TRAIN) == 0
        config = json.loads((w / "report.json").read_text())["config"]
        assert config["seed"] == 11 and config["data_seed"] is None
        assert not (data / "latent.jsonl").exists()


# every file of a small `pipeline` workdir except these, whose bytes move with the OpenBLAS
# kernel (style maps through the LAPACK solve, loss logs and final_loss through training)
KERNEL_MOVED = ("style_*.iemb", "loss_*.csv", "report.json")
PINNED_RUNS = {
    "two_styles": ["--styles", "2", "--seed", "7", "--epochs", "1"] + SMALL_SYNTH + SMALL_TRAIN,
    # a ragged last row block and column tile, and a queue that is no whole number of batches
    "three_styles_blocked_queue": ["--styles", "3", "--seed", "7", "--epochs", "2",
                                   "--queue-capacity", "40"]
                                  + SMALL_SYNTH + BLOCKED_POOL + SMALL_TRAIN,
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_pipeline_writes_the_pinned_bytes(self, tmp_path, name):
        w = tmp_path / "w"
        assert main(["pipeline", "--workdir", str(w)] + PINNED_RUNS[name]) == 0
        hashes = {path: digest for path, digest in tree_hashes(w).items()
                  if not any(pathlib.PurePath(path).match(kind) for kind in KERNEL_MOVED)}
        with open(os.path.join(GOLDEN_DIR, "pipeline_bytes.json"), encoding="utf-8") as f:
            assert hashes == json.load(f)[name]
