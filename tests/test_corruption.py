"""Bad input through `main`: every case ends in a typed StylePairError.

Each case corrupts one input of a working stage chain, runs the command
that reads it, and checks the exit code (1, or 2 for ConfigInvalid), the
logged error name, that no traceback was logged or raised, and that the
command wrote nothing.
"""

import ast
import builtins
import inspect
import json
import re
import shutil
import struct

import pytest

from stylepair import cli, errors
from stylepair.cli import main
from stylepair.embedcore import EmbeddingSet, load_embeddings, save_embeddings
from stylepair.trainer import init_adapter, save_adapter

SMALL_SYNTH = ["--queries-per-style", "32", "--pool-size", "192",
               "--dim", "16", "--content-dim", "6"]
TRAIN = ["--epochs", "1", "--batch-size", "8"]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A working single-style chain: dataset, pseudo pairs, styled pool, generated pairs."""
    d = tmp_path_factory.mktemp("chain")
    data = d / "data"
    assert main(["synth", "--out", str(data), "--seed", "7", "--styles", "1"] + SMALL_SYNTH) == 0
    queries, pool = str(data / "queries_style0.iemb"), str(data / "pool.iemb")
    assert main(["match", "--queries", queries, "--pool", pool,
                 "--out", str(d / "pairs.jsonl")]) == 0
    assert main(["stylize", "--queries", queries, "--pool", pool, "--pairs", str(d / "pairs.jsonl"),
                 "--style-out", str(d / "style.iemb"), "--styled-out", str(d / "styled.iemb")]) == 0
    assert main(["filter", "--styled", str(d / "styled.iemb"), "--pool", pool,
                 "--out", str(d / "gen.jsonl"), "--threshold", "0.2"]) == 0
    assert main(["train", "--pool", pool, "--styled", str(d / "styled.iemb"),
                 "--pairs", str(d / "gen.jsonl"), "--out", str(d / "adapter.iemb")] + TRAIN) == 0
    return d


# ---- the command that reads each input; `bad` is the corrupted copy, `out` an empty dir ----

def stylize_cmd(chain, bad, out):
    return ["stylize", "--queries", str(chain / "data" / "queries_style0.iemb"),
            "--pool", str(chain / "data" / "pool.iemb"), "--pairs", str(bad),
            "--style-out", str(out / "style.iemb"), "--styled-out", str(out / "styled.iemb")]


def train_cmd(chain, bad, out):
    return ["train", "--pool", str(chain / "data" / "pool.iemb"),
            "--styled", str(chain / "styled.iemb"), "--pairs", str(bad),
            "--out", str(out / "adapter.iemb"), "--loss-log", str(out / "loss.csv")] + TRAIN


def eval_cmd(chain, truth, out, adapter=None):
    return (["eval", "--captions", str(chain / "data" / "test_captions_style0.iemb"),
             "--candidates", str(chain / "data" / "test_clips.iemb"), "--truth", str(truth),
             "--out", str(out / "eval.json"), "--ranks-csv", str(out / "ranks.csv")]
            + (["--adapter", str(adapter)] if adapter else []))


def match_cmd(chain, bad, out):
    return ["match", "--queries", str(bad), "--pool", str(chain / "data" / "pool.iemb"),
            "--out", str(out / "pairs.jsonl")]


def pipeline_cmd(chain, bad, out):
    """`bad` is a corrupted latent.jsonl; the run reuses `out`/data, which holds it."""
    shutil.copytree(chain / "data", out / "data")
    shutil.copyfile(bad, out / "data" / "latent.jsonl")
    return ["pipeline", "--workdir", str(out), "--styles", "1", "--seed", "7",
            "--epochs", "1"] + SMALL_SYNTH + ["--batch-size", "8"]


# file in the chain, the command that reads it, and one key per type (int, float, str) of its
# records (None: no command reads them) and of its header
JSONL = {
    "pseudo_pairs": ("pairs.jsonl", stylize_cmd, {int: "clip_id", float: "sim"},
                     {str: "query_set"}),
    "generated_pairs": ("gen.jsonl", train_cmd, {int: "row", float: "sim"},
                        {int: "total_candidates", float: "threshold", str: "style_tag"}),
    "retrieval_truth": ("data/truth.jsonl", lambda c, b, o: eval_cmd(c, b, o),
                        {int: "query_id"}, {}),
    "latent_record": ("data/latent.jsonl", pipeline_cmd, None,
                      {int: "seed", float: "style_strength"}),
}


def raw(text):
    return lambda line: text


def set_key(key, value):
    def edit(line):
        obj = json.loads(line)
        obj[key] = value(obj[key]) if callable(value) else value
        return json.dumps(obj).encode()
    return edit


def drop_key(key):
    def edit(line):
        obj = json.loads(line)
        del obj[key]
        return json.dumps(obj).encode()
    return edit


LINE_EDITS = {   # name -> (edit of one line, error)
    "bad_json": (raw(b'{"query_id": 1,'), "CorruptField"),
    "not_utf8": (raw(b'{"style_tag": "\xff\xfe"}'), "CorruptField"),
    "array": (raw(b"[1, 2, 3]"), "CorruptField"),
    "string": (raw(b'"pairs"'), "CorruptField"),
    "extra_key": (set_key("extra", 1), "CorruptField"),
}


def typed_edits(keys: dict) -> dict:
    """Edits that break the type of one key of each type in `keys`, or drop a key."""
    bad_values = {
        int: {"bool": True, "float": lambda v: v + 0.7, "whole_float": float, "string": str,
              "null": None},
        float: {"null": None, "nan": float("nan"), "inf": float("-inf"), "string": "0.5",
                "bool": False},
        str: {"int": 5, "null": None, "list": ["a"]},
    }
    edits = {f"{want.__name__}_{name}": (set_key(key, value), "CorruptField")
             for want, key in keys.items() for name, value in bad_values[want].items()}
    if keys:
        edits["missing_key"] = (drop_key(next(iter(keys.values()))), "CorruptField")
    return edits


def jsonl_cases():
    for kind, (_, _, record_keys, header_keys) in JSONL.items():
        other = "generated_pairs" if kind == "pseudo_pairs" else "pseudo_pairs"
        header_edits = {**LINE_EDITS, **typed_edits(header_keys),
                        "other_kind": (set_key("kind", other), "MagicMismatch")}
        for name, (edit, error) in header_edits.items():
            yield pytest.param(kind, 0, edit, error, id=f"{kind}-header-{name}")
        if record_keys is not None:
            record_edits = {**LINE_EDITS, **typed_edits(record_keys),
                            "int_past_int64": (set_key(record_keys[int], 2**63), "CorruptField")}
            for name, (edit, error) in record_edits.items():
                yield pytest.param(kind, 1, edit, error, id=f"{kind}-record-{name}")


def run_case(tmp_path, caplog, capsys, argv):
    """Run main on argv; check it failed typed, logged no traceback and wrote nothing."""
    out = tmp_path / "out"
    before = {p.relative_to(out) for p in out.rglob("*")}
    caplog.clear()
    rc = main(argv)
    names = re.findall(r"error=(\w+)", caplog.text)
    assert len(names) == 1, caplog.text
    assert issubclass(getattr(errors, names[0]), errors.StylePairError)
    assert rc == (2 if names[0] == "ConfigInvalid" else 1)
    assert "Traceback" not in caplog.text
    assert {p.relative_to(out) for p in out.rglob("*")} == before
    assert capsys.readouterr().out == ""
    return names[0]


def corrupt_copy(chain, tmp_path, name, line_no, edit):
    lines = (chain / name).read_bytes().splitlines()
    lines[line_no] = edit(lines[line_no])
    bad = tmp_path / "bad" / name.split("/")[-1]
    bad.parent.mkdir()
    bad.write_bytes(b"\n".join(lines) + b"\n")
    return bad


# well-formed records that contradict each other or the other inputs
INCONSISTENT = [
    pytest.param("retrieval_truth", 2, set_key("query_id", 500000), "DuplicateId",
                 id="truth-repeated-query-id"),
    pytest.param("retrieval_truth", 1, set_key("candidate_id", 7), "UnknownCandidate",
                 id="truth-candidate-not-in-candidates"),
    pytest.param("pseudo_pairs", 1, set_key("query_id", 999_999_999), "UnknownCandidate",
                 id="pseudo-query-not-in-queries"),
    pytest.param("pseudo_pairs", 1, set_key("clip_id", 7), "UnknownCandidate",
                 id="pseudo-clip-not-in-pool"),
    pytest.param("pseudo_pairs", 2, set_key("query_id", 0), "DuplicateId",   # line 1's query
                 id="pseudo-repeated-query-id"),
    pytest.param("generated_pairs", 0, set_key("threshold", 0.99), "CorruptField",
                 id="generated-threshold-above-a-sim"),
    pytest.param("generated_pairs", 1, set_key("sim", 0.1), "CorruptField",
                 id="generated-sim-below-threshold"),
    pytest.param("generated_pairs", 1, set_key("sim", 0.9999), "CountMismatch",
                 id="generated-sim-not-the-pools"),
    pytest.param("latent_record", 0, set_key("seed", 8), "ConfigInvalid",
                 id="latent-other-seed"),
]


@pytest.mark.parametrize("kind,line_no,edit,error", [*jsonl_cases(), *INCONSISTENT])
def test_bad_jsonl_is_a_typed_error(chain, tmp_path, caplog, capsys, kind, line_no, edit, error):
    name, command = JSONL[kind][:2]
    bad = corrupt_copy(chain, tmp_path, name, line_no, edit)
    (tmp_path / "out").mkdir()
    argv = command(chain, bad, tmp_path / "out")
    assert run_case(tmp_path, caplog, capsys, argv) == error
    if error == "DuplicateId":
        assert str(bad) in caplog.text


def test_empty_file_is_a_typed_error(chain, tmp_path, caplog, capsys):
    (tmp_path / "out").mkdir()
    (tmp_path / "empty.jsonl").write_bytes(b"")
    argv = train_cmd(chain, tmp_path / "empty.jsonl", tmp_path / "out")
    assert run_case(tmp_path, caplog, capsys, argv) == "CorruptField"


def test_same_pair_file_twice_is_config_invalid(chain, tmp_path, caplog, capsys):
    (tmp_path / "out").mkdir()
    gen = corrupt_copy(chain, tmp_path, "gen.jsonl", 0, set_key("style_tag", "style0"))
    argv = train_cmd(chain, gen, tmp_path / "out") + ["--styled", str(chain / "styled.iemb"),
                                                      "--pairs", str(gen)]
    assert run_case(tmp_path, caplog, capsys, argv) == "ConfigInvalid"


def test_styled_set_from_another_pool_is_count_mismatch(chain, tmp_path, caplog, capsys):
    """The same pool with every id moved: filter and sweep must not pair row i with clip i."""
    (tmp_path / "out").mkdir()
    pool = load_embeddings(chain / "data" / "pool.iemb")
    moved = tmp_path / "moved_pool.iemb"
    save_embeddings(EmbeddingSet(ids=pool.ids + 5_000_000, data=pool.data, normalized=True), moved)
    for command in ("filter", "sweep"):
        argv = [command, "--styled", str(chain / "styled.iemb"), "--pool", str(moved),
                "--out", str(tmp_path / "out" / command)]
        assert run_case(tmp_path, caplog, capsys, argv) == "CountMismatch"


def patched_copy(chain, tmp_path, name, offset, fmt, *values):
    raw_bytes = bytearray((chain / name).read_bytes())
    struct.pack_into(fmt, raw_bytes, offset, *values)
    bad = tmp_path / "bad" / name.split("/")[-1]
    bad.parent.mkdir()
    bad.write_bytes(bytes(raw_bytes))
    return bad


TAU_AT = 12 + 8   # magic, version, tag, then proj_dim:u32 dim:u32
HEADS_AT = TAU_AT + 16   # tau:f64 step_count:u64, then the text head and the video head
IDS_AT = 8 + 16   # magic, version, then count:u64 dim:u32 flags:u32
FLAGS_AT = IDS_AT - 4


@pytest.mark.parametrize("tau", [0.0, -0.05, float("nan"), float("inf")])
def test_adapter_with_bad_tau_is_corrupt(chain, tmp_path, caplog, capsys, tau):
    (tmp_path / "out").mkdir()
    bad = patched_copy(chain, tmp_path, "adapter.iemb", TAU_AT, "<d", tau)
    argv = eval_cmd(chain, chain / "data" / "truth.jsonl", tmp_path / "out", adapter=bad)
    assert run_case(tmp_path, caplog, capsys, argv) == "CorruptField"


@pytest.mark.parametrize("weight", [float("nan"), float("-inf")])
@pytest.mark.parametrize("head", ["text", "video"])
def test_adapter_with_non_finite_weight_is_corrupt(chain, tmp_path, caplog, capsys, weight,
                                                    head):
    (tmp_path / "out").mkdir()
    at = HEADS_AT if head == "text" else (chain / "adapter.iemb").stat().st_size - 4
    bad = patched_copy(chain, tmp_path, "adapter.iemb", at, "<f", weight)
    argv = eval_cmd(chain, chain / "data" / "truth.jsonl", tmp_path / "out", adapter=bad)
    assert run_case(tmp_path, caplog, capsys, argv) == "CorruptField"
    assert str(bad) in caplog.text


def test_adapter_of_another_dim_is_dim_mismatch(chain, tmp_path, caplog, capsys):
    (tmp_path / "out").mkdir()
    save_adapter(init_adapter(dim=4), tmp_path / "small.iemb")
    argv = eval_cmd(chain, chain / "data" / "truth.jsonl", tmp_path / "out",
                    adapter=tmp_path / "small.iemb")
    assert run_case(tmp_path, caplog, capsys, argv) == "DimMismatch"


@pytest.mark.parametrize("patch", [
    pytest.param((IDS_AT, "<QQ", 1, 0), id="unsorted"),
    pytest.param((IDS_AT + 31 * 8, "<Q", 2**63), id="id-at-2-63"),
    pytest.param((IDS_AT + 31 * 8, "<Q", 2**64 - 1), id="id-at-2-64-minus-1"),
])
def test_embeddings_with_bad_ids_are_corrupt(chain, tmp_path, caplog, capsys, patch):
    (tmp_path / "out").mkdir()
    bad = patched_copy(chain, tmp_path, "data/queries_style0.iemb", *patch)
    argv = match_cmd(chain, bad, tmp_path / "out")
    assert run_case(tmp_path, caplog, capsys, argv) == "CorruptField"


def header_only_pairs(chain, tmp_path):
    bad = tmp_path / "pairs.jsonl"
    bad.write_bytes((chain / "pairs.jsonl").read_bytes().splitlines(keepends=True)[0])
    return stylize_cmd(chain, bad, tmp_path / "out")


def styled_twice_pairs_once(chain, tmp_path):
    return train_cmd(chain, chain / "gen.jsonl", tmp_path / "out") + [
        "--styled", str(chain / "styled.iemb")]


def captions_not_normalized(chain, tmp_path):
    bad = patched_copy(chain, tmp_path, "data/test_captions_style0.iemb", FLAGS_AT, "<I", 0)
    argv = eval_cmd(chain, chain / "data" / "truth.jsonl", tmp_path / "out")
    argv[argv.index("--captions") + 1] = str(bad)
    return argv


# well-formed inputs that the stage reading them cannot use
@pytest.mark.parametrize("case,error", [(header_only_pairs, "SingularSystem"),
                                        (styled_twice_pairs_once, "ConfigInvalid"),
                                        (captions_not_normalized, "NotNormalized")])
def test_unusable_inputs_are_typed_errors(chain, tmp_path, caplog, capsys, case, error):
    (tmp_path / "out").mkdir()
    assert run_case(tmp_path, caplog, capsys, case(chain, tmp_path)) == error


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b'{"tau": 1' + b"0" * 400 + b"}",
                                  b"[" * 100_000 + b"]" * 100_000],
                         ids=["not_utf8", "int_too_large_for_a_float", "nested_too_deep"])
def test_bad_config_file_is_config_invalid(chain, tmp_path, caplog, capsys, text):
    (tmp_path / "out").mkdir()
    (tmp_path / "config.json").write_bytes(text)
    argv = train_cmd(chain, chain / "gen.jsonl", tmp_path / "out") + [
        "--config", str(tmp_path / "config.json")]
    assert run_case(tmp_path, caplog, capsys, argv) == "ConfigInvalid"


def test_main_catches_only_typed_and_os_errors():
    caught = set()
    for node in ast.walk(ast.parse(inspect.getsource(cli.main))):
        if isinstance(node, ast.ExceptHandler):
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(n.id for n in names)
    assert caught
    for name in caught:
        cls = getattr(errors, name, None) or getattr(builtins, name)
        # a failed allocation, like an OS error, is the machine's answer, not a bug's
        assert issubclass(cls, (errors.StylePairError, OSError, MemoryError)), name


@pytest.mark.parametrize("flag,value", [("--pool-size", str(2**63)), ("--pool-size", "10" * 10),
                                        ("--dim", str(2**32))])
def test_synth_sizes_past_the_file_fields_are_config_invalid(tmp_path, caplog, capsys, flag,
                                                              value):
    (tmp_path / "out").mkdir()
    argv = ["synth", "--out", str(tmp_path / "out" / "data"), "--styles", "1",
            "--queries-per-style", "4", "--content-dim", "2", flag, value]
    assert run_case(tmp_path, caplog, capsys, argv) == "ConfigInvalid"
