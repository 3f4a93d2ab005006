import contextlib
import itertools
import json
import os
import pathlib
import struct
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylepair import container
from stylepair.embedcore import load_embeddings, save_embeddings
from stylepair.errors import (
    CorruptField,
    MagicMismatch,
    NonFiniteValue,
    StylePairError,
    TrailingBytes,
    TruncatedFile,
)
from stylepair.matcher import PseudoPairSet, read_pseudo_pairs, write_pseudo_pairs
from stylepair.styler import (
    GeneratedPairSet,
    StyleTransform,
    filter_pairs,
    load_style,
    read_generated_pairs,
    save_style,
    write_generated_pairs,
)
from stylepair.synthgen import (
    LATENT_FIELDS,
    SynthConfig,
    SynthDataset,
    generate,
    latent_header,
    read_truth,
    write_dataset,
)
from stylepair.trainer import AdapterModel, load_adapter, save_adapter

from conftest import make_set, saved, traced_peak


def dying_columns(n_good):
    """Record columns whose row `n_good` holds a NaN, which the writer refuses."""
    sims = np.full(n_good + 1, 0.5)
    sims[-1] = np.nan
    return {"i": np.arange(n_good + 1), "sim": sims}


def failures_inside_atomic_write(monkeypatch, directory):
    """Wrap atomic_write; the returned list gets `directory`'s listing at each failed block."""
    seen = []
    real = container.atomic_write

    @contextlib.contextmanager
    def spy(path, *args, **kwargs):
        with real(path, *args, **kwargs) as f:
            try:
                yield f
            except BaseException:
                seen.append(sorted(os.listdir(directory)))
                raise

    monkeypatch.setattr(container, "atomic_write", spy)
    return seen


class TestAtomicWrites:
    def test_failed_record_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "pairs.jsonl"
        container.write_records(path, {"kind": "demo"}, {"i": np.array([0])})
        before = path.read_bytes()
        seen = failures_inside_atomic_write(monkeypatch, tmp_path)
        with pytest.raises(NonFiniteValue):
            container.write_records(path, {"kind": "demo"}, dying_columns(1000))
        # the failure came from inside the write, with the temp file beside the old one
        assert seen == [["pairs.jsonl", f"pairs.jsonl.{os.getpid()}.tmp"]]
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["pairs.jsonl"]

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        seen = failures_inside_atomic_write(monkeypatch, tmp_path)
        with pytest.raises(NonFiniteValue):
            container.write_records(tmp_path / "new.jsonl", {"kind": "demo"}, dying_columns(3))
        assert seen == [[f"new.jsonl.{os.getpid()}.tmp"]]
        assert os.listdir(tmp_path) == []

    def test_failed_binary_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "set.iemb"
        save_embeddings(make_set([[1.0, 0.0]]), path)
        before = path.read_bytes()

        def die(f, arr, dtype):
            raise RuntimeError("writer died halfway")

        monkeypatch.setattr(container, "write_array", die)
        with pytest.raises(RuntimeError):
            save_embeddings(make_set([[0.0, 1.0], [1.0, 0.0]]), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["set.iemb"]

    @pytest.mark.parametrize("th", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_header_float_is_refused_before_any_byte(self, tmp_path, tmp_path_factory,
                                                               monkeypatch, th):
        clips = make_set([[1.0, 0.0], [0.6, 0.8]])
        pairs = filter_pairs(*saved(tmp_path_factory.mktemp("sets"), [clips, clips]), th)
        seen = failures_inside_atomic_write(monkeypatch, tmp_path)
        with pytest.raises(NonFiniteValue, match="'threshold'"):
            write_generated_pairs(pairs, tmp_path / "generated.jsonl")
        # refused before the temp file was opened
        assert seen == []
        assert os.listdir(tmp_path) == []

    def test_success_replaces_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "set.iemb"
        save_embeddings(make_set([[1.0, 0.0]]), path)
        save_embeddings(make_set([[0.0, 1.0], [1.0, 0.0]]), path)
        assert load_embeddings(path).count == 2
        assert os.listdir(tmp_path) == ["set.iemb"]


class TestDeclaredSizes:
    def test_read_beyond_end_of_file_is_truncated(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"\x00" * 16)
        with open(path, "rb") as f:
            f.read(8)
            with pytest.raises(TruncatedFile):
                container.read_array(f, "<u8", 2**40, "ids")
            assert f.tell() == 8
            assert np.array_equal(container.read_array(f, "<u8", 1, "ids"), [0])


def _embeddings(path):
    save_embeddings(make_set([[1.0, 0.0], [0.6, 0.8]], ids=[3, 9]), path)


def _style(path):
    rng = np.random.default_rng(0)
    save_style(StyleTransform(weight=rng.normal(size=(3, 2)), bias=rng.normal(size=3),
                              ridge_lambda=0.01, noise_sigma=0.05, style_tag="légende 字幕"),
               path)


def _adapter(path):
    rng = np.random.default_rng(1)
    save_adapter(AdapterModel(text_head=rng.normal(size=(2, 3)),
                              video_head=rng.normal(size=(2, 3)), tau=0.07, step_count=41),
                 path)


# (writer, loader, saver, offset of the field block)
KINDS = {
    "embeddings": (_embeddings, load_embeddings, save_embeddings, 8),
    "style": (_style, load_style, save_style, 12),
    "adapter": (_adapter, load_adapter, save_adapter, 12),
}


class TestWriteArray:
    @pytest.mark.parametrize("arr,dtype", [
        (np.linspace(-1.0, 1.0, 12).reshape(3, 4), "<f4"),
        (np.arange(6, dtype=">u8") * 0x0102030405, ">u8"),
        (np.arange(6, dtype=">u8") * 0x0102030405, "<u8"),
        (np.arange(12, dtype="<f8").reshape(3, 4).T, "<f8"),
        (np.empty((0, 5)), "<f4"),
    ], ids=["float64_to_f4", "swapped_u8_kept", "swapped_u8_to_le", "transposed", "zero_rows"])
    def test_writes_the_converted_contiguous_bytes(self, tmp_path, arr, dtype):
        with open(tmp_path / "a.bin", "wb") as f:
            container.write_array(f, arr, dtype)
        assert (tmp_path / "a.bin").read_bytes() == np.ascontiguousarray(arr, dtype).tobytes()


class TestContainerCodec:
    @pytest.mark.parametrize("kind", KINDS)
    def test_save_load_save_is_byte_identical(self, tmp_path, kind):
        write, load, save, _ = KINDS[kind]
        write(tmp_path / "a.iemb")
        save(load(tmp_path / "a.iemb"), tmp_path / "b.iemb")
        assert (tmp_path / "a.iemb").read_bytes() == (tmp_path / "b.iemb").read_bytes()

    def test_non_ascii_style_tag_survives(self, tmp_path):
        _style(tmp_path / "s.iemb")
        assert load_style(tmp_path / "s.iemb").style_tag == "légende 字幕"

    def test_style_tag_that_is_not_utf8_is_a_typed_error_naming_the_file(self, tmp_path):
        path = tmp_path / "s.iemb"
        _style(path)
        raw = bytearray(path.read_bytes())
        raw[KINDS["style"][3] + struct.calcsize("<IIddI")] = 0xFF   # first tag byte
        path.write_bytes(bytes(raw))
        with pytest.raises(StylePairError, match="s.iemb"):
            load_style(path)

    @pytest.mark.parametrize("extra", [b"\x00", b"IEMB"], ids=["one_byte", "magic"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_trailing_bytes_are_rejected(self, tmp_path, kind, extra):
        write, load, _, _ = KINDS[kind]
        path = tmp_path / "x.iemb"
        write(path)
        with open(path, "ab") as f:
            f.write(extra)
        with pytest.raises(TrailingBytes):
            load(path)

    @pytest.mark.parametrize("file_kind,loader_kind", itertools.permutations(KINDS, 2))
    def test_another_kinds_file_is_a_magic_mismatch(self, tmp_path, file_kind, loader_kind):
        KINDS[file_kind][0](tmp_path / "x.iemb")
        with pytest.raises(MagicMismatch):
            KINDS[loader_kind][1](tmp_path / "x.iemb")

    @pytest.mark.parametrize("kind", KINDS)
    def test_file_cut_inside_the_field_block_is_truncated(self, tmp_path, kind):
        write, load, _, fields_at = KINDS[kind]
        path = tmp_path / "x.iemb"
        write(path)
        path.write_bytes(path.read_bytes()[:fields_at + 2])
        with pytest.raises(TruncatedFile):
            load(path)


# ---- the JSONL record codec writes what one json.dumps per record wrote ----

def per_record_reference(header: dict, records: list[dict]) -> bytes:
    """The bytes of the writer the codec replaced: json.dumps of the header, then of each record."""
    return "".join(json.dumps(obj) + "\n" for obj in [header, *records]).encode()


IDS = st.integers(0, 2**63 - 1)
SPECIAL_FLOATS = st.sampled_from([1e-05, 0.1 + 0.2, 5e-324, -0.0, 0.28, 1.0])
FLOATS = st.one_of(SPECIAL_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
SIMS = st.one_of(SPECIAL_FLOATS, st.floats(-1.0, 1.0, exclude_min=True))   # above threshold -1
TEXT = st.one_of(st.just("légende 字幕"), st.text())


def written(write, *args) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "records.jsonl")
        write(*args, path)
        return pathlib.Path(path).read_bytes()


class TestRecordCodec:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(IDS, IDS, FLOATS), max_size=12,
                         unique_by=(lambda r: r[0], lambda r: r[1])),
           query_set=TEXT, clip_set=TEXT)
    def test_pseudo_pairs_bytes_and_round_trip(self, rows, query_set, clip_set):
        q, c, s = (list(col) for col in zip(*rows)) if rows else ([], [], [])
        pairs = PseudoPairSet(query_ids=q, clip_ids=c, sims=s, query_set=query_set,
                              clip_set=clip_set)
        header = {"kind": "pseudo_pairs", "query_set": query_set, "clip_set": clip_set,
                  "policy": "query_id"}
        records = [{"query_id": a, "clip_id": b, "sim": v} for a, b, v in rows]
        assert written(write_pseudo_pairs, pairs) == per_record_reference(header, records)
        with tempfile.TemporaryDirectory() as d:
            write_pseudo_pairs(pairs, os.path.join(d, "p.jsonl"))
            back = read_pseudo_pairs(os.path.join(d, "p.jsonl"))
        assert back.query_ids.tolist() == q and back.clip_ids.tolist() == c
        assert back.sims.tolist() == s
        assert (back.query_set, back.clip_set) == (query_set, clip_set)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(IDS, IDS, SIMS), max_size=12, unique_by=lambda r: r[1]),
           style_tag=TEXT, total=IDS)
    def test_generated_pairs_bytes_and_round_trip(self, rows, style_tag, total):
        c, r, s = (list(col) for col in zip(*rows)) if rows else ([], [], [])
        threshold = -1.0
        gen = GeneratedPairSet(clip_ids=c, rows=r, sims=s, threshold=threshold,
                               style_tag=style_tag, total_candidates=total)
        header = {"kind": "generated_pairs", "threshold": threshold, "style_tag": style_tag,
                  "total_candidates": total}
        records = [{"clip_id": a, "row": b, "sim": v} for a, b, v in rows]
        assert written(write_generated_pairs, gen) == per_record_reference(header, records)
        with tempfile.TemporaryDirectory() as d:
            write_generated_pairs(gen, os.path.join(d, "g.jsonl"))
            back = read_generated_pairs(os.path.join(d, "g.jsonl"))
        assert (back.clip_ids.tolist(), back.rows.tolist(), back.sims.tolist()) == (c, r, s)
        assert (back.threshold, back.style_tag, back.total_candidates) == (threshold, style_tag,
                                                                          total)

    @settings(max_examples=40, deadline=None)
    @given(truth=st.dictionaries(IDS, IDS, max_size=12),
           latent=st.lists(st.tuples(IDS, st.integers(-1, 99), IDS, TEXT), max_size=12))
    def test_truth_and_latent_bytes_and_round_trip(self, truth, latent):
        one = make_set([[1.0, 0.0]])
        cfg = SynthConfig(n_styles=1)
        ids, styles, clusters, splits = (list(col) for col in zip(*latent)) if latent else (
            [], [], [], [])
        ds = SynthDataset(config=cfg, train_queries=[one], pool_clips=one, test_captions=[one],
                          test_clips=one, truth=truth,
                          latent={"item_id": np.array(ids, dtype=np.int64),
                                  "style": np.array(styles, dtype=np.int64),
                                  "cluster": np.array(clusters, dtype=np.int64),
                                  "split": np.array(splits, dtype=object)})
        with tempfile.TemporaryDirectory() as d:
            paths = write_dataset(ds, d)
            truth_bytes = pathlib.Path(paths["truth"]).read_bytes()
            latent_bytes = pathlib.Path(paths["latent"]).read_bytes()
            assert read_truth(paths["truth"]) == truth
            with container.read_records(paths["latent"], "latent_record", LATENT_FIELDS,
                                        {key: type(v) for key, v in asdict(cfg).items()}) \
                    as (_, cols):
                pass
        assert truth_bytes == per_record_reference(
            {"kind": "retrieval_truth"},
            [{"query_id": q, "candidate_id": truth[q]} for q in sorted(truth)])
        assert latent_bytes == per_record_reference(
            latent_header(cfg),
            [{"item_id": i, "style": s, "cluster": k, "split": t} for i, s, k, t in latent])
        assert [cols[key].tolist() for key in LATENT_FIELDS] == [ids, styles, clusters, splits]

    def test_bulk_columns_match_the_per_record_writer(self, tmp_path):
        rng = np.random.default_rng(25)
        n = 10_000
        ids = rng.integers(-2**63, 2**63, n, dtype=np.int64)
        ids[:2] = [-2**63, 2**63 - 1]
        # floats across exponents of +-300, led by the cells where repr switches notation
        sims = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        boundary = [1e16, 9999999999999998.0, 1e-05, 0.0001, -0.0, 0.0, 5e-324,
                    2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2]
        sims[:len(boundary)] = boundary
        words = np.array(["", '"', "\\", "\x07", "légende 字幕", "pool"])
        tags = words[rng.integers(0, len(words), n)]
        columns = {"id": ids, "sim": sims, "tag": tags, '50% "of" %s': tags.astype(object)}
        header = {"kind": "bulk", "threshold": 0.28, "note": "100%"}
        container.write_records(tmp_path / "bulk.jsonl", header, columns)
        records = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
        assert len(records) == n and len(set(tags.tolist())) == len(words)
        assert (tmp_path / "bulk.jsonl").read_bytes() == per_record_reference(header, records)

    def test_memory_does_not_grow_with_the_record_count(self, tmp_path):
        # formatting every record at once held 14.3 MB at 40,000 records and 3.6 MB at 10,000
        peaks = []
        for n in (10_000, 40_000):
            rng = np.random.default_rng(26)
            columns = {"item_id": np.arange(n, dtype=np.int64), "style": rng.integers(-1, 3, n),
                       "sim": rng.uniform(-1.0, 1.0, n),
                       "split": np.array(["train_query", "test", "pool"])[rng.integers(0, 3, n)]}
            peaks.append(traced_peak(lambda: container.write_records(
                tmp_path / "latent.jsonl", {"kind": "demo"}, columns)))
        assert peaks[1] - peaks[0] < 64 << 10

    def test_generated_latent_matches_the_per_item_records(self, tmp_path):
        ds = generate(SynthConfig(n_styles=2, queries_per_style=16, pool_size=64, dim=8,
                                  content_dim=4, seed=3))
        paths = write_dataset(ds, tmp_path)
        n_test = ds.config.test_per_style
        records = []
        for s, caps in enumerate(ds.train_queries):
            for split, item_ids in (("train_query", caps.ids), ("test", ds.test_captions[s].ids)):
                records += [{"item_id": int(i), "style": s, "split": split} for i in item_ids]
        records += [{"item_id": int(i), "style": -1, "split": "pool"} for i in ds.pool_clips.ids]
        assert len(records) == 2 * (16 + n_test) + 64
        lines = pathlib.Path(paths["latent"]).read_text().splitlines()[1:]
        for want, line in zip(records, lines):
            got = json.loads(line)
            assert list(got) == ["item_id", "style", "cluster", "split"]
            assert {k: got[k] for k in want} == want
            assert 0 <= got["cluster"] < 8
        assert len(lines) == len(records)

    def test_corrupt_field_names_file_line_and_key(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"kind": "demo"}\n{"i": 1}\n\n{"i": true}\n')
        with pytest.raises(CorruptField, match=r"p\.jsonl: line 4: bad int 'i': True"):
            with container.read_records(path, "demo", {"i": int}, {}):
                pass
        # a header-only read stops before the records
        with container.read_records(path, "demo", None, {}) as got:
            assert got == ({"kind": "demo"}, None)

    def test_another_kind_is_a_magic_mismatch(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"kind": "demo"}\n')
        with pytest.raises(MagicMismatch, match="other"):
            with container.read_records(path, "other", {}, {}):
                pass
