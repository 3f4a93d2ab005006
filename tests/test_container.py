import itertools
import os
import struct

import numpy as np
import pytest

from stylepair import container
from stylepair.embedcore import load_embeddings, save_embeddings
from stylepair.errors import MagicMismatch, StylePairError, TrailingBytes, TruncatedFile
from stylepair.styler import StyleTransform, load_style, save_style
from stylepair.trainer import AdapterModel, load_adapter, save_adapter

from conftest import make_set


def failing_records(n_good):
    for i in range(n_good):
        yield {"i": i}
    raise RuntimeError("writer died halfway")


class TestAtomicWrites:
    def test_failed_record_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        container.write_records(path, {"kind": "demo"}, [{"i": 0}])
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            container.write_records(path, {"kind": "demo"}, failing_records(1000))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["pairs.jsonl"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            container.write_records(tmp_path / "new.jsonl", {"kind": "demo"},
                                    failing_records(3))
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
