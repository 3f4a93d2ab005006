import os

import numpy as np
import pytest

from stylepair import container
from stylepair.embedcore import load_embeddings, save_embeddings
from stylepair.errors import TruncatedFile

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
