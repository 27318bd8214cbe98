import json

import numpy as np
import pytest

from canet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from canet.model import CanModel, ModelConfig, can_forward
from conftest import BAD_HEADERS, append_data_bytes, rewrite_header


def random_model(seed=3, **overrides) -> CanModel:
    base = dict(n_sensors=3, window=4, layers=2, heads=2, model_dim=8,
                embed_dim=4, neighbor_k=2)
    base.update(overrides)
    return CanModel(ModelConfig(**base), seed=seed)


class TestRoundtrip:
    def test_parameters_bit_exact(self, tmp_path):
        model = random_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, {"note": "x"})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": "x"}
        for (name, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_forward_pass_bit_identical_after_reload(self, tmp_path, rng):
        model = random_model(seed=8)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        a = can_forward(x, model)
        b = can_forward(x, loaded)
        assert a.y_pred.data.tobytes() == b.y_pred.data.tobytes()
        assert a.y_rec.data.tobytes() == b.y_rec.data.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        model = random_model(seed=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1, {"k": 1})
        save_checkpoint(model, p2, {"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_ablated_model_roundtrips(self, tmp_path):
        model = random_model(ablation="no-rec-decoder")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.rec_decoder is None
        assert loaded.num_parameters() == model.num_parameters()


class TestVersion1:
    def test_saves_version_2(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(random_model(), path)
        with open(path, "rb") as handle:
            assert json.loads(handle.readline())["version"] == 2


class TestCorruption:
    def test_truncated_file_rejected(self, tmp_path):
        model = random_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_data_after_last_parameter_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(random_model(), path)
        append_data_bytes(path, 8, path)
        with pytest.raises(CheckpointError, match="8 data bytes after its last parameter"):
            load_checkpoint(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"\x00\x01not json\n\xff\xff")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        model = random_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            blob = handle.read()
        for version in (999, 1):
            header["version"] = version
            with open(path, "wb") as handle:
                handle.write(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
            with pytest.raises(CheckpointError) as err:
                load_checkpoint(path)
            assert str(err.value) == f"checkpoint version {version} not supported (expected 2)"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize("edit", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
    def test_malformed_header_rejected(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        save_checkpoint(random_model(), path, {"note": "x"})
        rewrite_header(path, edit, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
