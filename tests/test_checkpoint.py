import json

import numpy as np
import pytest

from canet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from canet.model import ABLATIONS, CanModel, ModelConfig, can_forward
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


# The checkpoint layout, which is also Adam's parameter order: (name, shape)
# of every parameter of LAYOUT_CONFIG in order, as the ablation "none" writes
# it plus each layer's "dense" of "no-graph-conv".
LAYOUT_CONFIG = dict(n_sensors=3, window=3, layers=2, heads=2, model_dim=6, embed_dim=4,
                     neighbor_k=2)
LAYOUT = [
    ("embedding", (3, 4)),
    ("input.weight", (1, 6)),
    ("input.bias", (6,)),
    ("encoder.0.attention.w_query", (6, 6)),
    ("encoder.0.attention.w_key", (6, 6)),
    ("encoder.0.attention.w_value", (6, 6)),
    ("encoder.0.attention.w_out", (6, 6)),
    ("encoder.0.graph.feature_map", (6, 6)),
    ("encoder.0.graph.attn_vector", (48, 1)),
    ("encoder.0.graph.propagation", (6, 6)),
    ("encoder.0.dense", (6, 6)),
    ("encoder.0.ln_attn_gain", (6,)),
    ("encoder.0.ln_attn_bias", (6,)),
    ("encoder.0.ln_graph_gain", (6,)),
    ("encoder.0.ln_graph_bias", (6,)),
    ("encoder.1.attention.w_query", (6, 6)),
    ("encoder.1.attention.w_key", (6, 6)),
    ("encoder.1.attention.w_value", (6, 6)),
    ("encoder.1.attention.w_out", (6, 6)),
    ("encoder.1.graph.feature_map", (6, 6)),
    ("encoder.1.graph.attn_vector", (48, 1)),
    ("encoder.1.graph.propagation", (6, 6)),
    ("encoder.1.dense", (6, 6)),
    ("encoder.1.ln_attn_gain", (6,)),
    ("encoder.1.ln_attn_bias", (6,)),
    ("encoder.1.ln_graph_gain", (6,)),
    ("encoder.1.ln_graph_bias", (6,)),
    ("bottleneck.0.weight", (6, 8)),
    ("bottleneck.0.bias", (8,)),
    ("bottleneck.1.weight", (8, 4)),
    ("bottleneck.1.bias", (4,)),
    ("bottleneck.2.weight", (4, 8)),
    ("bottleneck.2.bias", (8,)),
    ("bottleneck.3.weight", (8, 6)),
    ("bottleneck.3.bias", (6,)),
    ("pre_decoder.0.attention.w_query", (6, 6)),
    ("pre_decoder.0.attention.w_key", (6, 6)),
    ("pre_decoder.0.attention.w_value", (6, 6)),
    ("pre_decoder.0.attention.w_out", (6, 6)),
    ("pre_decoder.0.ln_gain", (6,)),
    ("pre_decoder.0.ln_bias", (6,)),
    ("pre_decoder.1.attention.w_query", (6, 6)),
    ("pre_decoder.1.attention.w_key", (6, 6)),
    ("pre_decoder.1.attention.w_value", (6, 6)),
    ("pre_decoder.1.attention.w_out", (6, 6)),
    ("pre_decoder.1.ln_gain", (6,)),
    ("pre_decoder.1.ln_bias", (6,)),
    ("rec_decoder.0.attention.w_query", (6, 6)),
    ("rec_decoder.0.attention.w_key", (6, 6)),
    ("rec_decoder.0.attention.w_value", (6, 6)),
    ("rec_decoder.0.attention.w_out", (6, 6)),
    ("rec_decoder.0.ln_gain", (6,)),
    ("rec_decoder.0.ln_bias", (6,)),
    ("rec_decoder.1.attention.w_query", (6, 6)),
    ("rec_decoder.1.attention.w_key", (6, 6)),
    ("rec_decoder.1.attention.w_value", (6, 6)),
    ("rec_decoder.1.attention.w_out", (6, 6)),
    ("rec_decoder.1.ln_gain", (6,)),
    ("rec_decoder.1.ln_bias", (6,)),
    ("pred_head.weight", (6, 1)),
    ("pred_head.bias", (1,)),
    ("rec_head.weight", (6, 1)),
    ("rec_head.bias", (1,)),
]


def expected_layout(ablation):
    """LAYOUT without the entries a variant has no parameter for."""
    absent = {".graph.": ablation == "no-graph-conv",
              ".dense": ablation != "no-graph-conv",
              "bottleneck.": ablation == "no-ae",
              "rec_": ablation == "no-rec-decoder"}
    return [(name, shape) for name, shape in LAYOUT
            if not any(part in name for part, gone in absent.items() if gone)]


class TestLayout:
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_names_shapes_and_order(self, tmp_path, ablation):
        model = CanModel(ModelConfig(**LAYOUT_CONFIG, ablation=ablation), seed=0)
        save_checkpoint(model, tmp_path / "m.ckpt")
        with open(tmp_path / "m.ckpt", "rb") as handle:
            header = json.loads(handle.readline())
        written = [(entry["name"], tuple(entry["shape"])) for entry in header["params"]]
        assert written == expected_layout(ablation)


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

    @pytest.mark.parametrize("name, index, bad", [
        ("embedding", (1, 2), np.nan), ("input.weight", (0, 3), np.inf)])
    def test_non_finite_parameter_rejected(self, tmp_path, name, index, bad):
        model = random_model()
        dict(model.named_parameters())[name].data[index] = bad
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"parameter {name} in {path} holds a non-finite value"

    @pytest.mark.parametrize("edit", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
    def test_malformed_header_rejected(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        save_checkpoint(random_model(), path, {"note": "x"})
        rewrite_header(path, edit, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
