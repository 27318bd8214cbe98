"""Acceptance gates: one test per criterion, each printing a pass line.

The desk-scale end-to-end run (criteria 7 and 10) drives the real CLI into
temporary directories; everything else checks properties and oracles at the
stated tolerances.
"""

import json
import time

import numpy as np
import pytest

from canet import Tensor, backward
from canet.attention import AttentionParams, multi_head_attention
from canet.checkpoint import load_checkpoint
from canet.cli import main as cli_main
from canet.data import load_csv, make_windows, minmax_apply, NormStats
from canet.detection import (confusion_metrics, normalize_errors, point_adjust,
                             predict_series, threshold_grid_search)
from canet.graph import (GraphConvParams, SensorGraph, build_sensor_graph,
                         global_adjacency, global_local_conv,
                         init_sensor_embedding, local_adjacency, topk_mask)
from canet.model import CanModel, ModelConfig, can_forward, decoder_forward, encoder_forward
from canet.synth import place_segments, synth_generate
from canet.train import (TrainConfig, joint_loss, prediction_loss,
                         reconstruction_loss, train)
from conftest import finite_difference_gradient, float64, max_rel_err, total
from test_detection import brute_force_best_f1, brute_force_point_adjust

DESK_TRAIN_FLAGS = [
    "--seed", "7", "--window", "5", "--layers", "1", "--heads", "4",
    "--model-dim", "16", "--embed-dim", "8", "--neighbor-k", "5",
    "--batch-size", "64", "--lr", "0.002", "--max-epochs", "30",
    "--patience", "5",
]


def announce(number: int, message: str) -> None:
    print(f"[PASS] criterion {number}: {message}")


def run_desk_pipeline(root) -> dict:
    """synth -> train -> evaluate, exactly as a user would run them."""
    data = root / "data"
    run = root / "run"
    eval_dir = root / "eval"
    t0 = time.time()
    assert cli_main(["synth", "--sensors", "5", "--length", "2000", "--seed", "7",
                     "--spikes", "5", "--magnitude", "5.0", "--out", str(data)]) == 0
    assert cli_main(["train", "--data", str(data / "train.csv"),
                     "--out", str(run)] + DESK_TRAIN_FLAGS) == 0
    train_seconds = time.time() - t0
    assert cli_main(["evaluate", "--data", str(data / "test.csv"),
                     "--checkpoint", str(run / "model.ckpt"),
                     "--out", str(eval_dir)]) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    return {
        "data": data, "run": run, "eval": eval_dir,
        "report": report, "train_seconds": train_seconds,
        "total_seconds": time.time() - t0,
    }


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    return run_desk_pipeline(tmp_path_factory.mktemp("desk"))


class TestCriterion1GradientSuite:
    def test_criterion_01_gradient_suite(self):
        start = time.time()
        gen = np.random.default_rng(42)

        # primitives against central differences
        from canet.tensor import (concat, layer_norm, leaky_relu, matmul, relu,
                                  row_normalize, softmax, sqrt)
        x = Tensor(gen.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(gen.standard_normal((4, 4)), requires_grad=True)
        gain = Tensor(gen.standard_normal(4), requires_grad=True)
        bias = Tensor(gen.standard_normal(4), requires_grad=True)
        probe = Tensor(gen.standard_normal((3, 4)))
        cases = {
            "matmul": lambda: total(matmul(x, w) * probe),
            "softmax": lambda: total(softmax(matmul(x, w)) * probe),
            "layer_norm": lambda: total(layer_norm(x, gain, bias) * probe),
            "relu": lambda: total(relu(matmul(x, w)) * probe),
            "leaky_relu": lambda: total(leaky_relu(matmul(x, w)) * probe),
            "row_normalize": lambda: total(row_normalize(relu(matmul(x, w)) + 0.3) * probe),
            "sqrt_mean": lambda: sqrt((x * x).mean()),
            "concat_slice": lambda: total(concat([x, x[..., :2]], axis=-1)
                                          * concat([probe, probe[..., :2]], axis=-1)),
        }
        for name, loss_fn in cases.items():
            for p, grad in backward(loss_fn()).items():
                fd = finite_difference_gradient(lambda _: loss_fn(), p, step=1e-5).data
                assert max_rel_err(grad, fd) < 1e-4, f"primitive {name}"

        # full joint loss at the stated sizes, 64-bit
        cfg = ModelConfig(n_sensors=2, window=3, layers=1, heads=2, model_dim=4,
                          embed_dim=3, neighbor_k=2, retain=0.8)
        model = float64(CanModel(cfg, seed=7))
        data = Tensor(gen.uniform(0, 1, (2, 3)))
        target = Tensor(gen.uniform(0, 1, (2,)))

        def full_loss():
            out = can_forward(data, model)
            return joint_loss(prediction_loss(out.y_pred, target),
                              reconstruction_loss(out.y_rec, data), 0.4, 0.6)

        grads = backward(full_loss())
        worst = 0.0
        for name, p in model.named_parameters():
            fd = finite_difference_gradient(lambda _: full_loss(), p, step=1e-5).data
            analytic = grads.get(p, np.zeros_like(p.data))
            err = max_rel_err(analytic, fd)
            assert err < 1e-4, f"parameter {name}: {err:.2e}"
            worst = max(worst, err)

        elapsed = time.time() - start
        assert elapsed < 60.0
        announce(1, f"all primitives and the full joint loss match finite "
                    f"differences (worst {worst:.1e}) in {elapsed:.1f}s")


class TestCriterion2GraphProperties:
    def test_criterion_02_graph_properties(self):
        start = time.time()
        gen = np.random.default_rng(11)
        for trial in range(200):
            n = int(gen.integers(2, 9))
            d = int(gen.integers(1, 6))
            k = int(gen.integers(1, n + 2))
            emb = Tensor(gen.standard_normal((n, d)))
            adj = global_adjacency(emb).data
            assert np.abs(adj - adj.T).max() < 1e-6
            assert (adj >= 0).all()

            mask = topk_mask(adj, k)
            assert (mask.sum(axis=1) == min(k, n)).all()
            for i in range(n):
                oracle = sorted(range(n), key=lambda j: (-adj[i, j], j))[:min(k, n)]
                np.testing.assert_array_equal(np.flatnonzero(mask[i]), sorted(oracle))

            params = GraphConvParams.create(d, 3, 0.8, gen)
            local = local_adjacency(Tensor(gen.standard_normal((n, 3, d))), params).data
            np.testing.assert_allclose(local.sum(axis=-1), 1.0, atol=1e-6)
        elapsed = time.time() - start
        assert elapsed < 10.0
        announce(2, f"200 random embeddings pass symmetry/top-k/row-sum checks "
                    f"in {elapsed:.1f}s")


class TestCriterion3PropagationIdentity:
    def test_criterion_03_gcn_identities(self):
        gen = np.random.default_rng(5)
        n, seq, width = 5, 4, 6
        h = gen.standard_normal((n, seq, width)).astype(np.float32)
        eye = Tensor(np.eye(width, dtype=np.float32))

        # retain=1 with identity feature map: arbitrary graphs are ignored
        params = GraphConvParams.create(width, seq, retain=1.0, rng=gen)
        params.propagation = eye
        gen.random((n, n))      # unused: keeps the later draws, and so this data, as before
        graph = SensorGraph(normalized=Tensor(gen.random((n, n))),
                            mask=(gen.random((n, n)) < 0.5).astype(np.float64))
        local = Tensor(gen.random((n, n)).astype(np.float32))
        out = global_local_conv(Tensor(h), graph, local, params).data
        assert out.tobytes() == h.tobytes()

        # retain=0 with identity combined graph
        params0 = GraphConvParams.create(width, seq, retain=0.0, rng=gen)
        params0.propagation = eye
        graph0 = SensorGraph(normalized=Tensor(np.eye(n, dtype=np.float32) * 0.25),
                             mask=np.ones((n, n)))
        local0 = Tensor(np.eye(n, dtype=np.float32) * 0.75)
        out0 = global_local_conv(Tensor(h), graph0, local0, params0).data
        assert out0.tobytes() == h.tobytes()
        announce(3, "propagation reduces to the input bit-exactly at both retain "
                    "extremes")


class TestCriterion4CausalityBidirectionality:
    def test_criterion_04_causality_and_bidirectionality(self):
        gen = np.random.default_rng(17)
        cfg = ModelConfig(n_sensors=3, window=6, layers=2, heads=2, model_dim=8,
                          embed_dim=4, neighbor_k=2)
        model = CanModel(cfg, seed=13)

        # decoder outputs before position p never move when inputs after p do
        seed_seq = gen.standard_normal((3, 5, 8)).astype(np.float32)
        embeddings = [Tensor(gen.standard_normal((3, 8)).astype(np.float32))
                      for _ in range(2)]
        base = decoder_forward(Tensor(seed_seq), embeddings, model.pre_decoder,
                               crop_len=7).data
        for slot in range(5):
            bumped = seed_seq.copy()
            bumped[:, slot:, :] += gen.standard_normal(bumped[:, slot:, :].shape).astype(np.float32)
            moved = decoder_forward(Tensor(bumped), embeddings, model.pre_decoder,
                                    crop_len=7).data
            boundary = 2 + slot          # two prepended embedding slots
            assert moved[:, :boundary, :].tobytes() == base[:, :boundary, :].tobytes()
            assert not np.array_equal(moved[:, boundary:, :], base[:, boundary:, :])

        # encoder placeholder reacts to every input timestamp
        x = gen.random((3, 6)).astype(np.float32)
        base_emb = encoder_forward(x, model)
        for t in range(6):
            bumped = x.copy()
            bumped[:, t] += 0.25
            moved_emb = encoder_forward(bumped, model)
            assert not np.allclose(base_emb[-1].data, moved_emb[-1].data)
        announce(4, "decoders are causal bit-exactly; the encoder placeholder "
                    "sees every timestamp")


class TestCriterion5DetectionOracles:
    def test_criterion_05_detection_oracles(self):
        gen = np.random.default_rng(23)
        for _ in range(1000):
            t = int(gen.integers(1, 201))
            truth = (gen.random(t) < float(gen.uniform(0.05, 0.5))).astype(int)
            pred = (gen.random(t) < float(gen.uniform(0.05, 0.5))).astype(int)
            np.testing.assert_array_equal(point_adjust(pred, truth),
                                          brute_force_point_adjust(pred, truth))

        rep = confusion_metrics(np.array([1, 1, 0, 0, 1]), np.array([1, 0, 0, 1, 1]))
        assert (rep.tp, rep.fp, rep.fn) == (2, 1, 1)
        assert rep.precision == pytest.approx(2 / 3)
        assert rep.recall == pytest.approx(2 / 3)
        assert rep.f1 == pytest.approx(2 / 3)

        for _ in range(25):
            t = int(gen.integers(8, 120))
            scores = np.round(gen.random(t), 2)
            truth = (gen.random(t) < 0.25).astype(int)
            if not truth.any():
                truth[int(gen.integers(0, t))] = 1
            rep = threshold_grid_search(scores, truth)
            assert rep.f1 == pytest.approx(brute_force_best_f1(scores, truth))
        announce(5, "point-adjust, confusion counts and threshold search match "
                    "their brute-force oracles")


class TestCriterion6IqrNormalization:
    def test_criterion_06_iqr_normalization(self):
        calib = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        mu = calib.mean()
        q1, q3 = np.quantile(calib[0], [0.25, 0.75])
        assert mu == 3.0 and q3 - q1 == 2.0
        out = normalize_errors(np.array([[5.0, 3.0, 1.0]]), calib)
        np.testing.assert_allclose(out, [[1.0, 0.0, -1.0]])

        constant = normalize_errors(np.array([[2.5, 2.0]]), np.full((1, 8), 2.0))
        assert np.isfinite(constant).all()
        np.testing.assert_allclose(constant, [[0.5 / 1e-6, 0.0]])
        announce(6, "calibration row 1..5 gives mean 3 and IQR 2 exactly; the "
                    "constant-row guard stays finite")


class TestCriterion7DeskScaleGate:
    def test_criterion_07_end_to_end_desk_gate(self, desk_run):
        assert desk_run["train_seconds"] < 300.0

        model, extra = load_checkpoint(desk_run["run"] / "model.ckpt")
        stats = NormStats(minimum=np.asarray(extra["norm_min"]),
                          maximum=np.asarray(extra["norm_max"]))
        train_series = minmax_apply(load_csv(desk_run["data"] / "train.csv"), stats)
        dataset = make_windows(train_series, model.config.window)
        preds, _ = predict_series(model, dataset)
        targets = dataset.values[:, model.config.window:]
        rmse = float(np.sqrt(np.mean((preds - targets) ** 2)))
        assert rmse < 0.05, f"train prediction RMSE {rmse:.4f}"

        f1 = desk_run["report"]["f1"]
        assert f1 >= 0.8, f"point-adjusted F1 {f1:.4f}"
        announce(7, f"desk-scale gate: train RMSE {rmse:.4f} < 0.05, "
                    f"F1 {f1:.4f} >= 0.8, trained in {desk_run['train_seconds']:.0f}s")


class TestCriterion8AblationDirection:
    def test_criterion_08_ablation_directionality(self):
        def f1_for(seed: int, ablation: str) -> float:
            gen = np.random.default_rng(seed)
            segments = place_segments(3, 600, 6, gen, duration=8, magnitude=3.0,
                                      sensors_per_segment=1)
            made = synth_generate(6, 600, seed=seed, anomalies=segments)
            from canet.data import minmax_fit
            stats = minmax_fit(made.train)
            train_ds = make_windows(minmax_apply(made.train, stats), 5)
            test_ds = make_windows(minmax_apply(made.test, stats), 5)
            cfg = TrainConfig(window=5, layers=1, heads=4, model_dim=16,
                              embed_dim=8, neighbor_k=4, batch_size=64, lr=2e-3,
                              max_epochs=10, patience=4, seed=seed, ablation=ablation)
            model, _ = train(train_ds, cfg)
            from canet.detection import evaluate
            return evaluate(model, test_ds, made.test.labels).f1

        seeds = (101, 202, 303, 404, 505)
        full = [f1_for(s, "none") for s in seeds]
        ablated = [f1_for(s, "no-graph-conv") for s in seeds]
        assert np.median(full) >= np.median(ablated), (full, ablated)
        announce(8, f"median F1 full {np.median(full):.3f} >= "
                    f"no-graph-conv {np.median(ablated):.3f} over {len(seeds)} seeds")


class TestCriterion9ComplexityScaling:
    """Interleaved block timing: per-call clocks are too noisy at the
    millisecond scale, so each measurement amortizes a block of calls and
    the ratio is the median over alternating rounds."""

    @staticmethod
    def block_time(fn, calls=20) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    def median_ratio(self, slow_fn, fast_fn, rounds=5) -> float:
        ratios = []
        for _ in range(rounds):
            fast = self.block_time(fast_fn)
            slow = self.block_time(slow_fn)
            ratios.append(slow / fast)
        return float(np.median(ratios))

    def test_criterion_09_complexity_scaling(self):
        gen = np.random.default_rng(0)
        params = AttentionParams.create(16, 2, gen)
        short = Tensor(gen.standard_normal((2, 128, 16)).astype(np.float32))
        long = Tensor(gen.standard_normal((2, 256, 16)).astype(np.float32))
        attn_ratio = self.median_ratio(lambda: multi_head_attention(long, params),
                                       lambda: multi_head_attention(short, params))
        assert 2.0 <= attn_ratio <= 6.0, f"attention ratio {attn_ratio:.2f}"

        def graph_layer(n: int):
            emb = init_sensor_embedding(n, 16, np.random.default_rng(1))
            gp = GraphConvParams.create(16, 8, 0.8, np.random.default_rng(2))
            h = Tensor(np.random.default_rng(3).standard_normal((n, 8, 16)).astype(np.float32))

            def run():
                g = build_sensor_graph(emb, 10)
                return global_local_conv(h, g, local_adjacency(h, gp), gp)
            return run

        graph_ratio = self.median_ratio(graph_layer(256), graph_layer(128), rounds=5)
        assert graph_ratio <= 6.0, f"graph ratio {graph_ratio:.2f}"
        announce(9, f"doubling the window scales attention x{attn_ratio:.1f} "
                    f"(target 4 +/- 50%); doubling sensors scales the graph "
                    f"layer x{graph_ratio:.1f} (<= 6)")


class TestCriterion10Reproducibility:
    def test_criterion_10_reproducibility(self, desk_run, tmp_path):
        second = run_desk_pipeline(tmp_path)
        first_ckpt = (desk_run["run"] / "model.ckpt").read_bytes()
        second_ckpt = (second["run"] / "model.ckpt").read_bytes()
        assert first_ckpt == second_ckpt

        for name in ("report.json", "scores.csv"):
            assert (desk_run["eval"] / name).read_bytes() == \
                (second["eval"] / name).read_bytes(), name
        announce(10, "two seeded runs produce byte-identical checkpoints and "
                     "reports")
