import csv
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pissa
from pissa.adapter import lora_init, merge, pissa_init
from pissa.harness.cli import main
from pissa.harness.data import (DATA_VERSION, generate_cluster_dataset,
                                generate_spectral_matrix)
from pissa.harness.experiments import (KINDS, ExperimentSpec, matrix_seed,
                                       run_experiment)
from pissa.harness.matrix_io import (FileFormatError, load_adapter_dir,
                                     load_matrix, load_quantized,
                                     save_adapter_dir, save_matrix,
                                     save_quantized)
from pissa.linalg import NumericalError, RandomSource, exact_svd, nuclear_norm
from pissa.quant import QuantConfig, dequantize, qpissa_init, quantize
from pissa.train import (STRATEGIES, Dataset, MlpModel, TrainConfig,
                         inject_adapters, train_model)


class TestSpectralMatrix:
    def test_flat_spectrum_nuclear_norm(self):
        # alpha = 0 gives all singular values equal to 1.
        w = generate_spectral_matrix(12, 9, 0.0, 3)
        assert nuclear_norm(w) == pytest.approx(9.0, rel=1e-10)

    def test_power_law_values(self):
        w = generate_spectral_matrix(8, 4, 1.0, 0)
        np.testing.assert_allclose(exact_svd(w).s,
                                   [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=1e-10)

    def test_seed_determinism(self):
        a = generate_spectral_matrix(16, 16, 1.0, 5)
        b = generate_spectral_matrix(16, 16, 1.0, 5)
        c = generate_spectral_matrix(16, 16, 1.0, 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            generate_spectral_matrix(4, 4, -1.0, 0)

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            generate_spectral_matrix(4, 4, float("nan"), 0)


class TestClusterDataset:
    def test_shapes_and_determinism(self):
        d1 = generate_cluster_dataset(4, 8, 25, 0.5, 7)
        d2 = generate_cluster_dataset(4, 8, 25, 0.5, 7)
        assert d1.features.shape == (100, 8)
        assert sorted(np.bincount(d1.labels)) == [25] * 4
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.labels, d2.labels)

    def test_class_means_recover_centroids(self):
        data = generate_cluster_dataset(3, 6, 500, 0.5, 1)
        for c in range(3):
            mean = data.features[data.labels == c].mean(axis=0)
            expected = np.zeros(6)
            expected[c] = 3.0
            np.testing.assert_allclose(mean, expected, atol=0.15)

    def test_low_noise_separable(self):
        data = generate_cluster_dataset(5, 8, 40, 0.1, 2)
        # Nearest-centroid labels must match exactly at this noise level.
        predicted = np.argmax(data.features[:, :5], axis=1)
        assert (predicted == data.labels).all()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_cluster_dataset(1, 8, 10, 1.0, 0)
        with pytest.raises(ValueError):
            generate_cluster_dataset(9, 8, 10, 1.0, 0)


class TestMatrixFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = RandomSource(0).normal((13, 7))
        save_matrix(tmp_path / "m.pssa", m)
        assert np.array_equal(load_matrix(tmp_path / "m.pssa"), m)

    def test_header_layout(self, tmp_path):
        save_matrix(tmp_path / "m.pssa", np.zeros((3, 5)))
        raw = (tmp_path / "m.pssa").read_bytes()
        assert raw[:4] == b"PSSA"
        assert struct.unpack("<III", raw[4:16]) == (1, 3, 5)
        assert len(raw) == 16 + 3 * 5 * 8

    def test_quantized_bytes_pinned(self, tmp_path):
        # Nine entries in blocks of 4: scale 1, an all-zero block (scale 0,
        # zero-level codes 7) and a ragged last block of one entry (scale 3).
        # Codes 12 0 11 9 7 7 7 7 0 pack two per byte, low nibble first,
        # with a zero pad nibble after the odd ninth.
        m = np.array([[0.5, -1.0, 0.3], [0.125, 0.0, 0.0], [0.0, 0.0, -3.0]])
        save_quantized(tmp_path / "m.psq4", quantize(m, QuantConfig(block_size=4)))
        assert (tmp_path / "m.psq4").read_bytes() == bytes.fromhex(
            "50535134" "01000000" "03000000" "03000000" "04000000"
            "000000000000f03f" "0000000000000000" "0000000000000840"
            "0c9b777700")

    def test_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch):
        # The rename fails after the temp file is written: the temp file
        # goes, the error is re-raised and the old file keeps its bytes.
        path = tmp_path / "m.pssa"
        save_matrix(path, np.ones((2, 2)))
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_matrix(path, np.zeros((3, 3)))
        assert [p.name for p in tmp_path.iterdir()] == ["m.pssa"]
        assert path.read_bytes() == before

    def test_bad_magic(self, tmp_path):
        (tmp_path / "m.pssa").write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
        with pytest.raises(FileFormatError):
            load_matrix(tmp_path / "m.pssa")

    def test_unsupported_version(self, tmp_path):
        save_matrix(tmp_path / "m.pssa", np.zeros((2, 2)))
        raw = bytearray((tmp_path / "m.pssa").read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        (tmp_path / "m.pssa").write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="version"):
            load_matrix(tmp_path / "m.pssa")

    def test_truncated(self, tmp_path):
        save_matrix(tmp_path / "m.pssa", np.zeros((2, 2)))
        raw = (tmp_path / "m.pssa").read_bytes()
        (tmp_path / "m.pssa").write_bytes(raw[:-1])
        with pytest.raises(FileFormatError, match="bytes"):
            load_matrix(tmp_path / "m.pssa")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, tmp_path, bad):
        # save_matrix refuses such a matrix, so the file is written by hand.
        payload = np.array([[1.0, bad], [0.0, 2.0]]).astype("<f8").tobytes()
        path = tmp_path / "m.pssa"
        path.write_bytes(b"PSSA" + struct.pack("<III", 1, 2, 2) + payload)
        with pytest.raises(FileFormatError, match="m.pssa.*non-finite"):
            load_matrix(path)

    def test_quantized_roundtrip(self, tmp_path):
        q = quantize(RandomSource(1).normal((9, 11)), QuantConfig(block_size=16))
        save_quantized(tmp_path / "m.psq4", q)
        loaded = load_quantized(tmp_path / "m.psq4")
        assert (loaded.shape, loaded.block_size) == ((9, 11), 16)
        assert np.array_equal(loaded.codes, q.codes)
        assert np.array_equal(loaded.scales, q.scales)
        assert np.array_equal(dequantize(loaded), dequantize(q))

    def test_quantized_bad_magic(self, tmp_path):
        (tmp_path / "m.psq4").write_bytes(b"PSSA" + bytes(16))
        with pytest.raises(FileFormatError):
            load_quantized(tmp_path / "m.psq4")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_quantized_non_finite_scale_rejected(self, tmp_path, bad):
        q = quantize(RandomSource(1).normal((8, 8)), QuantConfig(block_size=64))
        q.scales[0] = bad
        save_quantized(tmp_path / "m.psq4", q)
        with pytest.raises(FileFormatError, match="non-finite block scale"):
            load_quantized(tmp_path / "m.psq4")


def _written_bytes(save, obj) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        save(Path(d) / "f", obj)
        return (Path(d) / "f").read_bytes()


def _mangled(payload: bytes):
    """Truncations, bit flips, random bytes, and random bytes or a random
    version field behind the magic."""
    def flip(bits):
        raw = bytearray(payload)
        for bit in bits:
            raw[bit // 8] ^= 1 << (bit % 8)
        return bytes(raw)

    return st.one_of(
        st.integers(0, len(payload) - 1).map(lambda i: payload[:i]),
        st.lists(st.integers(0, 8 * len(payload) - 1), min_size=1,
                 max_size=4).map(flip),
        st.binary(max_size=2 * len(payload)),
        st.binary(max_size=2 * len(payload)).map(lambda b: payload[:4] + b),
        st.binary(min_size=4, max_size=4).map(lambda b: payload[:4] + b + payload[8:]),
    )


def _load_or_format_error(load, data: bytes):
    """Load data from a file; None where the loader raises FileFormatError."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f"
        path.write_bytes(data)
        try:
            return load(path)
        except FileFormatError:
            return None


_PSSA = _written_bytes(save_matrix, RandomSource(0).normal((3, 5)))
_PSQ4 = _written_bytes(save_quantized, quantize(RandomSource(1).normal((3, 5)),
                                                QuantConfig(block_size=4)))


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_mangled(_PSSA))
    def test_matrix_loader_raises_only_file_format_error(self, data):
        m = _load_or_format_error(load_matrix, data)
        if m is not None:
            assert m.ndim == 2 and np.isfinite(m).all()

    @settings(max_examples=300, deadline=None)
    @given(_mangled(_PSQ4))
    def test_quantized_loader_raises_only_file_format_error(self, data):
        q = _load_or_format_error(load_quantized, data)
        if q is not None:
            values = dequantize(q)
            assert values.shape == q.shape and np.isfinite(values).all()


class TestAdapterCheckpoints:
    def test_dense_roundtrip(self, tmp_path):
        w = RandomSource(0).normal((12, 10))
        layer = pissa_init(w, 3)
        save_adapter_dir(tmp_path / "ckpt", layer)
        loaded = load_adapter_dir(tmp_path / "ckpt")
        assert np.array_equal(loaded.adapter.a, layer.adapter.a)
        assert np.array_equal(loaded.adapter.b, layer.adapter.b)
        assert np.array_equal(loaded.base, layer.base)
        assert loaded.adapter.rank == 3
        assert loaded.origin == layer.origin
        meta = json.loads((tmp_path / "ckpt" / "meta.json").read_text())
        assert meta == {"rank": 3, "scale": 1.0, "origin": "pissa",
                        "base_file": "base.pssa"}

    def test_quantized_base_roundtrip(self, tmp_path):
        w = RandomSource(1).normal((16, 16))
        layer = qpissa_init(w, 2)
        save_adapter_dir(tmp_path / "q", layer)
        loaded = load_adapter_dir(tmp_path / "q")
        assert np.array_equal(dequantize(loaded.base), dequantize(layer.base))
        assert loaded.origin == "qpissa"

    def test_missing_base_rejected(self, tmp_path):
        w = RandomSource(2).normal((8, 8))
        save_adapter_dir(tmp_path / "nb", lora_init(w, 2, RandomSource(0)))
        meta_path = tmp_path / "nb" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["base_file"] = None
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FileFormatError, match="no stored base"):
            load_adapter_dir(tmp_path / "nb")

    @pytest.mark.parametrize("field,text", [
        ("scale", "NaN"), ("scale", "Infinity"), ("scale", "-Infinity"),
        ("scale", "1e400"), ("scale", "0"), ("scale", "-1.5"), ("scale", '"2.5"'),
        ("scale", "true"), ("scale", "null"), ("rank", "0"),
        ("rank", "-2"), ("rank", "2.7"), ("rank", "true"), ("rank", "3")])
    def test_bad_rank_or_scale_rejected(self, tmp_path, field, text):
        save_adapter_dir(tmp_path / "c", pissa_init(np.eye(4), 2))
        meta_path = tmp_path / "c" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta[field] = "@"
        meta_path.write_text(json.dumps(meta).replace('"@"', text))
        with pytest.raises(FileFormatError, match=f"meta.json.*{field}"):
            load_adapter_dir(tmp_path / "c")

    @pytest.mark.parametrize("text", ["[1, 2]", '"bogus"', "null"])
    def test_origin_not_a_strategy_rejected(self, tmp_path, text):
        save_adapter_dir(tmp_path / "c", pissa_init(np.eye(4), 2))
        meta_path = tmp_path / "c" / "meta.json"
        meta_path.write_text(meta_path.read_text().replace('"pissa"', text))
        with pytest.raises(FileFormatError, match="meta.json.*origin"):
            load_adapter_dir(tmp_path / "c")

    def test_non_finite_factor_rejected(self, tmp_path):
        save_adapter_dir(tmp_path / "c", pissa_init(np.eye(4), 2))
        path = tmp_path / "c" / "B.pssa"
        raw = bytearray(path.read_bytes())
        raw[16:24] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="B.pssa"):
            load_adapter_dir(tmp_path / "c")

    def test_malformed_meta_json_rejected(self, tmp_path):
        save_adapter_dir(tmp_path / "c", pissa_init(np.eye(4), 2))
        (tmp_path / "c" / "meta.json").write_text('{"rank": 2,')
        with pytest.raises(FileFormatError, match="meta.json"):
            load_adapter_dir(tmp_path / "c")

    @pytest.mark.parametrize("key", ["rank", "scale", "origin"])
    def test_meta_missing_key_rejected(self, tmp_path, key):
        save_adapter_dir(tmp_path / "c", pissa_init(np.eye(4), 2))
        meta_path = tmp_path / "c" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FileFormatError, match=f"meta.json.*{key}"):
            load_adapter_dir(tmp_path / "c")

    def test_non_string_base_file_rejected(self, tmp_path):
        save_adapter_dir(tmp_path / "c", pissa_init(np.eye(4), 2))
        meta_path = tmp_path / "c" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["base_file"] = 3
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FileFormatError, match="meta.json.*base_file"):
            load_adapter_dir(tmp_path / "c")

    @pytest.mark.parametrize("name,shape", [
        ("B.pssa", (3, 4)), ("B.pssa", (2, 6)), ("base.pssa", (5, 4))],
        ids=["B-rows", "B-cols", "base-rows"])
    def test_shape_mismatch_rejected(self, tmp_path, name, shape):
        # A.pssa is 4x2 (rank 2); each file disagrees with the others' shapes.
        save_adapter_dir(tmp_path / "c", pissa_init(np.eye(4), 2))
        save_matrix(tmp_path / "c" / name, np.ones(shape))
        with pytest.raises(FileFormatError, match="inconsistent shapes.*"
                           + re.escape(f"{name} {shape}")):
            load_adapter_dir(tmp_path / "c")

    @pytest.mark.parametrize("where", ["relative", "absolute"])
    def test_base_file_outside_checkpoint_rejected(self, tmp_path, where):
        save_adapter_dir(tmp_path / "c", pissa_init(np.eye(4), 2))
        outside = tmp_path / "outside.pssa"
        save_matrix(outside, np.full((4, 4), 7.0))
        meta_path = tmp_path / "c" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["base_file"] = ("../outside.pssa" if where == "relative"
                             else str(outside))
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(FileFormatError, match="meta.json.*base_file"):
            load_adapter_dir(tmp_path / "c")

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_reloaded_adapter_trains_like_in_memory(self, tmp_path, strategy):
        # Factor memory layout changes BLAS rounding, so a reloaded
        # checkpoint (always C-contiguous) only replays the in-memory trace
        # if every initializer hands out C-contiguous factors too.
        rng = RandomSource(0)
        d, h, c = 32, 24, 10
        model = MlpModel(rng.spawn(0).normal((d, h)), rng.spawn(1).normal(h) * 0.1,
                         rng.spawn(2).normal((h, c)), rng.spawn(3).normal(c) * 0.1)
        gen = RandomSource(1).generator()
        data = Dataset(gen.standard_normal((64, d)), gen.integers(0, c, size=64))
        in_memory = inject_adapters(model, 2, strategy, RandomSource(3))
        layers = []
        for name, layer in (("l1", in_memory.layer1), ("l2", in_memory.layer2)):
            assert layer.adapter.a.flags.c_contiguous
            assert layer.adapter.b.flags.c_contiguous
            save_adapter_dir(tmp_path / name, layer)
            layers.append(load_adapter_dir(tmp_path / name))
            assert layers[-1].origin == strategy
        reloaded = MlpModel(layers[0], model.bias1.copy(), layers[1],
                            model.bias2.copy())
        cfg = TrainConfig(lr=1e-2, batch_size=16, steps=30, seed=0)
        t1 = train_model(in_memory, data, cfg)
        t2 = train_model(reloaded, data, cfg)
        assert np.array_equal(t1.losses, t2.losses)
        assert np.array_equal(t1.grad_norms, t2.grad_norms)


WINDOWS_ABLATION = ("principal", "medium", "minor")


def tiny_spec(kind, tmp_path, **kw):
    defaults = dict(m=24, n=24, ranks=(4,), iters=(1, 2), niters=(1, 4),
                    seeds=(0, 1), steps=5, batch_size=16, adapter_rank=2,
                    hidden=8, dim=16,
                    out=str(tmp_path / "report.csv"))
    return ExperimentSpec(kind=kind, **{**defaults, **kw})


class TestExperiments:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="nope")

    def test_unknown_strategy_rejected_before_any_work(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="bogus"):
            ExperimentSpec(kind="converge", strategies=("pissa", "bogus"))
        out = tmp_path / "conv.csv"
        code = main(["converge", "--strategies", "pissa,bogus", "--seeds", "0",
                     "--out", str(out)])
        assert code == 2
        assert "unknown init strategy: bogus" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("steps", [0, -3])
    def test_bad_steps_rejected_before_any_work(self, tmp_path, capsys,
                                                monkeypatch, steps):
        with pytest.raises(ValueError, match="steps"):
            ExperimentSpec(kind="converge", steps=steps)
        with pytest.raises(ValueError, match="batch_size"):
            ExperimentSpec(kind="converge", batch_size=0)

        def no_pretraining(*args, **kw):
            raise AssertionError("pretrained before the spec was checked")

        monkeypatch.setattr("pissa.harness.experiments.pretrain_mlp",
                            no_pretraining)
        code = main(["converge", "--steps", str(steps), "--seeds", "0",
                     "--out", str(tmp_path / "conv.csv")])
        assert code == 2
        assert "ValueError: steps" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, field", [
        (["quant-bench", "--ranks", "0"], "ranks"),
        (["quant-bench", "--T", "0"], "iters"),
        (["fastsvd-bench", "--niter", "-1"], "niters"),
        (["converge", "--adapter-rank", "0"], "adapter_rank"),
        # Layer 2 of the toy MLP is hidden x 10 classes.
        (["converge", "--adapter-rank", "11"], "adapter_rank"),
        (["converge", "--lr", "nan"], "lr"),
        (["converge", "--lr", "inf"], "lr"),
        (["quant-bench", "--alpha", "nan"], "alpha"),
        (["fastsvd-bench", "--alpha", "inf"], "alpha"),
        (["fastsvd-bench", "--alpha", "-1"], "alpha"),
        (["quant-bench", "--m", "0"], "m"),
        (["fastsvd-bench", "--n", "-3"], "n"),
    ] + [([kind, "--seeds", "-1"], "seeds") for kind in KINDS]
      + [(["fastsvd-bench", "--seeds", "5..3"], "seeds")])
    def test_bad_rank_or_count_rejected_before_any_work(
            self, tmp_path, capsys, monkeypatch, argv, field):
        def no_work(*args, **kw):
            raise AssertionError("work started before the spec was checked")

        for name in ("pretrain_mlp", "generate_spectral_matrix"):
            monkeypatch.setattr(f"pissa.harness.experiments.{name}", no_work)
        # The case's own flags come last, so they override these.
        code = main(argv[:1] + ["--seeds", "0", "--out", str(tmp_path / "r.csv")]
                    + argv[1:])
        assert code == 2
        assert f"ValueError: {field} must be" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_rank_above_the_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"rank exceeds min\(m, n\)"):
            ExperimentSpec(kind="quant-bench", m=8, n=12, ranks=(4, 9))

    def test_config_hash_stable_and_sensitive(self, tmp_path):
        a = tiny_spec("quant-bench", tmp_path)
        b = tiny_spec("quant-bench", tmp_path)
        c = tiny_spec("quant-bench", tmp_path, alpha=2.0)
        assert a.config_hash() == b.config_hash() != c.config_hash()

    def test_config_hash_ignores_output_options(self, tmp_path):
        a = tiny_spec("fastsvd-bench", tmp_path)
        b = tiny_spec("fastsvd-bench", tmp_path, out=str(tmp_path / "x" / "r.csv"))
        assert a.config_hash() == b.config_hash()

    def test_matrix_seed_deterministic(self):
        assert matrix_seed(3) == matrix_seed(3)
        assert matrix_seed(3) != matrix_seed(4)

    def test_replay_is_bit_identical(self, tmp_path):
        spec = tiny_spec("quant-bench", tmp_path)
        first = run_experiment(spec)
        payload1 = (tmp_path / "report.csv").read_bytes()
        second = run_experiment(tiny_spec("quant-bench", tmp_path))
        assert first == second
        assert (tmp_path / "report.csv").read_bytes() == payload1

    def test_quant_bench_rows(self, tmp_path):
        spec = tiny_spec("quant-bench", tmp_path, seeds=(0,))
        rows = run_experiment(spec)
        methods = sorted(row["method"] for row in rows)
        assert methods == ["loftq", "loftq", "qlora", "qpissa", "qpissa"]
        for row in rows:
            assert "error" not in row
            if row["method"] == "qlora":
                assert row["ratio_percent"] == 0.0
            else:
                assert row["ratio_percent"] > 0.0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        header = json.loads(lines[0][2:])
        assert header["config_hash"] == spec.config_hash()
        assert header["generator"] == "pcg64-v1"
        assert header["data_version"] == DATA_VERSION == "spectral-v2"
        parsed = list(csv.DictReader(lines[1:]))
        assert [float(r["ratio_percent"]) for r in parsed] == [
            row["ratio_percent"] for row in rows]

    def test_quant_bench_keeps_going_when_an_initializer_fails(
            self, tmp_path, monkeypatch):
        import pissa.harness.experiments as experiments
        clean = run_experiment(tiny_spec("quant-bench", tmp_path, seeds=(0,)))

        def fail(*args, **kwargs):
            raise NumericalError("forced")

        monkeypatch.setattr(experiments, "loftq_init", fail)
        rows = run_experiment(tiny_spec("quant-bench", tmp_path, seeds=(0,)))
        assert [row["method"] for row in rows] == [row["method"] for row in clean]
        assert [row["error"] for row in rows if row["method"] == "loftq"] == [
            "NumericalError: forced"] * 2
        assert [row["ratio_percent"] for row in rows if row["method"] == "qpissa"] == [
            row["ratio_percent"] for row in clean if row["method"] == "qpissa"]
        assert "NumericalError: forced" in (tmp_path / "report.csv").read_text()

    def test_fastsvd_rows(self, tmp_path):
        rows = run_experiment(tiny_spec("fastsvd-bench", tmp_path, seeds=(0,)))
        assert len(rows) == 2
        by_niter = {row["niter"]: row for row in rows}
        assert by_niter[4]["approx_err"] <= by_niter[1]["approx_err"]
        assert all(row["approx_err"] >= row["exact_trunc_err"] - 1e-12
                   for row in rows)

    def test_gradcheck_rows(self, tmp_path):
        strategies = ("pissa", "qpissa", "lora")
        rows = run_experiment(tiny_spec("gradcheck", tmp_path,
                                        strategies=strategies))
        assert [(row["seed"], row["strategy"]) for row in rows] == [
            (seed, s) for seed in (0, 1) for s in strategies]
        assert all(row["max_rel_err"] <= 1e-4 for row in rows)

    def test_failed_row_records_exception_type(self, tmp_path, monkeypatch):
        import pissa.harness.experiments as experiments
        from pissa.train import DivergenceError

        def diverge(*args, **kwargs):
            raise DivergenceError(3)

        monkeypatch.setattr(experiments, "run_finetune", diverge)
        rows = run_experiment(tiny_spec("converge", tmp_path, seeds=(0,),
                                        strategies=WINDOWS_ABLATION))
        assert [row["error"] for row in rows] == [
            "DivergenceError: loss diverged at step 3"] * 3

    def test_converge_rows_and_traces(self, tmp_path):
        spec = tiny_spec("converge", tmp_path, seeds=(0,))
        rows = run_experiment(spec)
        assert sorted(row["strategy"] for row in rows) == ["lora", "pissa"]
        assert b"\r" not in (tmp_path / "report.csv").read_bytes()
        for row in rows:
            assert "error" not in row
            assert row["trace_file"] == f"report.trace_{row['strategy']}_seed0.csv"
            raw = (tmp_path / row["trace_file"]).read_bytes()
            assert b"\r" not in raw
            trace_lines = raw.decode().splitlines()
            assert trace_lines[0] == "step,loss,grad_norm,lr"
            assert len(trace_lines) == 1 + spec.steps

    def test_converge_reports_in_one_directory_keep_their_traces(self, tmp_path):
        for name, steps in (("a", 4), ("b", 6)):
            run_experiment(tiny_spec("converge", tmp_path, seeds=(0,), steps=steps,
                                     out=str(tmp_path / f"{name}.csv")))
        for name, steps in (("a", 4), ("b", 6)):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            for row in csv.DictReader(lines[1:]):
                trace = (tmp_path / row["trace_file"]).read_text().splitlines()
                assert len(trace) == 1 + steps

    def test_ablation_rows(self, tmp_path):
        # The window ablation is converge over the three singular windows.
        rows = run_experiment(tiny_spec("converge", tmp_path, seeds=(0,),
                                        strategies=WINDOWS_ABLATION))
        assert [row["strategy"] for row in rows] == list(WINDOWS_ABLATION)
        assert all(np.isfinite(row["final_loss"]) for row in rows)

    @pytest.mark.parametrize("strategies", [None, ("lora", "medium")],
                             ids=["default", "passed"])
    def test_ablation_header_names_its_rows(self, tmp_path, strategies):
        kw = {} if strategies is None else {"strategies": strategies}
        rows = run_experiment(tiny_spec("converge", tmp_path, seeds=(0,), **kw))
        first = (tmp_path / "report.csv").read_text().splitlines()[0]
        header = json.loads(first[2:])
        assert tuple(header["config"]["strategies"]) == tuple(
            row["strategy"] for row in rows)
        assert tuple(row["strategy"] for row in rows) == (
            strategies or ("pissa", "lora"))


# Report flag -> (a value, the ExperimentSpec field it sets, the parsed value).
# Each value differs from the field's default.
REPORT_FLAGS = {
    "--m": ("24", "m", 24),
    "--n": ("20", "n", 20),
    "--alpha": ("0.5", "alpha", 0.5),
    "--ranks": ("4,2", "ranks", (4, 2)),
    "--T": ("2,3", "iters", (2, 3)),
    "--niter": ("0,2", "niters", (0, 2)),
    "--seeds": ("0..2", "seeds", (0, 1, 2)),
    "--block-size": ("16", "block_size", 16),
    "--steps": ("7", "steps", 7),
    "--lr": ("0.01", "lr", 0.01),
    "--adapter-rank": ("3", "adapter_rank", 3),
    "--strategies": ("lora,medium", "strategies", ("lora", "medium")),
    "--format": ("csv", None, None),
}
# The report flags each kind reads, besides --out.
KIND_FLAGS = {
    "quant-bench": ("--m", "--n", "--alpha", "--ranks", "--T", "--seeds",
                    "--block-size"),
    "fastsvd-bench": ("--m", "--n", "--alpha", "--ranks", "--niter", "--seeds"),
    "converge": ("--seeds", "--strategies", "--steps", "--lr", "--adapter-rank"),
    "gradcheck": ("--seeds", "--strategies"),
}


class TestCli:
    def test_decompose_end_to_end(self, tmp_path, capsys):
        w = generate_spectral_matrix(20, 16, 1.0, 0)
        save_matrix(tmp_path / "w.pssa", w)
        code = main(["decompose", "--in", str(tmp_path / "w.pssa"),
                     "--rank", "4", "--out", str(tmp_path / "out")])
        assert code == 0
        a = load_matrix(tmp_path / "out" / "A.pssa")
        b = load_matrix(tmp_path / "out" / "B.pssa")
        res = load_matrix(tmp_path / "out" / "base.pssa")
        np.testing.assert_allclose(res + a @ b, w, atol=1e-10)
        assert load_adapter_dir(tmp_path / "out").origin == "pissa"
        assert "reconstruction_error" in capsys.readouterr().out

    def test_decompose_output_feeds_convert_lora(self, tmp_path, capsys):
        w = generate_spectral_matrix(20, 16, 1.0, 1)
        save_matrix(tmp_path / "w.pssa", w)
        assert main(["decompose", "--in", str(tmp_path / "w.pssa"),
                     "--rank", "3", "--out", str(tmp_path / "init")]) == 0
        trained = load_adapter_dir(tmp_path / "init")
        trained.adapter.a += 0.1 * RandomSource(1).normal((20, 3))
        trained.adapter.b += 0.1 * RandomSource(2).normal((3, 16))
        save_adapter_dir(tmp_path / "trained", trained)
        code = main(["convert-lora", "--init", str(tmp_path / "init"),
                     "--trained", str(tmp_path / "trained"),
                     "--out", str(tmp_path / "delta")])
        assert code == 0
        da = load_matrix(tmp_path / "delta" / "deltaA.pssa")
        db = load_matrix(tmp_path / "delta" / "deltaB.pssa")
        np.testing.assert_allclose(w + da @ db, merge(trained), atol=1e-10)
        assert "probe_error" in capsys.readouterr().out

    def test_convert_lora_end_to_end(self, tmp_path, capsys):
        w = RandomSource(0).normal((14, 10))
        init = pissa_init(w, 3)
        save_adapter_dir(tmp_path / "init", init)
        trained = pissa_init(w, 3)
        trained.adapter.a += 0.1 * RandomSource(1).normal((14, 3))
        trained.adapter.b += 0.1 * RandomSource(2).normal((3, 10))
        save_adapter_dir(tmp_path / "trained", trained)
        code = main(["convert-lora", "--init", str(tmp_path / "init"),
                     "--trained", str(tmp_path / "trained"),
                     "--out", str(tmp_path / "delta")])
        assert code == 0
        da = load_matrix(tmp_path / "delta" / "deltaA.pssa")
        db = load_matrix(tmp_path / "delta" / "deltaB.pssa")
        assert da.shape == (14, 6) and db.shape == (6, 10)
        expected = trained.adapter.delta() - init.adapter.delta()
        np.testing.assert_allclose(da @ db, expected, atol=1e-10)
        assert "probe_error" in capsys.readouterr().out

    @pytest.mark.parametrize("init", [pissa_init, qpissa_init], ids=["dense", "psq4"])
    def test_convert_lora_refuses_different_bases(self, tmp_path, capsys, init):
        # Checkpoints of two different weights: no delta relates them, so the
        # command stops with a typed error before it writes anything.
        for name, seed in (("init", 0), ("trained", 1)):
            w = generate_spectral_matrix(32, 24, 1.0, seed)
            save_adapter_dir(tmp_path / name, init(w, 4))
        code = main(["convert-lora", "--init", str(tmp_path / "init"),
                     "--trained", str(tmp_path / "trained"),
                     "--out", str(tmp_path / "delta")])
        assert code == 2
        assert "different frozen bases" in capsys.readouterr().err
        assert not (tmp_path / "delta").exists()

    def test_quant_bench_subcommand(self, tmp_path, capsys):
        out = tmp_path / "qb.csv"
        code = main(["quant-bench", "--m", "24", "--n", "24", "--ranks", "4",
                     "--T", "1", "--seeds", "0,1", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_seed_range_syntax(self, tmp_path):
        out = tmp_path / "gc.csv"
        code = main(["gradcheck", "--seeds", "0..2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        # Header comment, column row, 3 seeds x the 2 default strategies.
        assert len(lines) == 2 + 3 * 2

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_defaults_come_from_spec(self, kind, monkeypatch, capsys):
        import pissa.harness.cli as cli
        specs = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda spec: specs.append(spec) or [])
        assert main([kind]) == 0
        assert specs == [ExperimentSpec(kind=kind)]
        assert specs[0].config_hash() == ExperimentSpec(kind=kind).config_hash()
        # Each flag the kind reads reaches its field.
        argv = [kind, "--out", "r.csv"]
        fields = {"out": "r.csv"}
        for flag in KIND_FLAGS[kind]:
            text, field, value = REPORT_FLAGS[flag]
            argv += [flag, text]
            fields[field] = value
        assert main(argv) == 0
        assert specs[1] == ExperimentSpec(kind=kind, **fields)
        with pytest.raises(SystemExit):
            main([kind, "--help"])
        offered = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert offered == {"--help", "--out", *KIND_FLAGS[kind]}

    @pytest.mark.parametrize("kind,flag", [
        (kind, flag) for kind in KINDS for flag in REPORT_FLAGS
        if flag not in KIND_FLAGS[kind]])
    def test_flag_the_kind_does_not_read_is_rejected(self, tmp_path, kind, flag):
        # Small settings, so a parser that took the flag would finish fast.
        cheap = {"--m": "24", "--n": "24", "--ranks": "4", "--T": "1",
                 "--niter": "1", "--seeds": "0", "--steps": "2"}
        argv = [kind, "--out", str(tmp_path / "r.csv"), flag, REPORT_FLAGS[flag][0]]
        for own in KIND_FLAGS[kind]:
            if own in cheap:
                argv += [own, cheap[own]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--steps", "5"], ["converge", "--m", "512"],
        ["decompose", "--in", "w.pssa", "--rank", "2", "--out", "o", "extra"]],
        ids=lambda argv: argv[0])
    def test_unknown_argument_reported_by_the_subcommand(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: pissa {argv[0]} ")
        assert f"pissa {argv[0]}: error: unrecognized arguments: " in err

    def test_missing_input_reports_error(self, tmp_path, capsys):
        code = main(["decompose", "--in", str(tmp_path / "none.pssa"),
                     "--rank", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_cli_runs_without_loading_scipy(tmp_path):
    # Fresh interpreters: this one has scipy loaded by the oracle tests. There
    # scipy is unimportable, every subcommand runs, and one gesdd failure is
    # retried through LAPACK dgesvd. fk.csv's niter 16 fills the Krylov basis
    # to min(m, n) columns, and fd.csv's alpha 12 spectrum (sigma_i = i^-12)
    # deflates its blocks.
    script = textwrap.dedent("""
        import os, sys
        sys.modules["scipy"] = None  # any scipy import raises ImportError
        import numpy as np
        from pissa import linalg
        from pissa.harness import (cli, generate_spectral_matrix,
                                   save_adapter_dir, save_matrix)
        from pissa.quant import qpissa_init
        os.chdir(sys.argv[1])  # relative paths, so the report headers match
        w = generate_spectral_matrix(32, 24, 1.0, 0)
        save_matrix("w.pssa", w)
        save_adapter_dir("qckpt", qpissa_init(w, 4))
        for cmd in [
                "decompose --in w.pssa --rank 4 --out ckpt",
                "convert-lora --init ckpt --trained ckpt --out delta",
                "convert-lora --init qckpt --trained qckpt --out qdelta",
                "quant-bench --m 64 --n 64 --ranks 4 --T 1,3 --seeds 0 --out q.csv",
                "fastsvd-bench --m 64 --n 48 --ranks 4 --niter 0,2 --seeds 0 --out f.csv",
                "fastsvd-bench --m 64 --n 64 --ranks 4 --niter 0,2 --seeds 0 --out f64.csv",
                "fastsvd-bench --m 64 --n 48 --ranks 4 --niter 0,2,16 --seeds 0 --out fk.csv",
                "fastsvd-bench --m 64 --n 48 --ranks 4 --niter 2,16 --alpha 12 --seeds 0 "
                "--out fd.csv",
                "converge --seeds 0 --steps 5 --strategies pissa,qpissa,lora --out c.csv",
                "converge --seeds 0 --steps 3 --strategies principal,medium,minor --out a.csv",
                "gradcheck --seeds 0 --strategies pissa,qpissa,lora --out g.csv"]:
            assert cli.main(cmd.split()) == 0, cmd
        svd, failed = np.linalg.svd, []

        def fail_once(*args, **kwargs):
            if not failed:
                failed.append(True)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        np.linalg.svd = fail_once
        w = generate_spectral_matrix(24, 16, 1.0, 1)
        f = linalg.exact_svd(w)
        assert failed
        assert linalg.relative_error(f.reconstruct() - w, w) <= linalg.TOLERANCE
        print(sorted(k for k, m in sys.modules.items()
                     if m is not None and k.split(".")[0] == "scipy"))
    """)
    src = str(Path(pissa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    trees = []
    # Two runs with different string hashes, so output in set order differs.
    for run, hash_seed in (("r1", "1"), ("r2", "2")):
        (tmp_path / run).mkdir()
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / run)],
            capture_output=True, text=True,
            env={**env, "PYTHONHASHSEED": hash_seed})
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
        trees.append({p.relative_to(tmp_path / run).as_posix(): p.read_bytes()
                      for p in (tmp_path / run).rglob("*") if p.is_file()})
    assert len([name for name in trees[0] if ".trace_" in name]) == 6
    assert trees[0].keys() == trees[1].keys()
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []
