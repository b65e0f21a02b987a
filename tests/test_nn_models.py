"""Tests for model construction, accounting and precision emulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.nn import (
    Model,
    Precision,
    benchmark_models,
    bf16_ulp,
    build_model,
    cast,
    complexity_sweep,
    dequantize_int8,
    quantize_int8,
    to_bf16,
)
from repro.nn.layers import Dense, Softmax


def lob_batch(shape, n=2, seed=0):
    return np.random.default_rng(seed).standard_normal((n, *shape)).astype(np.float32)


class TestBenchmarkModels:
    @pytest.fixture(scope="class")
    def models(self):
        return benchmark_models(seed=0)

    def test_all_three_present(self, models):
        assert set(models) == {"vanilla_cnn", "translob", "deeplob"}

    @pytest.mark.parametrize("name", ["vanilla_cnn", "translob", "deeplob"])
    def test_forward_produces_distribution(self, models, name):
        model = models[name]
        out = model.forward(lob_batch(model.input_shape, n=3))
        assert out.shape == (3, 3)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-5)
        assert (out >= 0).all()

    def test_complexity_ordering_matches_table2(self, models):
        """Table II orders: vanilla CNN < TransLOB < DeepLOB in total OPs."""
        ops = {name: m.total_ops() for name, m in models.items()}
        assert ops["vanilla_cnn"] < ops["translob"] < ops["deeplob"]

    def test_deterministic_build(self):
        a = build_model("deeplob", seed=3)
        b = build_model("deeplob", seed=3)
        x = lob_batch(a.input_shape)
        np.testing.assert_array_equal(a.forward(x), b.forward(x))

    def test_seed_changes_weights(self):
        a = build_model("vanilla_cnn", seed=1)
        b = build_model("vanilla_cnn", seed=2)
        x = lob_batch(a.input_shape)
        assert not np.allclose(a.forward(x), b.forward(x))

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            build_model("resnet152")

    def test_predict_classes_range(self, models):
        model = models["vanilla_cnn"]
        classes = model.predict_classes(lob_batch(model.input_shape, n=8))
        assert classes.shape == (8,)
        assert set(np.unique(classes)).issubset({0, 1, 2})

    def test_summary_mentions_all_layers(self, models):
        summary = models["deeplob"].summary()
        assert "lstm" in summary
        assert "inception" in summary
        assert "TOTAL" in summary

    def test_weight_bytes_bf16(self, models):
        model = models["vanilla_cnn"]
        assert model.weight_bytes() == 2 * model.param_count()


class TestComplexitySweep:
    def test_monotone_in_macs(self):
        sweep = complexity_sweep()
        macs = [m.macs() for m in sweep.values()]
        assert list(sweep) == ["M1", "M2", "M3", "M4", "M5"]
        assert macs == sorted(macs)
        assert macs[-1] / macs[0] > 50  # spans orders of magnitude

    def test_all_runnable(self):
        for model in complexity_sweep().values():
            out = model.forward(lob_batch(model.input_shape, n=1))
            np.testing.assert_allclose(out.sum(), 1.0, rtol=1e-5)


class TestModelValidation:
    def test_empty_model_rejected(self):
        with pytest.raises(ModelError):
            Model("empty", (4,), [])

    def test_wrong_batch_shape_rejected(self):
        model = Model("toy", (4,), [Dense(3), Softmax()])
        with pytest.raises(ModelError):
            model.forward(lob_batch((5,)))

    @pytest.mark.parametrize("family", [benchmark_models, complexity_sweep])
    def test_empty_batch_gives_empty_output(self, family):
        for name, model in family().items():
            out = model.forward(np.zeros((0, *model.input_shape), dtype=np.float32))
            assert out.dtype == np.float32, name
            assert out.shape == (0, 3), name


class TestBF16:
    def test_idempotent(self):
        x = np.random.default_rng(0).standard_normal(1000).astype(np.float32)
        once = to_bf16(x)
        np.testing.assert_array_equal(to_bf16(once), once)

    def test_error_bounded_by_ulp(self):
        x = np.random.default_rng(1).standard_normal(10_000).astype(np.float32) * 100
        err = np.abs(to_bf16(x) - x)
        bound = np.array([bf16_ulp(v) for v in x])
        assert (err <= bound / 2 + 1e-30).all()

    def test_exact_values_preserved(self):
        exact = np.array([0.0, 1.0, -2.0, 0.5, 256.0], dtype=np.float32)
        np.testing.assert_array_equal(to_bf16(exact), exact)

    def test_nan_preserved(self):
        assert np.isnan(to_bf16(np.array([np.nan], dtype=np.float32)))[0]

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    @settings(max_examples=200, deadline=None)
    def test_relative_error_property(self, value):
        x = np.array([value], dtype=np.float32)
        out = to_bf16(x)[0]
        # Near float32 max, rounding up legitimately overflows to BF16 inf.
        if value != 0 and abs(value) < 3.38e38:
            assert abs(out - value) <= abs(value) * 2**-7 + 1e-38


class TestInt8:
    def test_roundtrip_error_bounded(self):
        x = np.random.default_rng(2).standard_normal(1000).astype(np.float32)
        q, scale = quantize_int8(x)
        err = np.abs(dequantize_int8(q, scale) - x)
        assert err.max() <= scale / 2 + 1e-7

    def test_zero_tensor(self):
        q, scale = quantize_int8(np.zeros(5, dtype=np.float32))
        assert (q == 0).all()
        assert scale == 1.0

    def test_range_used(self):
        q, __ = quantize_int8(np.array([-1.0, 1.0], dtype=np.float32))
        assert q.min() == -127 and q.max() == 127


class TestPrecisionInference:
    def test_bf16_inference_close_to_fp32(self):
        model = build_model("vanilla_cnn")
        x = lob_batch(model.input_shape, n=4)
        fp32 = model.forward(x)
        bf16 = model.forward(x, precision=Precision.BF16)
        # Class decisions should rarely flip; distributions stay close.
        np.testing.assert_allclose(bf16, fp32, atol=0.05)

    def test_int8_keeps_valid_distribution(self):
        model = build_model("vanilla_cnn")
        x = lob_batch(model.input_shape, n=2)
        out = model.forward(x, precision=Precision.INT8)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-2)

    def test_ops_multipliers(self):
        assert Precision.BF16.ops_multiplier == 1
        assert Precision.INT8.ops_multiplier == 4
        assert Precision.INT4.ops_multiplier == 8

    def test_cast_fp32_passthrough(self):
        x = np.array([1.2345678], dtype=np.float32)
        np.testing.assert_array_equal(cast(x, Precision.FP32), x)
