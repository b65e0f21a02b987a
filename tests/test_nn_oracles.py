"""Bit-level parity of the planned layers against oracles.

The oracles are the earlier implementations: ``np.pad`` before an
``as_strided`` im2col whose result goes to the matmul as it comes (a
strided view for full-width "valid" kernels), a 6-D ``as_strided``
window view reduced with ``max`` for pooling, ``x @ W + b`` for
``Dense``, ``np.maximum(x, 0.0)`` for ReLU, ``np.where`` for LeakyReLU
and the three-line softmax.  Run layer by layer, each allocating its
output, they form an oracle forward.  The shipping layers must reproduce
it bit for bit (compared as ``uint32``), layer by layer and through
every model of the zoo, in the planned ``Model.forward`` that runs each
layer's step over per-batch-size buffers.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn import Model, Precision, cast
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    InceptionModule,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Softmax,
)
from repro.nn.layers.conv import _pad_amounts
from repro.nn.models.zoo import benchmark_models, build_model, complexity_sweep


def oracle_im2col(x, kh, kw, sh, sw):
    """Patches ``(N, C*kh*kw, out_h*out_w)`` from a 6-D ``as_strided`` view."""
    n, c, h, w = x.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    s = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s[0], s[1], s[2] * sh, s[3] * sw, s[2], s[3]),
        writeable=False,
    )
    return (
        windows.transpose(0, 1, 4, 5, 2, 3)
        .reshape(n, c * kh * kw, out_h * out_w)
        .astype(np.float32, copy=False)
    )


def oracle_conv_forward(layer, x):
    """``Conv2D._forward`` with ``np.pad`` and the im2col operand as is."""
    n, __, height, width = x.shape
    kh, kw = layer.kernel_size
    sh, sw = layer.stride
    if layer.padding == "same":
        pads = (_pad_amounts(height, kh, sh), _pad_amounts(width, kw, sw))
        x = np.pad(x, ((0, 0), (0, 0), *pads))
    cols = oracle_im2col(x, kh, kw, sh, sw)
    weight = layer.params["weight"].reshape(layer.filters, -1)
    out = weight @ cols + layer.params["bias"][:, None]
    return out.reshape(n, *layer.output_shape)


def oracle_pool_forward(layer, x):
    """``MaxPool2D._forward`` as a max over a 6-D strided window view."""
    n, c = x.shape[:2]
    ph, pw = layer.pool_size
    sh, sw = layer.stride
    __, out_h, out_w = layer.output_shape
    s = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, ph, pw),
        strides=(s[0], s[1], s[2] * sh, s[3] * sw, s[2], s[3]),
        writeable=False,
    )
    return windows.max(axis=(4, 5))


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float32
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def inputs(shape, n, fill, seed=0):
    """A float32 batch; ``fill`` adds NaNs or signed-zero ties."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, *shape)).astype(np.float32)
    if fill == "nan":
        x[rng.random(x.shape) < 0.1] = np.nan
    elif fill == "zeros":
        u = rng.random(x.shape)
        x[u < 0.3] = 0.0
        x[u > 0.7] = -0.0
        x[(u >= 0.3) & (u <= 0.7)] = -1.0
    return x


@pytest.mark.parametrize("fill", ["random", "nan", "zeros"])
@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize(
    "pool, stride, shape",
    [
        ((2, 1), None, (16, 97, 1)),  # VanillaCNN, M2, M3
        ((4, 4), None, (1, 100, 40)),  # M1
        ((3, 3), (1, 2), (3, 17, 13)),  # overlapping: stride < size
        ((2, 2), (3, 4), (3, 17, 13)),  # gapped: stride > size
    ],
)
def test_maxpool_matches_strided_window_oracle(pool, stride, shape, n, fill):
    layer = MaxPool2D(pool, stride)
    layer.build(shape, np.random.default_rng(0))
    x = inputs(shape, n, fill)
    assert_same_bits(layer.forward(x), oracle_pool_forward(layer, x))


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize(
    "kernel, stride, shape",
    [
        ((4, 1), (1, 1), (16, 97, 1)),  # even kh, the zoo's time convs
        ((3, 1), (1, 1), (16, 48, 1)),  # odd kh
        ((5, 1), (1, 1), (12, 25, 1)),  # inception's widest branch
        ((1, 1), (1, 1), (12, 25, 1)),  # no padding at all
        ((3, 4), (1, 1), (2, 11, 9)),  # kw > 1, even
        ((2, 3), (2, 2), (3, 10, 7)),  # kw > 1, odd, strided
    ],
)
def test_same_conv_matches_np_pad_oracle(kernel, stride, shape, n):
    layer = Conv2D(6, kernel, stride=stride, padding="same")
    layer.build(shape, np.random.default_rng(1))
    x = inputs(shape, n, "random", seed=2)
    assert_same_bits(layer.forward(x), oracle_conv_forward(layer, x))


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize(
    "kernel, stride, shape",
    [
        ((4, 40), (1, 1), (1, 100, 40)),  # VanillaCNN's conv_features
        ((4, 40), (2, 1), (1, 100, 40)),  # strided over time
        ((2, 1), (1, 1), (1, 50, 1)),  # one-column input
        ((3, 8), (1, 1), (1, 17, 8)),
    ],
)
def test_full_width_valid_conv_matches_oracle(kernel, stride, shape, n):
    # Full-width kernels over one channel make im2col a strided view,
    # which the shipping layer copies before the matmul.
    layer = Conv2D(16, kernel, stride=stride, padding="valid")
    layer.build(shape, np.random.default_rng(5))
    x = inputs(shape, n, "random", seed=6)
    assert not oracle_im2col(x, *kernel, *stride).flags.c_contiguous
    assert_same_bits(layer.forward(x), oracle_conv_forward(layer, x))


@pytest.mark.parametrize("n", [1, 5])
def test_valid_conv_bits_do_not_depend_on_input_layout(n):
    # A strided input (every other tick) and its contiguous copy take
    # one path through the matmul, so they give the same bits.
    layer = Conv2D(16, (4, 40), padding="valid")
    layer.build((1, 100, 40), np.random.default_rng(7))
    for seed in range(10):
        x = inputs((1, 200, 40), n, "random", seed=seed)[:, :, ::2]
        assert not x.flags.c_contiguous
        assert_same_bits(layer.forward(x), layer.forward(np.ascontiguousarray(x)))


def oracle_dense_forward(layer, x):
    return x @ layer.params["weight"] + layer.params["bias"]


def oracle_softmax_forward(layer, x):
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def oracle_inception_forward(layer, x):
    branch1, branch2, branch3 = layer.branches
    pooled = layer._same_maxpool_time(x, size=3)
    outs = [oracle_layers(branch1, x), oracle_layers(branch2, x), oracle_layers(branch3, pooled)]
    return np.concatenate(outs, axis=1)


ORACLES = {
    Conv2D: oracle_conv_forward,
    MaxPool2D: oracle_pool_forward,
    Dense: oracle_dense_forward,
    ReLU: lambda layer, x: np.maximum(x, 0.0),
    LeakyReLU: lambda layer, x: np.where(x > 0, x, layer.alpha * x),
    Softmax: oracle_softmax_forward,
    InceptionModule: oracle_inception_forward,
}


def oracle_layers(layers, x, precision=Precision.FP32):
    """Layer by layer, each output a fresh array; layers without an
    oracle run their own (unplanned) ``forward``."""
    for layer in layers:
        oracle = ORACLES.get(type(layer))
        x = oracle(layer, x) if oracle else layer.forward(x)
        if precision is not Precision.FP32:
            x = cast(x, precision)
    return x


def oracle_forward(model, x, precision=Precision.FP32):
    return oracle_layers(model.layers, np.asarray(x, dtype=np.float32), precision)


def with_random_biases(model, seed):
    """Zero biases would hide a step that scales or drops them."""
    rng = np.random.default_rng(seed)
    layers = list(model.layers)
    while layers:
        layer = layers.pop()
        if isinstance(layer, InceptionModule):
            layers.extend(sub for branch in layer.branches for sub in branch)
        elif isinstance(layer, (Conv2D, Dense)):
            bias = layer.params["bias"]
            bias[:] = 0.1 * rng.standard_normal(bias.shape)
    return model


def edge_model(seed=0):
    """Slot pairings the zoo lacks: a conv writing straight into a "same"
    conv's padded interior, a "same" conv first, 1x1 and strided convs,
    and a pool feeding a padded slot."""
    layers = [
        Conv2D(4, (3, 3), padding="same", name="same_first"),
        Conv2D(5, (2, 3), padding="same", name="same_after_conv"),
        MaxPool2D((2, 2), name="pool_into_padded"),
        Conv2D(4, (3, 1), padding="same", name="same_after_pool"),
        Conv2D(3, (1, 1), padding="valid", name="pointwise"),
        LeakyReLU(name="act1"),
        Conv2D(4, (2, 2), stride=(2, 2), padding="same", name="strided_same"),
        ReLU(name="act2"),
        Conv2D(6, (3, 2), padding="valid", name="full_window"),
        Flatten(name="flatten"),
        Dense(6, name="fc1"),
        ReLU(name="act3"),
        Dense(3, name="fc_out"),
        Softmax(name="softmax"),
    ]
    return with_random_biases(Model("edge", (2, 12, 9), layers, seed=seed), seed)


ZOO = {
    name: with_random_biases(model, seed=11)
    for name, model in {**benchmark_models(seed=3), **complexity_sweep(seed=3)}.items()
}
ZOO["edge"] = edge_model(seed=3)


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_forward_matches_oracle_layers(name, n):
    model = ZOO[name]
    x = inputs(model.input_shape, n, "random", seed=4)
    assert_same_bits(model.forward(x), oracle_forward(model, x))


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_bf16_forward_matches_oracle_layers(name, n):
    model = ZOO[name]
    x = inputs(model.input_shape, n, "random", seed=5)
    got = model.forward(x, precision=Precision.BF16)
    assert_same_bits(got, oracle_forward(model, x, Precision.BF16))


@pytest.mark.parametrize("precision", [Precision.INT8, Precision.INT4])
@pytest.mark.parametrize("name", ["vanilla_cnn", "deeplob", "edge"])
def test_quantised_forward_matches_oracle_layers(name, precision):
    model = ZOO[name]
    x = inputs(model.input_shape, 2, "random", seed=6)
    assert_same_bits(model.forward(x, precision=precision), oracle_forward(model, x, precision))


@pytest.mark.parametrize("fill", ["nan", "zeros"])
def test_edge_forward_matches_oracle_on_special_values(fill):
    model = ZOO["edge"]
    x = inputs(model.input_shape, 3, fill, seed=6)
    assert_same_bits(model.forward(x), oracle_forward(model, x))


def vanilla(seed=0):
    return with_random_biases(build_model("vanilla_cnn", seed=seed), seed)


def test_results_held_at_once_stay_distinct():
    model = vanilla()
    x1, x2 = (inputs(model.input_shape, 2, "random", seed=s) for s in (1, 2))
    first = model.forward(x1)
    second = model.forward(x2)
    assert not np.shares_memory(first, second)
    assert_same_bits(first, oracle_forward(model, x1))
    assert_same_bits(second, oracle_forward(model, x2))


def test_alternating_batch_sizes_keep_oracle_bits():
    for model in (vanilla(), edge_model()):
        for step, n in enumerate([1, 5, 1, 3, 5, 1]):
            x = inputs(model.input_shape, n, "random", seed=step)
            assert_same_bits(model.forward(x), oracle_forward(model, x))


@pytest.mark.parametrize("fill", ["random", "nan"])
def test_forward_leaves_input_unchanged(fill):
    for model in (vanilla(), edge_model()):
        x = inputs(model.input_shape, 3, fill, seed=7)
        before = x.copy()
        model.forward(x)
        model.forward(x, precision=Precision.BF16)
        np.testing.assert_array_equal(x.view(np.uint32), before.view(np.uint32))


def test_non_contiguous_input_gives_contiguous_bits():
    model = vanilla()
    wide = inputs((1, 200, 40), 3, "random", seed=8)
    x = wide[:, :, ::2]
    assert not x.flags.c_contiguous
    assert_same_bits(model.forward(x), model.forward(np.ascontiguousarray(x)))
    x64 = np.ascontiguousarray(x, dtype=np.float64)
    assert_same_bits(model.forward(x64), oracle_forward(model, x64))


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
def test_copies_after_forward_share_no_buffers(clone):
    model = edge_model()
    x = inputs(model.input_shape, 2, "random", seed=9)
    want = model.forward(x)
    twin = clone(model)
    assert twin._plans == {}
    assert_same_bits(twin.forward(x), want)
    for layer in twin.layers:
        for param in layer.params.values():
            param += 0.25
    changed = twin.forward(x)
    assert_same_bits(changed, oracle_forward(twin, x))
    assert not np.array_equal(changed, want)
    assert_same_bits(model.forward(x), want)


def test_reassigned_params_reach_a_built_plan():
    model = vanilla()
    x = inputs(model.input_shape, 1, "random", seed=10)
    model.forward(x)
    rng = np.random.default_rng(10)
    for layer in model.layers:
        for key, param in list(layer.params.items()):
            layer.params[key] = (param + 0.01 * rng.standard_normal(param.shape)).astype(
                np.float32
            )
    assert_same_bits(model.forward(x), oracle_forward(model, x))


def test_wrong_input_shape_still_raises_after_a_forward():
    model = vanilla()
    model.forward(inputs(model.input_shape, 1, "random"))
    with pytest.raises(ModelError):
        model.forward(inputs((1, 99, 40), 1, "random"))
    with pytest.raises(ModelError):
        model.forward(np.zeros(model.input_shape, dtype=np.float32))
