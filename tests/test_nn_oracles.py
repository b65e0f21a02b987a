"""Bit-level parity of Conv2D and MaxPool2D against oracles.

The oracles are the earlier implementations: ``np.pad`` before an
``as_strided`` im2col whose result goes to the matmul as it comes (a
strided view for full-width "valid" kernels), and a 6-D ``as_strided``
window view reduced with ``max`` for pooling.  The shipping layers must
reproduce them bit for bit (compared as ``uint32``), layer by layer and
through every model of the zoo.
"""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, MaxPool2D
from repro.nn.layers.conv import _im2col, _pad_amounts
from repro.nn.models.zoo import benchmark_models, complexity_sweep


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
    assert not _im2col(x, *kernel, *stride).flags.c_contiguous
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


ZOO = {**benchmark_models(seed=3), **complexity_sweep(seed=3)}


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_forward_matches_oracle_layers(monkeypatch, name, n):
    model = ZOO[name]
    x = inputs(model.input_shape, n, "random", seed=4)
    got = model.forward(x)
    monkeypatch.setattr(Conv2D, "_forward", oracle_conv_forward)
    monkeypatch.setattr(MaxPool2D, "_forward", oracle_pool_forward)
    assert_same_bits(got, model.forward(x))
