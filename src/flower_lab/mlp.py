"""A small fully-connected network with hand-derived reverse-mode gradients.

The architecture is fixed by construction arguments: linear layers with
SiLU activations on the hidden layers and a linear output.  ``MlpWorkspace``
holds the only forward and the only backward pass, both into preallocated
buffers; gradients come from explicit layer-by-layer backpropagation, and
there is no autodiff anywhere in this package.

A network's parameters are one vector in checkpoint order (W0, b0, W1, b1,
...), each layer row-major, so a layer is one contiguous block [W; b] of
shape (fan_in + 1, fan_out) with the bias as its last row.  Each layer's
input carries a trailing column of ones, so one product applies the weights
and adds the bias, and one product gives the gradient of the whole block.
A checkpoint is a short JSON header (layer sizes, activation tag) followed by
that vector as little-endian float64.
"""

from __future__ import annotations

import json
from itertools import accumulate
from pathlib import Path

import numpy as np

__all__ = ["Mlp", "MlpWorkspace", "save_checkpoint", "load_checkpoint"]

_MAGIC = b"FLWRMLP1"


def _silu_forward(z, sig, act):
    """act = z * sigmoid(z), storing the sigmoid for the backward pass.

    Saturated inputs (|z| beyond the exp range) are fine: the sigmoid
    clamps to exactly 0 or 1 and the derivative below follows suit.
    """
    with np.errstate(over="ignore"):
        np.negative(z, out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
    np.multiply(z, sig, out=act)


def _silu_backward(grad, z, sig, scratch):
    """grad *= d silu/dz in place, with d silu/dz = sig * (1 + z * (1 - sig))."""
    np.subtract(1.0, sig, out=scratch)
    scratch *= z
    scratch += 1.0
    scratch *= sig
    grad *= scratch


def _layer_views(vec, widths):
    """Per-layer views of a vector in checkpoint order: the blocks [W; b].

    The one place that knows the layout: layer i is a (fan_in + 1, fan_out)
    view, its weights the first fan_in rows and its bias the last.  A vector
    whose length is not the parameter count of the widths is refused.
    """
    shapes = [(fan_in + 1, fan_out) for fan_in, fan_out in zip(widths, widths[1:])]
    ends = list(accumulate((rows * cols for rows, cols in shapes), initial=0))
    if len(vec) != ends[-1]:
        raise ValueError(f"{len(vec)} parameters, but layer sizes {widths} take {ends[-1]}")
    return [vec[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]


class Mlp:
    """Feed-forward network: SiLU hidden layers, linear output.

    The network is the vector ``params`` in checkpoint order (the array given,
    made contiguous) and its widths ``layer_sizes``; its dtype is the vector's,
    and ``layers`` are per-layer views of ``params``, the blocks [W; b].
    """

    def __init__(self, params, layer_sizes):
        sizes = layer_sizes if isinstance(layer_sizes, (list, tuple)) else ()
        if len(sizes) < 2 or not all(type(n) is int and n >= 1 for n in sizes):
            raise ValueError(f"layer_sizes must be 2+ positive integers, got {layer_sizes!r}")
        params = np.ascontiguousarray(params)
        if params.ndim != 1 or not np.issubdtype(params.dtype, np.floating):
            raise ValueError(f"params must be a float vector, got {params.dtype} {params.shape}")
        if not np.all(np.isfinite(params)):
            raise ValueError("parameters contain NaN or Inf")
        self.layers = _layer_views(params, sizes)
        self.params, self.dtype, self.layer_sizes = params, params.dtype, list(sizes)
        self.in_dim, self.out_dim = sizes[0], sizes[-1]

    @classmethod
    def initialize(cls, layer_sizes, rng: np.random.Generator, dtype=np.float64):
        """Fan-in scaled uniform init: U(-1/sqrt(fan_in), 1/sqrt(fan_in)).

        Each layer's block [W; b] is one draw in checkpoint order, with the
        same bound for weights and bias, so a fixed seed pins every parameter bit.
        """
        draws = [
            rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), (fan_in + 1) * fan_out)
            for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:])
        ]
        return cls(np.concatenate(draws, dtype=dtype), layer_sizes)

    def astype(self, dtype) -> "Mlp":
        return Mlp(self.params.astype(dtype), self.layer_sizes)


class MlpWorkspace:
    """Forward and backward passes with buffers preallocated for one batch size.

    This is the only implementation of either pass; the trainer and ``MlpField``
    each keep an instance.  ``h`` holds each layer's input with one trailing
    column of ones, so a layer is one product with its block [W; b].
    ``forward`` writes those columns before each product rather than the
    constructor: a buffer filled at construction is resident from then on,
    and the trainer builds its workspace before the first exact-OT coupling,
    the peak of a training process.  ``grad_layers`` are per-layer views of
    the one vector ``grads``, laid out as the network's ``layers``.
    """

    def __init__(self, mlp: Mlp, batch_size: int):
        self.mlp = mlp
        self.batch_size = batch_size
        dt = mlp.dtype
        widths = mlp.layer_sizes
        self.h = [np.empty((batch_size, w + 1), dt) for w in widths[:-1]]
        self.z = [np.empty((batch_size, w), dt) for w in widths[1:-1]]
        self.sig = [np.empty_like(zi) for zi in self.z]
        self.out = np.empty((batch_size, widths[-1]), dt)
        self.grad_act = [np.empty_like(zi) for zi in self.z]
        self.scratch = np.empty((batch_size, max(widths[1:])), dt)
        self.grads = np.empty_like(mlp.params)
        self.grad_layers = _layer_views(self.grads, widths)

    def forward(self, inp: np.ndarray) -> np.ndarray:
        """The network on inp, shape (batch_size, in_dim) in the network's dtype.

        Runs layer by layer into the buffers and returns the out buffer, which
        the next call overwrites.
        """
        mlp, n = self.mlp, self.batch_size
        if inp.shape != (n, mlp.in_dim) or inp.dtype != mlp.dtype:
            raise ValueError(
                f"input {inp.dtype} {inp.shape}, expected {mlp.dtype} {(n, mlp.in_dim)}"
            )
        self.h[0][:, :-1] = inp
        for h in self.h:
            h[:, -1] = 1.0
        for h, layer, z, sig, h_up in zip(self.h, mlp.layers, self.z, self.sig, self.h[1:]):
            np.dot(h, layer, out=z)
            _silu_forward(z, sig, h_up[:, :-1])
        return np.dot(self.h[-1], mlp.layers[-1], out=self.out)

    def loss_and_grad(self, inp: np.ndarray, target: np.ndarray) -> float:
        """Mean squared error plus gradients, left in grad_layers.

        The loss is mean over the batch of the squared residual norm; the
        residual buffer is reused for its own gradient.
        """
        n, layers = self.batch_size, self.mlp.layers
        self.forward(inp)
        self.out -= target  # residual
        loss = float(np.einsum("ij,ij->", self.out, self.out)) / n
        if not np.isfinite(loss):
            return loss  # gradients are meaningless; let the caller abort

        self.out *= 2.0 / n
        grad_up = self.out
        for i in range(len(layers) - 1, -1, -1):
            np.dot(self.h[i].T, grad_up, out=self.grad_layers[i])
            if i == 0:
                break
            grad_up = np.dot(grad_up, layers[i][:-1].T, out=self.grad_act[i - 1])
            scratch = self.scratch[:, : grad_up.shape[1]]
            _silu_backward(grad_up, self.z[i - 1], self.sig[i - 1], scratch)
        return loss


def save_checkpoint(mlp: Mlp, path, extra: dict | None = None) -> None:
    """Write the network to a binary checkpoint (always 64-bit floats)."""
    header = {
        "layer_sizes": mlp.layer_sizes,
        "activation": "silu",
        "dtype": "float64",
    }
    if extra:
        header.update(extra)
    blob = json.dumps(header, sort_keys=True).encode()
    Path(path).write_bytes(
        _MAGIC + len(blob).to_bytes(8, "little") + blob + mlp.params.astype("<f8").tobytes()
    )


def load_checkpoint(path) -> tuple[Mlp, dict]:
    """Read a checkpoint: the float64 network, read-only over the file's bytes, and its header."""
    raw = Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    n = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + n].decode())
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    if header.get("activation") != "silu":
        raise ValueError(f"unsupported activation {header.get('activation')!r}")
    params = np.frombuffer(raw, dtype="<f8", offset=16 + n)
    return Mlp(params, header.get("layer_sizes")), header
