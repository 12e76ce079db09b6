"""A small fully-connected network with hand-derived reverse-mode gradients.

The architecture is fixed by construction arguments: linear layers with
SiLU activations on the hidden layers and a linear output.  ``MlpWorkspace``
holds the only forward and the only backward pass, both into preallocated
buffers; gradients come from explicit layer-by-layer backpropagation, and
there is no autodiff anywhere in this package.

Checkpoints are a single binary file: a short JSON header (layer sizes,
activation tag) followed by the raw parameter arrays, row-major, as
little-endian 64-bit floats in layer order (W0, b0, W1, b1, ...).
"""

from __future__ import annotations

import json
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


class Mlp:
    """Feed-forward network: SiLU hidden layers, linear output."""

    def __init__(self, weights, biases, dtype=None):
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must be equal-length, nonempty")
        if dtype is None:
            dtype = np.asarray(weights[0]).dtype
            if not np.issubdtype(dtype, np.floating):
                dtype = np.float64
        dtype = np.dtype(dtype)
        self.weights = [np.ascontiguousarray(w, dtype=dtype) for w in weights]
        self.biases = [np.ascontiguousarray(b, dtype=dtype) for b in biases]
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("layer shape mismatch")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("parameters contain NaN or Inf")
        for w, w_next in zip(self.weights[:-1], self.weights[1:]):
            if w.shape[1] != w_next.shape[0]:
                raise ValueError("consecutive layers disagree on width")
        self.dtype = dtype

    @classmethod
    def initialize(cls, layer_sizes, rng: np.random.Generator, dtype=np.float64):
        """Fan-in scaled uniform init: U(-1/sqrt(fan_in), 1/sqrt(fan_in)).

        The same bound is used for weights and biases so a fixed seed pins
        every parameter bit.
        """
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(weights, biases, dtype=dtype)

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def astype(self, dtype) -> "Mlp":
        return Mlp(self.weights, self.biases, dtype=dtype)

    def forward(self, x) -> np.ndarray:
        """Evaluate the network on (in_dim,) or (n, in_dim), in a workspace built for the batch."""
        x = np.asarray(x, dtype=self.dtype)
        batch = np.atleast_2d(x)
        out = MlpWorkspace(self, len(batch)).forward(batch)
        return out[0] if x.ndim == 1 else out


class MlpWorkspace:
    """Forward and backward passes with buffers preallocated for one batch size.

    This is the only implementation of either pass: ``Mlp.forward`` and other
    one-shot callers construct it per call, the training loop reuses a single
    instance so the hot path never allocates.
    """

    def __init__(self, mlp: Mlp, batch_size: int):
        self.mlp = mlp
        self.batch_size = batch_size
        dt = mlp.dtype
        widths = mlp.layer_sizes
        n_hidden = len(mlp.weights) - 1
        self.z = [np.empty((batch_size, widths[i + 1]), dt) for i in range(n_hidden)]
        self.sig = [np.empty_like(zi) for zi in self.z]
        self.act = [np.empty_like(zi) for zi in self.z]
        self.out = np.empty((batch_size, widths[-1]), dt)
        self.grad_act = [np.empty_like(zi) for zi in self.z]
        self.scratch = np.empty((batch_size, max(widths[1:])), dt)
        self.grad_w = [np.empty_like(w) for w in self.mlp.weights]
        self.grad_b = [np.empty_like(b) for b in self.mlp.biases]

    def forward(self, inp: np.ndarray) -> np.ndarray:
        """The network on inp, shape (batch_size, in_dim), layer by layer into the buffers.

        Returns the out buffer, which the next call overwrites.
        """
        mlp, n = self.mlp, self.batch_size
        if inp.shape != (n, mlp.in_dim):
            raise ValueError(f"input shape {inp.shape}, expected {(n, mlp.in_dim)}")
        h = inp
        for w, b, z, sig, act in zip(mlp.weights, mlp.biases, self.z, self.sig, self.act):
            np.dot(h, w, out=z)
            z += b
            _silu_forward(z, sig, act)
            h = act
        np.dot(h, mlp.weights[-1], out=self.out)
        self.out += mlp.biases[-1]
        return self.out

    def loss_and_grad(self, inp: np.ndarray, target: np.ndarray) -> float:
        """Mean squared error plus gradients, left in grad_w / grad_b.

        The loss is mean over the batch of the squared residual norm; the
        residual buffer is reused for its own gradient.
        """
        n, ws = self.batch_size, self.mlp.weights
        n_hidden = len(ws) - 1
        self.forward(inp)
        self.out -= target  # residual
        loss = float(np.einsum("ij,ij->", self.out, self.out)) / n
        if not np.isfinite(loss):
            return loss  # gradients are meaningless; let the caller abort

        self.out *= 2.0 / n
        grad_up = self.out
        for i in range(n_hidden, -1, -1):
            h_below = self.act[i - 1] if i > 0 else inp
            np.dot(h_below.T, grad_up, out=self.grad_w[i])
            grad_up.sum(axis=0, out=self.grad_b[i])
            if i == 0:
                break
            grad_up = np.dot(grad_up, ws[i].T, out=self.grad_act[i - 1])
            scratch = self.scratch[:, : ws[i].shape[0]]
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
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for w, b in zip(mlp.weights, mlp.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[Mlp, dict]:
    """Read a checkpoint; returns the float64 network and its header."""
    raw = Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    n = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + n].decode())
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    if header.get("activation") != "silu":
        raise ValueError(f"unsupported activation {header.get('activation')!r}")
    sizes = header["layer_sizes"]
    if not isinstance(sizes, list) or not all(type(s) is int and s >= 1 for s in sizes):
        raise ValueError(f"layer_sizes must be a list of positive integers, got {sizes!r}")
    offset = 16 + n
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = np.frombuffer(raw, dtype="<f8", count=fan_in * fan_out, offset=offset)
        offset += w.nbytes
        b = np.frombuffer(raw, dtype="<f8", count=fan_out, offset=offset)
        offset += b.nbytes
        weights.append(w.reshape(fan_in, fan_out).copy())
        biases.append(b.copy())
    if offset != len(raw):
        raise ValueError(f"{path}: trailing bytes in checkpoint")
    return Mlp(weights, biases, dtype=np.float64), header
