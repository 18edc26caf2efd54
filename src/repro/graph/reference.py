"""Reference executor: numerically evaluate a graph with numpy.

This is the CPU oracle of the paper's §VI-A ("We use CPU's DNN inference
results as the reference") — every operator in the IR gets executable
semantics, so the compiler pipeline can be verified end to end:

- fusion must not change results (``tests/integration`` property-checks
  ``evaluate(optimize(g)) == evaluate(g)``),
- the INT8 quantization pass measures real accuracy loss against it,
- generated VLIW kernels compare against it element-wise.

Transcendental activations are evaluated through the
:class:`~repro.engines.sfu.SpecialFunctionUnit`, so the functional hardware
model is in the reference loop, exactly as it is on the chip.

Weights are materialized deterministically from the tensor name and a seed
(no trained checkpoints offline; latency/energy never depend on values, and
accuracy experiments only need *consistent* values).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.engines.sfu import SpecialFunctionUnit
from repro.graph.fusion import fused_members
from repro.graph.ir import Graph, GraphError, Node


class EvaluationError(GraphError):
    """An operator cannot be evaluated with the given inputs."""


class NumericsError(EvaluationError):
    """``strict_numerics`` tripped: an op produced NaN/Inf outputs."""

    def __init__(self, message: str, node: str | None = None) -> None:
        super().__init__(message)
        self.node = node


def _weight_rng(name: str, seed: int) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def materialize_weight(name: str, shape: tuple[int, ...], seed: int = 0) -> np.ndarray:
    """Deterministic pseudo-trained weights: Kaiming-ish scaled normals."""
    rng = _weight_rng(name, seed)
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else max(shape[0], 1)
    scale = 1.0 / np.sqrt(max(fan_in, 1))
    if name.endswith((".b", ".shift", ".mean")):
        return rng.normal(scale=0.01, size=shape)
    if name.endswith((".scale",)):
        return 1.0 + rng.normal(scale=0.05, size=shape)
    if name.endswith((".var",)):
        return 1.0 + np.abs(rng.normal(scale=0.05, size=shape))
    return rng.normal(scale=scale, size=shape)


def _im2col(data: np.ndarray, k_h: int, k_w: int, stride: int,
            pad_h: int, pad_w: int) -> tuple[np.ndarray, int, int]:
    batch, channels, height, width = data.shape
    padded = np.pad(data, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    out_h = (height + 2 * pad_h - k_h) // stride + 1
    out_w = (width + 2 * pad_w - k_w) // stride + 1
    strides = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, channels, out_h, out_w, k_h, k_w),
        strides=(
            strides[0], strides[1],
            strides[2] * stride, strides[3] * stride,
            strides[2], strides[3],
        ),
        writeable=False,
    )
    # -> (batch, out_h, out_w, channels * k_h * k_w)
    columns = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h, out_w, channels * k_h * k_w
    )
    return columns, out_h, out_w


class ReferenceExecutor:
    """Evaluates graphs on numpy, one node at a time.

    Repeated runs of one executor are cheap: the topological schedule,
    fused-member flattening and the per-op-type handler lookup are all
    resolved once and reused, and materialized weights are cached. Pass
    ``weight_cache`` to share one weight dictionary between several
    executors over the same graph and seed (the calibration/verification
    sweep in :mod:`repro.quant` does this) — weights are deterministic in
    (name, seed), so sharing never changes results.

    ``flatten_fused=False`` executes fused nodes through the dedicated
    :meth:`_op_fused` handler instead of splicing members into the
    schedule — the mode the fusion equivalence guard
    (:mod:`repro.graph.equivalence`) exercises, because it keeps "what the
    fused kernel computes" as a distinct, doctorable code path.

    ``strict_numerics=True`` checks every op's outputs for NaN/Inf and
    raises :class:`NumericsError` naming the node; with an ``obs`` hub
    attached, trips also increment
    ``reference_numeric_guard_trips_total``.
    """

    def __init__(
        self,
        graph: Graph,
        seed: int = 0,
        weight_cache: dict[str, np.ndarray] | None = None,
        flatten_fused: bool = True,
        strict_numerics: bool = False,
        obs=None,
    ) -> None:
        self.graph = graph
        self.seed = seed
        self.flatten_fused = flatten_fused
        self.strict_numerics = strict_numerics
        self.obs = obs
        self.sfu = SpecialFunctionUnit()
        self._weights: dict[str, np.ndarray] = (
            weight_cache if weight_cache is not None else {}
        )
        self._schedule: list[Node] | None = None
        self._handlers: dict[str, object] = {}

    # -- weights ------------------------------------------------------------

    def weight(self, name: str) -> np.ndarray:
        if name not in self._weights:
            tensor_type = self.graph.tensor_type(name)
            self._weights[name] = materialize_weight(
                name, tuple(tensor_type.shape), self.seed
            )
        return self._weights[name]

    def set_weight(self, name: str, value: np.ndarray) -> None:
        self._weights[name] = np.asarray(value, dtype=np.float64)

    # -- top level ---------------------------------------------------------

    def run(self, **inputs: np.ndarray) -> dict[str, np.ndarray]:
        """Evaluate the whole graph; returns the graph outputs by name."""
        missing = [name for name in self.graph.inputs if name not in inputs]
        if missing:
            raise EvaluationError(f"missing graph inputs: {missing}")
        env: dict[str, np.ndarray] = {
            name: np.asarray(value, dtype=np.float64)
            for name, value in inputs.items()
        }
        for member in self._plan():
            self._evaluate(member, env)
        return {name: env[name] for name in self.graph.outputs}

    def _plan(self) -> list[Node]:
        """Execution schedule, topo-sorted once per executor.

        With ``flatten_fused`` (the default) fused-group members are
        spliced inline; otherwise fused nodes stay whole and dispatch to
        :meth:`_op_fused`.
        """
        if self._schedule is None:
            if self.flatten_fused:
                self._schedule = [
                    member
                    for node in self.graph.topological_nodes()
                    for member in fused_members(node)
                ]
            else:
                self._schedule = list(self.graph.topological_nodes())
        return self._schedule

    def _handler(self, op_type: str):
        """Cached ``_op_<type>`` lookup (None when unimplemented)."""
        if op_type not in self._handlers:
            self._handlers[op_type] = getattr(self, f"_op_{op_type}", None)
        return self._handlers[op_type]

    def _fetch(self, name: str, env: dict[str, np.ndarray]) -> np.ndarray:
        if name in env:
            return env[name]
        if name in self.graph.initializers:
            return self.weight(name)
        raise EvaluationError(f"tensor {name!r} not available")

    # -- operator semantics ---------------------------------------------------

    def _evaluate(self, node: Node, env: dict[str, np.ndarray]) -> None:
        handler = self._handler(node.op_type)
        if handler is None:
            raise EvaluationError(f"no reference semantics for {node.op_type!r}")
        operands = [self._fetch(name, env) for name in node.inputs]
        results = handler(node, operands)
        if not isinstance(results, tuple):
            results = (results,)
        for name, value in zip(node.outputs, results):
            value = np.asarray(value, dtype=np.float64)
            if self.strict_numerics and not np.all(np.isfinite(value)):
                if self.obs is not None:
                    self.obs.metrics.counter(
                        "reference_numeric_guard_trips_total",
                        "strict_numerics NaN/Inf detections",
                    ).inc(op=node.op_type)
                raise NumericsError(
                    f"node {node.name!r} ({node.op_type}) produced "
                    f"non-finite values in output {name!r}",
                    node=node.name,
                )
            env[name] = value

    def _op_fused(self, node: Node, operands):
        """Evaluate a fused group as one unit (``flatten_fused=False``).

        The default semantics replay the members in order inside a scratch
        environment, so results are bit-identical to the flattened
        schedule; tests monkeypatch this method to model a miscompiled
        fused kernel and exercise the equivalence guard's fallback.
        """
        scratch = dict(zip(node.inputs, operands))
        for member in fused_members(node):
            self._evaluate(member, scratch)
        return tuple(scratch[name] for name in node.outputs)

    # convolution family ------------------------------------------------------

    def _op_conv2d(self, node: Node, operands):
        data, weight = operands[0], operands[1]
        bias = operands[2] if len(operands) > 2 else None
        groups = node.attr("groups", 1)
        stride = node.attr("stride", 1)
        pad = node.attr("pad", 0)
        pad_h = node.attr("pad_h", pad)
        pad_w = node.attr("pad_w", pad)
        out_c, in_per_group, k_h, k_w = weight.shape
        batch, in_c, _h, _w = data.shape
        outputs = []
        out_per_group = out_c // groups
        for group in range(groups):
            data_slice = data[:, group * in_per_group:(group + 1) * in_per_group]
            weight_slice = weight[group * out_per_group:(group + 1) * out_per_group]
            columns, out_h, out_w = _im2col(data_slice, k_h, k_w, stride, pad_h, pad_w)
            flat_weight = weight_slice.reshape(out_per_group, -1)
            # weight layout must match im2col's (channels, kh, kw) order
            result = columns @ flat_weight.T
            outputs.append(result.transpose(0, 3, 1, 2))
        out = np.concatenate(outputs, axis=1)
        if bias is not None:
            out = out + bias.reshape(1, -1, 1, 1)
        return out

    def _op_conv1d(self, node: Node, operands):
        data, weight = operands[0], operands[1]
        bias = operands[2] if len(operands) > 2 else None
        stride = node.attr("stride", 1)
        pad = node.attr("pad", 0)
        out_c, weight_in, kernel = weight.shape
        batch, in_c, _length = data.shape
        if weight_in == 1 and out_c == in_c:
            # depthwise: one filter per channel
            data4 = data[:, :, None, :]
            weight4 = weight[:, :, None, :]
            node4 = Node(node.name, "conv2d", node.inputs, node.outputs,
                         {"stride": stride, "pad_h": 0, "pad_w": pad,
                          "groups": in_c})
            out = self._op_conv2d(node4, [data4, weight4])
            return out[:, :, 0, :] + (bias.reshape(1, -1, 1) if bias is not None else 0.0)
        data4 = data[:, :, None, :]
        weight4 = weight[:, :, None, :]
        node4 = Node(node.name, "conv2d", node.inputs, node.outputs,
                     {"stride": stride, "pad_h": 0, "pad_w": pad})
        out = self._op_conv2d(node4, [data4, weight4])
        out = out[:, :, 0, :]
        if bias is not None:
            out = out + bias.reshape(1, -1, 1)
        return out

    def _op_conv_transpose2d(self, node: Node, operands):
        data, weight = operands[0], operands[1]
        stride = node.attr("stride", 1)
        pad = node.attr("pad", 0)
        batch, in_c, height, width = data.shape
        _in, out_c, k_h, k_w = weight.shape
        out_h = (height - 1) * stride - 2 * pad + k_h
        out_w = (width - 1) * stride - 2 * pad + k_w
        out = np.zeros((batch, out_c, out_h + 2 * pad, out_w + 2 * pad))
        for row in range(height):
            for col in range(width):
                patch = np.einsum("bi,iokl->bokl", data[:, :, row, col], weight)
                out[:, :, row * stride:row * stride + k_h,
                    col * stride:col * stride + k_w] += patch
        if pad:
            out = out[:, :, pad:-pad, pad:-pad]
        return out

    # GEMM family ----------------------------------------------------------

    def _op_dense(self, node: Node, operands):
        data, weight = operands[0], operands[1]
        out = data @ weight.T
        if len(operands) > 2:
            out = out + operands[2]
        return out

    def _op_matmul(self, node: Node, operands):
        return operands[0] @ operands[1]

    def _op_embedding(self, node: Node, operands):
        indices, table = operands
        return table[indices.astype(np.int64) % table.shape[0]]

    # elementwise / activations -------------------------------------------

    def _op_add(self, node, operands):
        return operands[0] + operands[1]

    def _op_sub(self, node, operands):
        return operands[0] - operands[1]

    def _op_mul(self, node, operands):
        return operands[0] * operands[1]

    def _op_div(self, node, operands):
        return operands[0] / operands[1]

    def _op_maximum(self, node, operands):
        return np.maximum(operands[0], operands[1])

    def _op_minimum(self, node, operands):
        return np.minimum(operands[0], operands[1])

    def _op_pow(self, node, operands):
        return operands[0] ** operands[1]

    def _op_relu(self, node, operands):
        return np.maximum(operands[0], 0.0)

    def _op_leaky_relu(self, node, operands):
        slope = node.attr("slope", 0.1)
        return np.where(operands[0] > 0, operands[0], slope * operands[0])

    def _op_identity(self, node, operands):
        return operands[0]

    def _op_neg(self, node, operands):
        return -operands[0]

    def _op_sqrt(self, node, operands):
        return self.sfu.evaluate("sqrt", np.maximum(operands[0], 0.0))

    def _op_exp(self, node, operands):
        return self.sfu.evaluate("exp", operands[0])

    def _op_sigmoid(self, node, operands):
        return self.sfu.sigmoid(operands[0])

    def _op_tanh(self, node, operands):
        return self.sfu.tanh(operands[0])

    def _op_gelu(self, node, operands):
        return self.sfu.gelu(operands[0])

    def _op_swish(self, node, operands):
        return self.sfu.swish(operands[0])

    def _op_softplus(self, node, operands):
        return self.sfu.softplus(operands[0])

    def _op_erf(self, node, operands):
        return self.sfu.evaluate("erf", operands[0])

    def _op_mish(self, node, operands):
        return operands[0] * self.sfu.tanh(self.sfu.softplus(operands[0]))

    def _op_glu(self, node, operands):
        axis = node.attr("axis", -1)
        gate, value = np.split(operands[0], 2, axis=axis)
        return gate * self.sfu.sigmoid(value)

    def _op_prelu(self, node, operands):
        data, slope = operands
        shape = (1, slope.shape[0]) + (1,) * (data.ndim - 2)
        per_channel = slope.reshape(shape) if data.ndim >= 2 else slope
        return np.where(data > 0, data, per_channel * data)

    def _op_clip(self, node, operands):
        return np.clip(operands[0], node.attr("min", 0.0), node.attr("max"))

    def _op_reduce_max(self, node, operands):
        axes = tuple(node.attr("axes"))
        return operands[0].max(axis=axes, keepdims=node.attr("keepdims", False))

    def _op_split(self, node, operands):
        axis = node.attr("axis", 0)
        sections = node.attr("sections")
        offsets = np.cumsum(sections)[:-1]
        return tuple(np.split(operands[0], offsets, axis=axis))

    # normalization / reductions --------------------------------------------

    def _op_batch_norm(self, node, operands):
        data = operands[0]
        channels = data.shape[1]
        scale = operands[1] if len(operands) > 1 else np.ones(channels)
        shift = operands[2] if len(operands) > 2 else np.zeros(channels)
        mean = operands[3] if len(operands) > 3 else np.zeros(channels)
        var = operands[4] if len(operands) > 4 else np.ones(channels)
        reshape = (1, channels) + (1,) * (data.ndim - 2)
        return (
            (data - mean.reshape(reshape))
            / np.sqrt(var.reshape(reshape) + 1e-5)
            * scale.reshape(reshape)
            + shift.reshape(reshape)
        )

    def _op_layer_norm(self, node, operands):
        data = operands[0]
        mean = data.mean(axis=-1, keepdims=True)
        var = data.var(axis=-1, keepdims=True)
        out = (data - mean) / np.sqrt(var + 1e-5)
        if len(operands) > 1:
            out = out * operands[1]
        if len(operands) > 2:
            out = out + operands[2]
        return out

    def _op_softmax(self, node, operands):
        return self.sfu.softmax(operands[0], axis=-1)

    def _op_reduce_mean(self, node, operands):
        axes = tuple(node.attr("axes"))
        return operands[0].mean(axis=axes, keepdims=node.attr("keepdims", False))

    def _op_top_k(self, node, operands):
        k = node.attr("k")
        data = operands[0]
        order = np.argsort(-data, axis=-1, kind="stable")[..., :k]
        values = np.take_along_axis(data, order, axis=-1)
        return values, order.astype(np.float64)

    # pooling / layout ---------------------------------------------------------

    def _pool(self, node, data, reducer):
        kernel = node.attr("kernel")
        stride = node.attr("stride", kernel)
        pad = node.attr("pad", 0)
        if pad:
            fill = -np.inf if reducer is np.max else 0.0
            data = np.pad(
                data, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                constant_values=fill,
            )
        batch, channels, height, width = data.shape
        out_h = (height - kernel) // stride + 1
        out_w = (width - kernel) // stride + 1
        strides = data.strides
        windows = np.lib.stride_tricks.as_strided(
            data,
            shape=(batch, channels, out_h, out_w, kernel, kernel),
            strides=(strides[0], strides[1], strides[2] * stride,
                     strides[3] * stride, strides[2], strides[3]),
            writeable=False,
        )
        return reducer(windows, axis=(4, 5))

    def _op_max_pool(self, node, operands):
        return self._pool(node, operands[0], np.max)

    def _op_avg_pool(self, node, operands):
        return self._pool(node, operands[0], np.mean)

    def _op_global_avg_pool(self, node, operands):
        return operands[0].mean(axis=(2, 3), keepdims=True)

    def _op_upsample(self, node, operands):
        scale = node.attr("scale", 2)
        return operands[0].repeat(scale, axis=2).repeat(scale, axis=3)

    def _op_pixel_shuffle(self, node, operands):
        scale = node.attr("scale", 2)
        batch, channels, height, width = operands[0].shape
        out_c = channels // (scale * scale)
        reshaped = operands[0].reshape(batch, out_c, scale, scale, height, width)
        return reshaped.transpose(0, 1, 4, 2, 5, 3).reshape(
            batch, out_c, height * scale, width * scale
        )

    def _op_concat(self, node, operands):
        return np.concatenate(operands, axis=node.attr("axis", 0))

    def _op_reshape(self, node, operands):
        shape = tuple(node.attr("shape"))
        if any(isinstance(dim, str) for dim in shape):
            raise EvaluationError(f"{node.name}: bind symbolic dims before eval")
        return operands[0].reshape(shape)

    def _op_transpose(self, node, operands):
        return np.transpose(operands[0], tuple(node.attr("axes")))

    def _op_flatten(self, node, operands):
        return operands[0].reshape(operands[0].shape[0], -1)

    def _op_pad(self, node, operands):
        pads = node.attr("pads")
        rank = operands[0].ndim
        widths = [(pads[index], pads[index + rank]) for index in range(rank)]
        return np.pad(operands[0], widths)

    def _op_slice(self, node, operands):
        axis = node.attr("axis", 0)
        index: list = [slice(None)] * operands[0].ndim
        index[axis] = slice(node.attr("start", 0), node.attr("stop"))
        return operands[0][tuple(index)]
