"""Matrix engine: fine-grained vector-matrix multiplication (VMM).

§IV-A1 + Fig. 3: the engine owns 2 matrix registers (32 rows x 512 bits),
32 vector registers (512-bit) and 1024 accumulation registers (512-bit).
For FP32 the supported matrix shapes are 16x16, 8x16 and 4x16 with vector
lengths 16, 8 and 4; other dtypes scale the lane count with element width.
Computation proceeds as a series of outer-product steps — the input vector
is "operated with each row of the input matrix" and the running sum lives
in an accumulation register, maximizing reuse and minimizing data movement.

Table II advertises "more than 40 VMM patterns"; :func:`supported_patterns`
enumerates ours (shape x dtype x transpose x accumulate), and the engine
rejects anything outside the list, the same way the fixed-function hardware
would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.datatypes import DType
from repro.engines.vector import VECTOR_BITS, lanes_for
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.faults.silent import SilentCorruptor

MATRIX_REGISTER_ROWS = 32
NUM_MATRIX_REGISTERS = 2
NUM_ACCUMULATION_REGISTERS = 1024


class VmmPatternError(ValueError):
    """Requested a VMM shape the matrix engine does not implement."""


@dataclass(frozen=True)
class VmmPattern:
    """One hardware-supported VMM configuration."""

    dtype: DType
    rows: int
    cols: int
    transposed: bool
    accumulate: bool

    @property
    def vector_length(self) -> int:
        """Length of the input vector: rows normally, cols when transposed."""
        return self.cols if self.transposed else self.rows

    @property
    def macs(self) -> int:
        return self.rows * self.cols


_PATTERNS: tuple[VmmPattern, ...] | None = None


def supported_patterns() -> tuple[VmmPattern, ...]:
    """All VMM patterns DTU 2.0's matrix engine accepts (>40, per Table II).

    For each dtype with ``L = 512 / bits`` lanes the matrix is ``m x L`` with
    ``m`` in ``{L/4, L/2, L}`` capped at the 32 matrix-register rows, each
    pattern available transposed / plain and accumulating / overwriting.

    The table is a pure function of the hardware description, so it is
    built once and memoized — the compiler's tensorization pass consults
    it for every candidate node.
    """
    global _PATTERNS
    if _PATTERNS is not None:
        return _PATTERNS
    patterns: list[VmmPattern] = []
    seen: set[VmmPattern] = set()
    for dtype in DType:
        lanes = lanes_for(dtype)
        for rows in (lanes // 4, lanes // 2, lanes):
            rows = min(rows, MATRIX_REGISTER_ROWS)
            for transposed in (False, True):
                for accumulate in (False, True):
                    pattern = VmmPattern(
                        dtype=dtype,
                        rows=rows,
                        cols=lanes,
                        transposed=transposed,
                        accumulate=accumulate,
                    )
                    if pattern not in seen:
                        seen.add(pattern)
                        patterns.append(pattern)
    _PATTERNS = tuple(patterns)
    return _PATTERNS


_SUPPORTED: frozenset[tuple] = frozenset(
    (p.dtype, p.rows, p.cols, p.transposed) for p in supported_patterns()
)


def is_supported(dtype: DType, rows: int, cols: int, transposed: bool = False) -> bool:
    return (dtype, rows, cols, transposed) in _SUPPORTED


@dataclass
class MatrixEngine:
    """Functional model of the VMM facility.

    The register files are explicit: a matrix must be *loaded* into one of
    the two matrix registers before VMM, and results accumulate into one of
    the 1024 accumulation registers — mirroring Fig. 3's data-preparation
    stage and letting tests assert capacity limits.
    """

    dtype: DType = DType.FP32
    trace: Trace | None = None
    corruptor: "SilentCorruptor | None" = None
    """Optional silent-corruption source (:mod:`repro.faults.silent`).
    When attached, :meth:`gemm` results may be corrupted *after* all
    architectural state updates — the register file keeps the true
    partials, exactly like a defect on the result readout path — and
    nothing raises. ``None`` (the default) is bit-identical to a build
    without the fault layer."""
    matrix_registers: list = field(
        default_factory=lambda: [None] * NUM_MATRIX_REGISTERS
    )
    accumulators: dict[int, np.ndarray] = field(default_factory=dict)
    macs_executed: int = field(default=0, init=False)
    vmm_issued: int = field(default=0, init=False)

    @property
    def lanes(self) -> int:
        return lanes_for(self.dtype)

    def _charge(self, macs: int) -> None:
        self.macs_executed += macs
        self.vmm_issued += 1
        if self.trace is not None:
            self.trace.bump("matrix.vmm")
            self.trace.bump("matrix.macs", macs)

    def load_matrix(self, slot: int, matrix: np.ndarray) -> None:
        """Fill matrix register ``slot`` (Fig. 3 data-preparation stage)."""
        if not 0 <= slot < NUM_MATRIX_REGISTERS:
            raise VmmPatternError(
                f"matrix register slot {slot} out of range "
                f"[0, {NUM_MATRIX_REGISTERS})"
            )
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise VmmPatternError(f"matrix register holds 2-D data, got {matrix.shape}")
        rows, cols = matrix.shape
        if rows > MATRIX_REGISTER_ROWS:
            raise VmmPatternError(
                f"{rows} rows exceed the {MATRIX_REGISTER_ROWS}-row matrix register"
            )
        if cols * self.dtype.bits > VECTOR_BITS:
            raise VmmPatternError(
                f"{cols} columns of {self.dtype.name} exceed a 512-bit row"
            )
        self.matrix_registers[slot] = matrix

    def vmm(
        self,
        vector: np.ndarray,
        slot: int = 0,
        acc: int = 0,
        transposed: bool = False,
        accumulate: bool = False,
    ) -> np.ndarray:
        """vector x matrix -> accumulation register ``acc``.

        With ``transposed`` the loaded matrix acts as its transpose, which is
        how the hardware reuses one loaded operand for both GEMM directions.
        """
        matrix = self.matrix_registers[slot]
        if matrix is None:
            raise VmmPatternError(f"matrix register {slot} is empty")
        rows, cols = matrix.shape
        if not is_supported(self.dtype, rows, cols, transposed):
            raise VmmPatternError(
                f"VMM pattern {rows}x{cols} transposed={transposed} for "
                f"{self.dtype.name} is not hardware-supported"
            )
        if not 0 <= acc < NUM_ACCUMULATION_REGISTERS:
            raise VmmPatternError(f"accumulator {acc} out of range")
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1:
            raise VmmPatternError(f"VMM input must be 1-D, got {vector.shape}")
        operand = matrix.T if transposed else matrix
        if vector.shape[0] != operand.shape[0]:
            raise VmmPatternError(
                f"vector length {vector.shape[0]} does not match matrix "
                f"rows {operand.shape[0]}"
            )
        # Outer-product accumulation, one matrix row per step (Fig. 3): the
        # running partial sum never leaves the accumulation register.
        partial = np.zeros(operand.shape[1], dtype=np.float64)
        for element, row in zip(vector, operand):
            partial += element * row
        self._charge(rows * cols)
        if accumulate and acc in self.accumulators:
            if self.accumulators[acc].shape != partial.shape:
                raise VmmPatternError(
                    f"accumulator {acc} holds length "
                    f"{self.accumulators[acc].shape[0]}, cannot accumulate "
                    f"length {partial.shape[0]}"
                )
            partial = partial + self.accumulators[acc]
        self.accumulators[acc] = partial
        return partial

    def read_accumulator(self, acc: int) -> np.ndarray:
        if acc not in self.accumulators:
            raise VmmPatternError(f"accumulator {acc} has no value")
        return self.accumulators[acc]

    def clear_accumulator(self, acc: int) -> None:
        self.accumulators.pop(acc, None)

    def vmm_quantized(
        self,
        q_vector: np.ndarray,
        q_matrix: np.ndarray,
        vector_scale: float,
        matrix_scale: float,
        slot: int = 0,
        acc: int = 0,
    ) -> np.ndarray:
        """INT8 VMM: integer operands, wide accumulation, one dequantize.

        This is how Table I's 256 TOPS mode computes: operands arrive as
        INT8 codes (range [-127, 127]), the outer-product accumulation runs
        exactly in the wide accumulation registers (integers are exact in
        float64 up to 2^53), and the result dequantizes once with the
        product of the two scales — no per-MAC rounding error.
        """
        q_vector = np.asarray(q_vector)
        q_matrix = np.asarray(q_matrix)
        for operand, label in ((q_vector, "vector"), (q_matrix, "matrix")):
            if np.any(np.abs(operand) > 127) or np.any(operand != np.rint(operand)):
                raise VmmPatternError(
                    f"quantized {label} must hold integer codes in [-127, 127]"
                )
        self.load_matrix(slot, q_matrix.astype(np.float64))
        integer_result = self.vmm(q_vector.astype(np.float64), slot=slot, acc=acc)
        return integer_result * (vector_scale * matrix_scale)

    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        tile_rows: int | None = None,
    ) -> np.ndarray:
        """Library-level GEMM built from tiled VMM calls.

        This is how TopsDNN composes matrix multiplication on DTU 2.0: each
        row of ``a`` drives VMM against column tiles of ``b``, accumulating
        over the K dimension in accumulation registers. The result equals
        ``a @ b`` (tests check against numpy).

        Executes on the vectorized fast path: one batched NumPy update per
        K step instead of one Python-level VMM call per (row, column tile,
        K tile). Results, architectural cost accounting (VMMs issued, MACs,
        trace counters) and final register-file state are bit-identical to
        :meth:`gemm_reference` — pinned by the equivalence tests in
        ``tests/engines/test_matrix_fastpath.py``.
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise VmmPatternError(f"bad GEMM shapes {a.shape} x {b.shape}")
        m, k = a.shape
        _, n = b.shape
        lanes = self.lanes
        tile_k = tile_rows or lanes
        tile_k = min(tile_k, lanes, MATRIX_REGISTER_ROWS)
        if m == 0 or n == 0 or k == 0:
            # Degenerate extents take the reference path (it is trivially
            # fast there and keeps the error behaviour identical).
            result = self.gemm_reference(a, b, tile_rows)
            if self.corruptor is not None:
                result = self.corruptor.corrupt_gemm(result)
            return result

        num_col_tiles = -(-n // lanes)
        num_k_tiles = -(-k // tile_k)
        if not is_supported(self.dtype, tile_k, lanes, False):
            # The reference loop loads the first tile before vmm() rejects
            # the pattern; mirror that register-file side effect exactly.
            first = np.zeros((tile_k, lanes), dtype=np.float64)
            first[: min(tile_k, k), : min(lanes, n)] = b[:tile_k, :lanes]
            self.matrix_registers[0] = first
            raise VmmPatternError(
                f"VMM pattern {tile_k}x{lanes} transposed=False for "
                f"{self.dtype.name} is not hardware-supported"
            )

        # The reference loop folds each K tile sequentially: the tile's
        # partial sum is itself a sequential fold over its rows, then
        # ``new_acc = partial + old_acc``. Rows of ``a`` and columns of
        # ``b`` never interact, so we batch those two dimensions and keep
        # the K order — bit-identical IEEE-754 association. Skipping the
        # zero-padded tail rows/columns is exact too: the padded products
        # are +/-0.0 and the running partial is never -0.0.
        acc = np.zeros((m, n), dtype=np.float64)
        outer = np.empty((m, n), dtype=np.float64)
        columns = a.T.reshape(k, m, 1)  # a[:, kk] as ready-to-broadcast views
        for t in range(num_k_tiles):
            k0 = t * tile_k
            k1 = min(k0 + tile_k, k)
            partial = np.zeros((m, n), dtype=np.float64)
            for kk in range(k0, k1):
                np.multiply(columns[kk], b[kk], out=outer)
                partial += outer
            acc = partial if t == 0 else partial + acc

        # Identical architectural charges: one VMM of tile_k x lanes MACs
        # per (column tile, row, K tile), exactly as the reference issues.
        vmm_calls = num_col_tiles * m * num_k_tiles
        self.vmm_issued += vmm_calls
        self.macs_executed += vmm_calls * tile_k * lanes
        if self.trace is not None:
            self.trace.bump("matrix.vmm", vmm_calls)
            self.trace.bump("matrix.macs", vmm_calls * tile_k * lanes)

        # Reconstruct the final register-file state the reference loop
        # leaves behind: accumulator ``row % 1024`` holds the last column
        # tile's lane-padded partial for that row, and matrix register 0
        # holds the last tile loaded.
        last_col0 = (num_col_tiles - 1) * lanes
        last_col1 = min(last_col0 + lanes, n)
        width = last_col1 - last_col0
        padded = np.zeros((m, lanes), dtype=np.float64)
        padded[:, :width] = acc[:, last_col0:last_col1]
        for row in range(m):
            self.accumulators[row % NUM_ACCUMULATION_REGISTERS] = padded[row]
        last_k0 = (num_k_tiles - 1) * tile_k
        last_k1 = min(last_k0 + tile_k, k)
        last_tile = np.zeros((tile_k, lanes), dtype=np.float64)
        last_tile[: last_k1 - last_k0, :width] = b[last_k0:last_k1, last_col0:last_col1]
        self.matrix_registers[0] = last_tile
        if self.corruptor is not None:
            # Corruption lands after every architectural state update: the
            # accumulation registers keep the true partials, only the
            # returned result is wrong — wrong numbers, no error signal.
            acc = self.corruptor.corrupt_gemm(acc)
        return acc

    def gemm_reference(
        self,
        a: np.ndarray,
        b: np.ndarray,
        tile_rows: int | None = None,
    ) -> np.ndarray:
        """The original tile-loop GEMM: one VMM call per (row, column tile,
        K tile). Kept as the architectural reference the fast path is pinned
        against, and as the slow side of the ``engine.gemm`` benchmark."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise VmmPatternError(f"bad GEMM shapes {a.shape} x {b.shape}")
        m, k = a.shape
        _, n = b.shape
        lanes = self.lanes
        tile_k = tile_rows or lanes
        tile_k = min(tile_k, lanes, MATRIX_REGISTER_ROWS)
        out = np.zeros((m, n), dtype=np.float64)
        for col0 in range(0, n, lanes):
            col1 = min(col0 + lanes, n)
            for row in range(m):
                acc_id = row % NUM_ACCUMULATION_REGISTERS
                self.clear_accumulator(acc_id)
                for k0 in range(0, k, tile_k):
                    k1 = min(k0 + tile_k, k)
                    tile = np.zeros((tile_k, lanes), dtype=np.float64)
                    tile[: k1 - k0, : col1 - col0] = b[k0:k1, col0:col1]
                    vec = np.zeros(tile_k, dtype=np.float64)
                    vec[: k1 - k0] = a[row, k0:k1]
                    self.load_matrix(0, tile)
                    self.vmm(vec, slot=0, acc=acc_id, accumulate=True)
                out[row, col0:col1] = self.read_accumulator(acc_id)[: col1 - col0]
        return out
