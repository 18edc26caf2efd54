"""Hardened compile pipeline: validate → optimize → (guard) → lower.

:func:`compile_graph` is the one entry point the runtime uses. It enforces
two contracts a production compiler owes its callers:

- **Typed failure.** A malformed graph always surfaces as a
  :class:`~repro.compiler.errors.CompileError` (or the
  :class:`~repro.graph.ir.GraphValidationError` taxonomy) naming the
  offending node and the pipeline stage — never a bare
  ``KeyError``/``IndexError`` from deep inside a pass.
- **No silent miscompiles.** With ``verify_fusion=True`` the fusion
  equivalence guard (:mod:`repro.graph.equivalence`) replays every fused
  group against its unfused members on seeded inputs; on mismatch the
  pipeline warns, bumps ``fusion_guard_fallbacks_total``, and recompiles
  with fusion disabled instead of shipping wrong numerics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.compiler.errors import CompileError
from repro.compiler.lowering import CompiledModel, lower_graph
from repro.core.config import ChipConfig
from repro.core.datatypes import DType
from repro.graph.equivalence import FusionGuardReport, verify_fused_graph
from repro.graph.ir import Graph, GraphError
from repro.graph.passes import optimize


@dataclass
class CompileResult:
    """A compiled model plus how the hardened pipeline got there."""

    model: CompiledModel
    fusion: bool
    """Whether the *shipped* model has fusion applied (False after a
    guard fallback even if the caller asked for fusion)."""
    guard: FusionGuardReport | None = None
    fell_back: bool = False


def _wrap(stage: str, graph: Graph, error: Exception) -> CompileError:
    if isinstance(error, GraphError):
        wrapped = CompileError(
            f"{stage} failed for graph {graph.name!r}: {error}",
            node=getattr(error, "node", None),
            stage=stage,
        )
    else:
        wrapped = CompileError(
            f"{stage} crashed for graph {graph.name!r}: {error!r}",
            stage=stage,
        )
    return wrapped


def compile_graph(
    graph: Graph,
    chip: ChipConfig,
    dtype: DType = DType.FP16,
    fusion: bool = True,
    verify_fusion: bool = False,
    seed: int = 0,
    obs=None,
) -> CompileResult:
    """Validate, optimize (optionally guarded) and lower one graph.

    The caller's graph is never mutated: the pipeline works on a deep
    copy (``graph.bind({})``). When the fusion guard runs, the fused
    optimize gets a second copy, so a guard fallback can restart from the
    pristine pre-fusion graph; otherwise nothing can fall back and the
    one copy is optimized directly.
    """
    pristine = graph.bind({})
    try:
        pristine.validate(signatures=True)
    except GraphError:
        raise  # already typed, with node provenance
    except Exception as error:  # pragma: no cover - validator is total
        raise _wrap("validate", graph, error) from error

    def _optimize(fuse: bool, working: Graph) -> Graph:
        try:
            optimized, _report = optimize(working, fusion=fuse)
        except CompileError:
            raise
        except Exception as error:
            raise _wrap("optimize", graph, error) from error
        return optimized

    guarded = verify_fusion and fusion
    optimized = _optimize(fusion, pristine.bind({}) if guarded else pristine)
    guard: FusionGuardReport | None = None
    fell_back = False
    effective_fusion = fusion
    if guarded:
        guard = verify_fused_graph(optimized, seed=seed, obs=obs)
        if not guard.ok:
            bad = ", ".join(check.node for check in guard.mismatches)
            warnings.warn(
                f"fusion equivalence guard: graph {graph.name!r} groups "
                f"[{bad}] diverge from their unfused members; compiling "
                "with fusion disabled",
                RuntimeWarning,
                stacklevel=2,
            )
            if obs is not None:
                obs.metrics.counter(
                    "fusion_guard_fallbacks_total",
                    "compiles that reverted to unfused graphs",
                ).inc(len(guard.mismatches))
            optimized = _optimize(False, pristine)
            fell_back = True
            effective_fusion = False

    try:
        model = lower_graph(optimized, chip, dtype)
    except CompileError:
        raise  # lower_graph already attaches node + stage
    except Exception as error:  # pragma: no cover - lower_graph wraps
        raise _wrap("lower", graph, error) from error
    return CompileResult(
        model=model,
        fusion=effective_fusion,
        guard=guard,
        fell_back=fell_back,
    )


__all__ = ["CompileResult", "compile_graph"]
