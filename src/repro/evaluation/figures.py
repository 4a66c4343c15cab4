"""Regeneration of the paper's performance figures (Figures 4, 5 and 6).

The paper's figures plot the speedup of SCCL's generated code over NCCL
(DGX-1) or RCCL (Gigabyte Z52) as a function of the input buffer size.  The
hardware substitute here is the discrete-event simulator: both the
synthesized algorithms and the baseline ring algorithms are lowered to
per-rank programs and timed by the same cost model, and the speedup is the
ratio of simulated times.

Each ``figureN`` function returns a :class:`FigureResult` whose ``series``
maps the paper's legend labels (e.g. ``"(6,7,7)"``) to per-size speedups.
Synthesis of the required SCCL algorithms happens on demand with a
configurable per-instance time budget; series whose synthesis does not
finish within the budget are reported in ``skipped`` instead of silently
vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines import nccl_allgather, nccl_allreduce, rccl_allgather
from ..core import Algorithm, allreduce_from_allgather, make_instance, synthesize
from ..runtime import Simulator, lower
from ..topology import Topology, amd_z52, dgx1
from .reporting import format_series


#: Input sizes (bytes) roughly matching the x-axes of Figures 4-6.
DEFAULT_SIZES: List[int] = [1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22, 1 << 25, 1 << 28]

#: Allgather (C, S, R) points plotted in Figure 4.
FIGURE4_POINTS: List[Tuple[int, int, int]] = [(1, 2, 2), (2, 2, 3), (5, 6, 6), (6, 7, 7)]

#: Allgather points whose derived Allreduce algorithms are plotted in Figure 5
#: (the figure labels them by the Allgather phase's signature).
FIGURE5_POINTS: List[Tuple[int, int, int]] = [(1, 2, 2), (4, 5, 5), (5, 6, 6), (6, 7, 7)]

#: Allgather points plotted in Figure 6 (Gigabyte Z52).
FIGURE6_POINTS: List[Tuple[int, int, int]] = [(1, 4, 4), (2, 7, 7)]


@dataclass
class FigureResult:
    """Speedup series for one figure."""

    name: str
    sizes: List[int]
    series: Dict[str, List[float]] = field(default_factory=dict)
    baseline: str = ""
    skipped: Dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        title = f"{self.name}: speedup over {self.baseline} (per input size, bytes)"
        body = format_series(self.series, self.sizes, x_label="bytes")
        if self.skipped:
            body += "\nskipped series: " + ", ".join(
                f"{label} ({reason})" for label, reason in self.skipped.items()
            )
        return title + "\n" + body

    def crossover_consistent(self) -> bool:
        """Sanity property: lower-latency series lead at small sizes,
        higher-bandwidth series lead at large sizes."""
        if len(self.series) < 2:
            return True
        labels = list(self.series)
        first, last = labels[0], labels[-1]
        small = self.series[first][0] >= self.series[last][0]
        large = self.series[last][-1] >= self.series[first][-1]
        return small and large


def _label(signature: Tuple[int, int, int]) -> str:
    """Legend label in the paper's (C,S,R) notation."""
    return f"({signature[0]},{signature[1]},{signature[2]})"


def _synthesize_points(
    collective: str,
    topology: Topology,
    points: Sequence[Tuple[int, int, int]],
    time_limit: Optional[float],
) -> Tuple[Dict[Tuple[int, int, int], Algorithm], Dict[str, str]]:
    algorithms: Dict[Tuple[int, int, int], Algorithm] = {}
    skipped: Dict[str, str] = {}
    for (chunks, steps, rounds) in points:
        label = f"({chunks},{steps},{rounds})"
        instance = make_instance(collective, topology, chunks, steps, rounds)
        result = synthesize(instance, time_limit=time_limit)
        if result.algorithm is None:
            skipped[label] = f"synthesis {result.status.value} after {result.total_time:.0f}s"
            continue
        algorithms[(chunks, steps, rounds)] = result.algorithm
    return algorithms, skipped


def _speedup_series(
    sccl_algorithms: Dict[str, Tuple[Algorithm, str]],
    baseline_algorithm: Algorithm,
    topology: Topology,
    sizes: Sequence[int],
) -> Dict[str, List[float]]:
    simulator = Simulator(topology)
    baseline_program = lower(baseline_algorithm, protocol="single_kernel_push")
    baseline_times = [simulator.simulate(baseline_program, size).total_time_s for size in sizes]
    series: Dict[str, List[float]] = {}
    for label, (algorithm, protocol) in sccl_algorithms.items():
        program = lower(algorithm, protocol=protocol)
        times = [simulator.simulate(program, size).total_time_s for size in sizes]
        series[label] = [b / t for b, t in zip(baseline_times, times)]
    return series


def figure4_allgather_dgx1(
    time_limit: Optional[float] = 60.0,
    points: Optional[Sequence[Tuple[int, int, int]]] = None,
) -> FigureResult:
    """Figure 4: Allgather speedup over NCCL on the DGX-1.

    Plots each synthesized (C, S, R) with the push-copy single-kernel
    lowering plus the bandwidth-optimal algorithm lowered with per-step
    cudaMemcpy, mirroring the "(6,7,7) cudamemcpy" series of the paper.
    """
    sizes = list(DEFAULT_SIZES)
    points = list(points or FIGURE4_POINTS)
    topology = dgx1()
    algorithms, skipped = _synthesize_points("Allgather", topology, points, time_limit)
    labeled: Dict[str, Tuple[Algorithm, str]] = {}
    for signature, algorithm in algorithms.items():
        labeled[_label(signature)] = (algorithm, "single_kernel_push")
    # The memcpy variant of the most bandwidth-efficient synthesized point.
    if algorithms:
        best = max(algorithms, key=lambda sig: sig[0] / sig[2])
        labeled[f"{_label(best)} cudamemcpy"] = (algorithms[best], "multi_kernel_memcpy")
    result = FigureResult(
        name="Figure 4 (Allgather, DGX-1)",
        sizes=sizes,
        baseline="NCCL ring Allgather (6,7,7)",
        skipped=skipped,
    )
    result.series = _speedup_series(labeled, nccl_allgather(topology), topology, sizes)
    return result


def figure5_allreduce_dgx1(
    time_limit: Optional[float] = 60.0,
    points: Optional[Sequence[Tuple[int, int, int]]] = None,
) -> FigureResult:
    """Figure 5: Allreduce speedup over NCCL on the DGX-1.

    Allreduce algorithms are derived from the synthesized Allgathers via the
    Reducescatter + Allgather composition; series are labeled by the
    Allgather phase's (C, S, R) as in the paper.
    """
    sizes = list(DEFAULT_SIZES)
    points = list(points or FIGURE5_POINTS)
    topology = dgx1()
    allgathers, skipped = _synthesize_points("Allgather", topology, points, time_limit)
    labeled: Dict[str, Tuple[Algorithm, str]] = {}
    for signature, allgather in allgathers.items():
        allreduce = allreduce_from_allgather(allgather)
        labeled[_label(signature)] = (allreduce, "single_kernel_push")
    result = FigureResult(
        name="Figure 5 (Allreduce, DGX-1)",
        sizes=sizes,
        baseline="NCCL ring Allreduce (48,14,14)",
        skipped=skipped,
    )
    result.series = _speedup_series(labeled, nccl_allreduce(topology), topology, sizes)
    return result


def figure6_allgather_amd(time_limit: Optional[float] = 60.0) -> FigureResult:
    """Figure 6: Allgather speedup over RCCL on the Gigabyte Z52."""
    sizes = list(DEFAULT_SIZES)
    topology = amd_z52()
    algorithms, skipped = _synthesize_points("Allgather", topology, FIGURE6_POINTS, time_limit)
    labeled = {
        _label(signature): (algorithm, "single_kernel_push")
        for signature, algorithm in algorithms.items()
    }
    result = FigureResult(
        name="Figure 6 (Allgather, Gigabyte Z52)",
        sizes=sizes,
        baseline="RCCL ring Allgather (2,7,7)",
        skipped=skipped,
    )
    result.series = _speedup_series(labeled, rccl_allgather(topology), topology, sizes)
    return result
