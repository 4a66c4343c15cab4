"""Runtime substrate: lowering, execution, simulation and code generation."""

from .codegen import CodegenError, generate_cuda_like_source
from .executor import ExecutionError, ExecutionResult, Executor, execute
from .lowering import PROTOCOLS, LoweringError, lower
from .program import Instruction, OpCode, Program
from .simulator import (
    DEFAULT_PROTOCOLS,
    ProtocolModel,
    SimulationError,
    SimulationResult,
    Simulator,
    StepTiming,
)

__all__ = [
    "CodegenError",
    "DEFAULT_PROTOCOLS",
    "ExecutionError",
    "ExecutionResult",
    "Executor",
    "Instruction",
    "LoweringError",
    "OpCode",
    "PROTOCOLS",
    "Program",
    "ProtocolModel",
    "SimulationError",
    "SimulationResult",
    "Simulator",
    "StepTiming",
    "execute",
    "generate_cuda_like_source",
    "lower",
]
