"""CUDA-like source emitter (Section 4 of the paper).

SCCL generates SPMD C++/CUDA code: every GPU's schedule lives under a
top-level ``switch (rank)``; inter-GPU communication writes through CUDA
IPC pointers; a ``__threadfence`` orders each data write before the flag
store that signals completion; receivers spin on per-chunk flags.

This module emits the same structure as text.  The output is not compiled
(there is no GPU in this environment) — it exists so that downstream users
can see exactly what the lowering produces, and so tests can assert the
structural properties the paper calls out (one case per rank, flags per
chunk/connection, threadfence between data and flag writes, push copies).
"""

from __future__ import annotations

from .program import OpCode, Program


class CodegenError(Exception):
    """Raised for programs the emitter cannot handle."""


_HEADER = """\
// Auto-generated by the SCCL reproduction ({name})
// Collective: {collective}   Ranks: {ranks}   Chunk slots: {chunks}
// Protocol: {protocol}
//
// Each rank's schedule is a case of the switch below.  Communication uses
// the push model: the sender writes the destination rank's buffer through
// an IPC pointer, issues a __threadfence(), then sets the destination's
// flag for that chunk.  Receivers spin on their local flag.

#include <cstdint>

#define NUM_RANKS {ranks}
#define NUM_CHUNKS {chunks}
#define CHUNK_ELEMS (chunk_bytes / sizeof(float))

struct Peer {{
    float*                 buffer;   // IPC-mapped remote chunk buffer
    volatile unsigned int* flags;    // one flag per (chunk, step)
}};
"""

_DEVICE_HELPERS = """\
__device__ static inline void push_chunk(float* dst, const float* src) {
    for (int i = threadIdx.x; i < CHUNK_ELEMS; i += blockDim.x) {
        // 128-bit vectorized loads/stores in the real implementation;
        // scalar form kept for clarity.
        dst[i] = src[i];
    }
}

__device__ static inline void push_chunk_reduce(float* dst, const float* src) {
    for (int i = threadIdx.x; i < CHUNK_ELEMS; i += blockDim.x) {
        dst[i] += src[i];
    }
}

__device__ static inline void signal(volatile unsigned int* flag) {
    __threadfence();               // order the data writes before the flag
    if (threadIdx.x == 0) *flag = 1;
}

__device__ static inline void wait(volatile unsigned int* flag) {
    if (threadIdx.x == 0) { while (*flag == 0) { /* spin */ } }
    __syncthreads();
}
"""


# One ``%`` template per opcode (and, for SEND, per protocol); ``%s`` writes
# an int exactly as an f-string does.  A flag index is step * chunks + chunk.
_PUSH_SEND = (
    "        push_chunk(peers[%s].buffer + %s * CHUNK_ELEMS, local + %s * CHUNK_ELEMS);"
    "  // step %s\n"
    "        signal(&peers[%s].flags[%s]);\n"
)
_MEMCPY_SEND = (
    "        cudaMemcpyAsync(peers[%s].buffer + %s * CHUNK_ELEMS,\n"
    "                        local + %s * CHUNK_ELEMS, chunk_bytes, cudaMemcpyDeviceToDevice,"
    " stream);  // step %s\n"
    "        signal(&peers[%s].flags[%s]);\n"
)
_RECV = "        wait(&my_flags[%s]);  // chunk %s from rank %s, step %s\n"
_RECV_REDUCE = (
    "        wait(&my_flags[%s]);  // partial chunk %s from rank %s, step %s\n"
    "        push_chunk_reduce(local + %s * CHUNK_ELEMS, staging + %s * CHUNK_ELEMS);\n"
)
_BARRIER = "        // ---- step %s boundary (kernel relaunch) ----\n"


def generate_cuda_like_source(program: Program) -> str:
    """Emit the CUDA-like C++ text for a lowered program."""
    parts = [
        _HEADER.format(
            name=program.name,
            collective=program.collective,
            ranks=program.num_ranks,
            chunks=program.num_chunks,
            protocol=program.protocol,
        ),
        _DEVICE_HELPERS,
    ]
    kernel_kind = (
        "one kernel per step" if program.protocol.startswith("multi_kernel") else "single fused kernel"
    )
    parts.append(
        f"// Lowering mode: {kernel_kind}.\n"
        "__global__ void sccl_kernel(int rank, float* local, float* staging,\n"
        "                            Peer* peers, volatile unsigned int* my_flags,\n"
        "                            size_t chunk_bytes) {\n"
        "    switch (rank) {\n"
    )
    append = parts.append
    num_chunks = program.num_chunks
    send = _MEMCPY_SEND if program.protocol == "multi_kernel_memcpy" else _PUSH_SEND
    for rank, instructions in enumerate(program.ranks):
        append(f"    case {rank}: {{\n")
        for (op, chunk, peer, step) in instructions:
            if op is OpCode.SEND:
                append(send % (peer, chunk, chunk, step, peer, step * num_chunks + chunk))
            elif op is OpCode.RECV:
                append(_RECV % (step * num_chunks + chunk, chunk, peer, step))
            elif op is OpCode.RECV_REDUCE:
                append(_RECV_REDUCE % (step * num_chunks + chunk, chunk, peer, step, chunk, chunk))
            elif op is OpCode.BARRIER:
                append(_BARRIER % (step,))
            else:
                raise CodegenError(f"unknown opcode {op}")
        append("        break;\n    }\n")
    append("    }\n}\n")
    append(_emit_host_launcher(program))
    return "".join(parts)


def _emit_host_launcher(program: Program) -> str:
    """Host-side launcher: one process per GPU, IPC handle exchange."""
    lines = [
        "\n// Host-side launcher (one process per GPU).",
        "void launch(int rank, float* local, float* staging, Peer* peers,",
        "            volatile unsigned int* flags, size_t chunk_bytes, cudaStream_t stream) {",
    ]
    if program.protocol.startswith("multi_kernel"):
        lines.append(f"    for (int step = 0; step < {program.num_steps}; ++step) {{")
        lines.append(
            "        sccl_kernel<<<1, 256, 0, stream>>>(rank, local, staging, peers, flags, chunk_bytes);"
        )
        lines.append("        cudaStreamSynchronize(stream);  // global synchronization between steps")
        lines.append("    }")
    else:
        lines.append(
            "    sccl_kernel<<<1, 256, 0, stream>>>(rank, local, staging, peers, flags, chunk_bytes);"
        )
        lines.append("    cudaStreamSynchronize(stream);")
    lines.append("}")
    return "\n".join(lines) + "\n"
