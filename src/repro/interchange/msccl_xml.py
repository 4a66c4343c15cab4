"""MSCCL-style XML interchange for synthesized algorithms.

The real SCCL/MSCCL toolchain ships synthesized schedules to the GPU runtime
as an XML document: one ``<algo>`` element with per-``<gpu>`` threadblocks
(``<tb>``) whose ``<step>`` children are send / recv / recv-reduce
operations.  This module emits and parses that shape for
:class:`~repro.core.algorithm.Algorithm`:

* :func:`to_msccl_xml` lowers the algorithm through
  :func:`repro.runtime.lowering.lower` (so the emitted ops are exactly the
  per-rank SEND / RECV / RECV_REDUCE instructions the runtime would execute),
  assigns one threadblock per communicating peer and writes the document as
  text in that one walk; ElementTree is used for parsing only.
* :func:`from_msccl_xml` parses a document back into an ``Algorithm``,
  cross-checks every send against a matching receive, rebuilds the pre/post
  placements from the collective specification
  (:mod:`repro.interchange.checks` — the file's placements are never
  trusted) and re-verifies the schedule before returning it.

Two extension elements make the documents self-contained where MSCCL relies
on out-of-band context: ``<topology>`` embeds the bandwidth relation and
``<schedule>`` records the per-step round counts (MSCCL has no notion of
the paper's k-synchronous rounds).  Step attributes follow MSCCL
conventions: ``type`` is ``s`` (send), ``r`` (recv) or ``rrc``
(recv-reduce), offsets are chunk ids, ``srcbuf``/``dstbuf`` are ``i``
(input) or ``o`` (output), and the dependency attributes are emitted in
their flag-synchronized defaults.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..collectives import CollectiveError, get_collective
from ..core.algorithm import Algorithm, Send, Step
from ..topology import BandwidthConstraint, Topology
from .checks import InterchangeError, infer_root, verify_against_spec

#: Version of the XML dialect emitted by this module.
XML_FORMAT_VERSION = 1

_SEND_TYPE = "s"
_RECV_TYPES = {"r": "copy", "rrc": "reduce"}

# "&" first: the entities themselves contain it.
_ATTR_ENTITIES = (
    ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
    ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;"),
)


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------
def to_msccl_xml(algorithm: Algorithm, *, protocol: str = "single_kernel_push") -> str:
    """Serialize an algorithm as an MSCCL-style XML document.

    The algorithm is lowered first, and lowering verifies it (in full unless
    this very content was verified before), so an invalid schedule can never
    be emitted.  The text is written directly, two spaces per level, in the
    layout ``ElementTree.indent`` + ``tostring`` give the same tree — the
    tests hold the writer to that, byte for byte.
    """
    from ..runtime.lowering import lower
    from ..runtime.program import OpCode

    spec = get_collective(algorithm.collective)
    root_node = infer_root(algorithm)
    program = lower(algorithm, protocol=protocol)
    topology = algorithm.topology
    num_gpus = topology.num_nodes

    lines = [
        f'<algo name="{_escape_attr(algorithm.name)}" coll="{spec.name.lower()}" '
        f'proto="Simple" protocol="{_escape_attr(protocol)}" nchannels="1" '
        f'ngpus="{num_gpus}" nchunksperloop="{algorithm.num_chunks}" '
        f'chunks_per_node="{algorithm.chunks_per_node}" nsteps="{algorithm.num_steps}" '
        f'nrounds="{algorithm.total_rounds}" root="{root_node}" '
        f'combining="{1 if algorithm.combining else 0}" version="{XML_FORMAT_VERSION}">'
    ]

    constraint_lines: List[str] = []
    for constraint in topology.constraints:
        constraint_lines += _element(
            "    ", "constraint",
            f' bandwidth="{constraint.bandwidth}" name="{_escape_attr(constraint.name)}"',
            [f'      <link src="{src}" dst="{dst}" />'
             for (src, dst) in sorted(constraint.links)],
        )
    lines += _element(
        "  ", "topology",
        f' name="{_escape_attr(topology.name)}" nodes="{num_gpus}" '
        f'alpha="{_escape_attr(repr(topology.alpha))}" '
        f'beta="{_escape_attr(repr(topology.beta))}"',
        constraint_lines,
    )
    lines += _element(
        "  ", "schedule", "",
        [f'    <phase id="{index}" rounds="{step.rounds}" />'
         for index, step in enumerate(algorithm.steps)],
    )

    precondition = algorithm.precondition
    send_op, reduce_op, barrier_op = OpCode.SEND, OpCode.RECV_REDUCE, OpCode.BARRIER
    for gpu, instructions in enumerate(program.ranks):
        # One threadblock per communicating peer, as the MSCCL runtime binds a
        # threadblock to a (send-peer, recv-peer) connection pair.  Per peer:
        # (step, order-within-step: sends first, chunk, type, who held the chunk)
        peers: Dict[int, List[tuple]] = {}
        for op, chunk, peer, step in instructions:
            if op is send_op:
                peers.setdefault(peer, []).append((step, 0, chunk, _SEND_TYPE, gpu))
            elif op is not barrier_op:
                peers.setdefault(peer, []).append(
                    (step, 1, chunk, "rrc" if op is reduce_op else "r", peer)
                )
        tb_lines: List[str] = []
        for tb_id, peer in enumerate(sorted(peers)):
            ops = sorted(peers[peer])
            kinds = {entry[1] for entry in ops}
            tb_lines.append(
                f'    <tb id="{tb_id}" send="{peer if 0 in kinds else -1}" '
                f'recv="{peer if 1 in kinds else -1}" chan="0">'
            )
            tb_lines.extend(
                f'      <step s="{step}" type="{op_type}" '
                f'srcbuf="{"i" if (chunk, holder) in precondition else "o"}" '
                f'srcoff="{chunk}" dstbuf="o" dstoff="{chunk}" cnt="1" depid="-1" '
                f'deps="-1" hasdep="0" />'
                for step, _, chunk, op_type, holder in ops
            )
            tb_lines.append("    </tb>")
        lines += _element("  ", "gpu", f' id="{gpu}"', tb_lines)

    lines.append("</algo>\n")
    return "\n".join(lines)


def _element(indent: str, tag: str, attrs: str, children: List[str]) -> List[str]:
    """An element's lines; self-closing without children, as ElementTree writes it."""
    if not children:
        return [f"{indent}<{tag}{attrs} />"]
    return [f"{indent}<{tag}{attrs}>", *children, f"{indent}</{tag}>"]


def _escape_attr(text: str) -> str:
    """Escape a free-text attribute value exactly as ElementTree does."""
    for char, entity in _ATTR_ENTITIES:
        if char in text:
            text = text.replace(char, entity)
    return text


def write_msccl_xml(algorithm: Algorithm, path) -> Path:
    """Emit an algorithm to ``path``, atomically; returns the path written."""
    from ..engine.cache import atomic_write

    destination = Path(path)
    atomic_write(destination, to_msccl_xml(algorithm))
    return destination


# ----------------------------------------------------------------------
# Import
# ----------------------------------------------------------------------
def from_msccl_xml(text: str, *, topology: Optional[Topology] = None) -> Algorithm:
    """Parse an MSCCL-style XML document into a verified :class:`Algorithm`.

    ``topology`` overrides the embedded ``<topology>`` element (the node
    count must agree with ``ngpus``).  Every send must have exactly one
    matching receive on the destination GPU, the placements are rebuilt from
    the collective specification, and the schedule is re-verified — a
    foreign document cannot inject an invalid schedule.  A step that moves
    more than one chunk (``cnt`` other than 1) or lands at another offset
    than it left (``dstoff`` other than ``srcoff``) is rejected, not read as
    the single same-offset transfer a :class:`Send` can express.
    """
    try:
        algo = ET.fromstring(text)
    except ET.ParseError as exc:
        raise InterchangeError(f"malformed XML: {exc}") from exc
    if algo.tag != "algo":
        raise InterchangeError(f"expected an <algo> document, got <{algo.tag}>")
    version = _int_attr(algo, "version", default=XML_FORMAT_VERSION)
    if version != XML_FORMAT_VERSION:
        raise InterchangeError(f"unsupported interchange version {version}")

    coll_name = algo.get("coll", "")
    try:
        spec = get_collective(coll_name)
    except CollectiveError as exc:
        raise InterchangeError(str(exc)) from exc

    num_gpus = _int_attr(algo, "ngpus")
    num_chunks = _int_attr(algo, "nchunksperloop")
    chunks_per_node = _int_attr(algo, "chunks_per_node")
    num_steps = _int_attr(algo, "nsteps")
    root = _int_attr(algo, "root", default=0)
    for attr, value in (("ngpus", num_gpus), ("nchunksperloop", num_chunks),
                        ("nsteps", num_steps)):
        if value < 0:
            raise InterchangeError(f"<algo {attr}={value}> is negative")
    # Everything below allocates per step: nsteps must be a number the
    # document's own content accounts for, not just one it declares.
    described = _described_steps(algo)
    if num_steps > described:
        raise InterchangeError(
            f"the document declares nsteps={num_steps} but describes only "
            f"{described} step(s)"
        )

    if topology is None:
        topo_el = algo.find("topology")
        if topo_el is None:
            raise InterchangeError(
                "document embeds no <topology> and none was supplied"
            )
        topology = _parse_topology(topo_el)
    if topology.num_nodes != num_gpus:
        raise InterchangeError(
            f"topology has {topology.num_nodes} nodes but the document "
            f"declares ngpus={num_gpus}"
        )

    rounds = _parse_schedule(algo, num_steps)
    declared_rounds = _int_attr(algo, "nrounds", default=sum(rounds))
    if sum(rounds) != declared_rounds:
        raise InterchangeError(
            f"schedule sums to {sum(rounds)} rounds but the document declares "
            f"nrounds={declared_rounds}"
        )
    sends, recvs = _collect_operations(algo, num_gpus, num_chunks, num_steps)

    # Cross-check: every send is received exactly once (and vice versa), and
    # the receive's type decides the op.  MSCCL files with orphaned steps are
    # rejected rather than silently repaired.
    step_sends: List[List[Send]] = [[] for _ in range(num_steps)]
    for key, send_count in sends.items():
        recv_op = recvs.pop(key, None)
        if recv_op is None or send_count != 1:
            step, chunk, src, dst = key
            raise InterchangeError(
                f"step {step}: send of chunk {chunk} on {src}->{dst} has "
                f"{'no' if recv_op is None else 'duplicate'} matching receive"
            )
        step, chunk, src, dst = key
        step_sends[step].append(Send(chunk=chunk, src=src, dst=dst, op=recv_op))
    if recvs:
        (step, chunk, src, dst) = next(iter(recvs))
        raise InterchangeError(
            f"step {step}: receive of chunk {chunk} on {src}->{dst} has no "
            f"matching send"
        )

    try:
        expected_pre, expected_post = spec.placements(
            num_gpus, chunks_per_node, root=root
        )
    except CollectiveError as exc:
        raise InterchangeError(str(exc)) from exc

    algorithm = Algorithm(
        name=algo.get("name", f"{spec.name.lower()}_imported"),
        collective=spec.name,
        topology=topology,
        chunks_per_node=chunks_per_node,
        num_chunks=num_chunks,
        precondition=expected_pre,
        postcondition=expected_post,
        steps=[
            Step(
                rounds=rounds[index],
                sends=tuple(
                    sorted(step_sends[index], key=lambda s: (s.src, s.dst, s.chunk))
                ),
            )
            for index in range(num_steps)
        ],
        combining=spec.combining,
        metadata={"imported_from": "msccl_xml"},
    )
    verify_against_spec(algorithm, root=root)
    return algorithm


def read_msccl_xml(path, *, topology: Optional[Topology] = None) -> Algorithm:
    """Read and verify an algorithm from an XML file."""
    return from_msccl_xml(Path(path).read_text(encoding="utf-8"), topology=topology)


# ----------------------------------------------------------------------
# Parsing helpers
# ----------------------------------------------------------------------
def _int_attr(element: ET.Element, attr: str, default: Optional[int] = None) -> int:
    raw = element.get(attr)
    if raw is None:
        if default is not None:
            return default
        raise InterchangeError(f"<{element.tag}> is missing the {attr!r} attribute")
    try:
        return int(raw)
    except ValueError as exc:
        raise InterchangeError(f"<{element.tag} {attr}={raw!r}> is not an integer") from exc


def _parse_topology(element: ET.Element) -> Topology:
    constraints = []
    for constraint_el in element.findall("constraint"):
        links = frozenset(
            (_int_attr(link, "src"), _int_attr(link, "dst"))
            for link in constraint_el.findall("link")
        )
        constraints.append(
            BandwidthConstraint(
                links, _int_attr(constraint_el, "bandwidth"), constraint_el.get("name", "")
            )
        )
    try:
        return Topology(
            name=element.get("name", "imported"),
            num_nodes=_int_attr(element, "nodes"),
            constraints=constraints,
            alpha=float(element.get("alpha", 5e-6)),
            beta=float(element.get("beta", 1.0 / 25e9)),
        )
    except Exception as exc:
        raise InterchangeError(f"invalid embedded topology: {exc}") from exc


def _described_steps(algo: ET.Element) -> int:
    """How many steps the document's content can justify.

    The ``<phase>`` count when the ``<schedule>`` extension is present,
    otherwise the largest ``s`` attribute of any ``<step>`` plus one.
    """
    schedule = algo.find("schedule")
    if schedule is not None:
        return len(schedule.findall("phase"))
    return 1 + max((_int_attr(step_el, "s") for step_el in algo.iter("step")), default=-1)


def _parse_schedule(algo: ET.Element, num_steps: int) -> List[int]:
    schedule = algo.find("schedule")
    if schedule is None:
        # MSCCL documents without the extension element: every step is one round.
        return [1] * num_steps
    rounds = [0] * num_steps
    seen: set = set()
    for phase in schedule.findall("phase"):
        index = _int_attr(phase, "id")
        if not 0 <= index < num_steps or index in seen:
            raise InterchangeError(f"schedule phase id {index} invalid or duplicated")
        seen.add(index)
        rounds[index] = _int_attr(phase, "rounds")
        if rounds[index] < 1:
            raise InterchangeError(f"schedule phase {index} has rounds < 1")
    if len(seen) != num_steps:
        raise InterchangeError(
            f"schedule covers {len(seen)} of {num_steps} steps"
        )
    return rounds


def _collect_operations(
    algo: ET.Element, num_gpus: int, num_chunks: int, num_steps: int
) -> Tuple[Dict[Tuple[int, int, int, int], int], Dict[Tuple[int, int, int, int], str]]:
    """Gather (step, chunk, src, dst) send counts and receive ops."""
    sends: Dict[Tuple[int, int, int, int], int] = {}
    recvs: Dict[Tuple[int, int, int, int], str] = {}
    for gpu_el in algo.findall("gpu"):
        gpu = _int_attr(gpu_el, "id")
        if not 0 <= gpu < num_gpus:
            raise InterchangeError(f"gpu id {gpu} out of range [0, {num_gpus})")
        for tb_el in gpu_el.findall("tb"):
            send_peer = _int_attr(tb_el, "send", default=-1)
            recv_peer = _int_attr(tb_el, "recv", default=-1)
            for step_el in tb_el.findall("step"):
                attrib = step_el.attrib
                try:
                    step = int(attrib["s"])
                    chunk = int(attrib["srcoff"])
                except (KeyError, ValueError):  # _int_attr raises the error text
                    step = _int_attr(step_el, "s")
                    chunk = _int_attr(step_el, "srcoff")
                op_type = attrib.get("type", "")
                # One chunk, same slot on both sides, is all a Send can say;
                # anything else would be imported as a different schedule.
                # (The text is compared first: the usual spelling needs no parse.)
                if attrib.get("cnt", "1") != "1" and _int_attr(step_el, "cnt") != 1:
                    raise InterchangeError(
                        f"gpu {gpu}: step {step} has cnt="
                        f"{attrib.get('cnt')!r}; only single-chunk steps are supported"
                    )
                dstoff = attrib.get("dstoff")
                if (dstoff is not None and dstoff != attrib["srcoff"]
                        and _int_attr(step_el, "dstoff") != chunk):
                    raise InterchangeError(
                        f"gpu {gpu}: step {step} has dstoff={dstoff!r} but "
                        f"srcoff={chunk}; a transfer between different offsets is "
                        f"not supported"
                    )
                if not 0 <= step < num_steps:
                    raise InterchangeError(
                        f"gpu {gpu}: step index {step} out of range"
                    )
                if not 0 <= chunk < num_chunks:
                    raise InterchangeError(
                        f"gpu {gpu}: chunk {chunk} out of range [0, {num_chunks})"
                    )
                if op_type == _SEND_TYPE:
                    if not 0 <= send_peer < num_gpus:
                        raise InterchangeError(
                            f"gpu {gpu}: send step in a threadblock with no send peer"
                        )
                    key = (step, chunk, gpu, send_peer)
                    sends[key] = sends.get(key, 0) + 1
                elif op_type in _RECV_TYPES:
                    if not 0 <= recv_peer < num_gpus:
                        raise InterchangeError(
                            f"gpu {gpu}: recv step in a threadblock with no recv peer"
                        )
                    key = (step, chunk, recv_peer, gpu)
                    if key in recvs:
                        raise InterchangeError(
                            f"gpu {gpu}: duplicate receive of chunk {chunk} at step "
                            f"{step}"
                        )
                    recvs[key] = _RECV_TYPES[op_type]
                else:
                    raise InterchangeError(
                        f"gpu {gpu}: unknown step type {op_type!r}"
                    )
    return sends, recvs
