"""The loop validator: a loop no II can satisfy fails before attempt 1.

:func:`validate_loop` runs first in :func:`repro.core.driver.compile_loop`
and raises a :class:`ValidationError` naming the defect's lint code
(``docs/LINTING.md``): DDG101 (an edge endpoint that is not a node),
DDG103 (a dependence cycle of zero total distance), DDG107 (a negative
distance), DDG108 (a negative latency), DDG109 (an input ``COPY``) or
MACH202 (an operation class no cluster has a unit for).  The
constructors that refuse a defect (:meth:`Ddg.add_edge`, :class:`Edge`),
``rec_mii``, ``res_mii`` and lint's error rules go through the helpers
below, so each condition is written once.  :mod:`repro.machine.validate`
is the machine's counterpart.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from .opcodes import Opcode
from .view import cyclic_components, scc_components


class ValidationError(ValueError):
    """A loop or machine no compile can succeed on.

    ``code`` is the lint code of the defect (``DDG103``, ``MACH203``,
    ...), ``location`` where it sits (``node 3``, ``clusters 0<->1``)
    and ``detail`` what is wrong there.
    """

    def __init__(self, code: str, location: str, detail: str) -> None:
        super().__init__(f"{code} {location}: {detail}")
        self.code = code
        self.location = location
        self.detail = detail

    def __reduce__(self):
        return type(self), (self.code, self.location, self.detail)


def _edge(src: int, dst: int, distance: int) -> str:
    return f"edge {src}->{dst}@{distance}"


def missing_endpoint(nodes, src: int, dst: int, distance: int
                     ) -> Optional[ValidationError]:
    """DDG101: an endpoint of the edge that is not in ``nodes``."""
    if src in nodes and dst in nodes:
        return None
    role, node = ("source", src) if src not in nodes else (
        "destination", dst)
    return ValidationError(
        "DDG101", _edge(src, dst, distance),
        f"{role} node {node} does not exist",
    )


def negative_distance(src: int, dst: int, distance: int
                      ) -> Optional[ValidationError]:
    """DDG107: a distance below 0 (values cannot flow to earlier
    iterations)."""
    if distance >= 0:
        return None
    return ValidationError(
        "DDG107", _edge(src, dst, distance),
        f"negative distance {distance}",
    )


def zero_distance_cycles(
    nodes: Iterable[int], edges: Iterable[Tuple[int, int, int, int]]
) -> Iterator[ValidationError]:
    """DDG103: each cycle of distance-0 edges among ``nodes``.

    ``edges`` are ``(src, dst, latency, distance)`` tuples; those with
    an endpoint outside ``nodes`` are ignored.  Such a cycle makes the
    loop body depend on its own same-iteration result, which no II can
    satisfy.
    """
    succs: dict = {node: [] for node in nodes}
    for src, dst, _, distance in edges:
        if distance == 0 and src in succs and dst in succs:
            succs[src].append(dst)
    for component in cyclic_components(tuple(succs), succs):
        yield ValidationError(
            "DDG103", f"nodes {sorted(component)}",
            "dependence cycle with zero total distance: the loop body "
            "depends on its own same-iteration result",
        )


def unsupported_fu_class(machine, fu_class) -> Optional[ValidationError]:
    """MACH202: ``machine`` has no unit for ``fu_class`` operations."""
    if machine.issue_capacity(fu_class) > 0:
        return None
    return ValidationError(
        "MACH202", f"fu-class {fu_class.value}",
        f"no cluster has a unit for {fu_class.value} operations",
    )


def _found(errors: Iterable[Optional[ValidationError]]
           ) -> List[ValidationError]:
    return [error for error in errors if error is not None]


def find_graph_defects(ddg) -> List[ValidationError]:
    """Every DDG101, DDG107, DDG108, DDG109 and DDG103 defect of
    ``ddg``, read from its raw node and edge lists (use the memoized
    :meth:`Ddg.defects`).  DDG103 is searched inside the SCCs of the
    compiled view, which needs every edge to land on a node, so only
    once DDG101 is clean."""
    edges, nodes = ddg.edges, ddg.nodes
    ids = set(ddg.node_ids)
    dangling = _found(
        missing_endpoint(ids, e.src, e.dst, e.distance) for e in edges
    )
    defects = dangling + _found(
        negative_distance(e.src, e.dst, e.distance) for e in edges
    )
    defects += [
        ValidationError("DDG108", f"node {node.node_id}",
                        f"{node} has negative latency {node.latency}")
        for node in nodes if node.latency < 0
    ]
    defects += [
        ValidationError("DDG109", f"node {node.node_id}",
                        f"{node} is a copy: copies are inserted by "
                        f"cluster assignment, never part of an input loop")
        for node in nodes if node.opcode is Opcode.COPY
    ]
    if not dangling:
        view = ddg.view()
        for component in scc_components(ddg):
            cycles = list(zero_distance_cycles(component, view.edge_array))
            defects += cycles
            if not cycles:  # rec_mii need not search it again
                view.recmii_validated.add(component)
    return defects


def validate_loop(ddg, machine) -> None:
    """Raise the first :class:`ValidationError` that makes ``ddg``
    uncompilable on ``machine``: a graph defect (:meth:`Ddg.defects`),
    then an operation class the machine has no unit for (MACH202)."""
    defects = ddg.defects()
    if defects:
        raise defects[0]
    from .mii import op_demand  # mii imports this module

    for fu_class in op_demand(ddg):
        error = unsupported_fu_class(machine, fu_class)
        if error is not None:
            raise error
