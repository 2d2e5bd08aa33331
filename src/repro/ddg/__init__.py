"""Loop data dependence graphs: operations, edges, SCCs, MII."""

from .graph import Ddg, Edge, Node, build_ddg
from .mii import (
    mii,
    op_demand,
    rec_mii,
    rec_mii_exceeds,
    rec_mii_of_subgraph,
    res_mii,
)
from .view import DdgView, scc_components
from .opcodes import (
    FuClass,
    Opcode,
    OpcodeInfo,
    all_opcode_info,
    fu_class_of,
    latency_of,
    produces_value,
)
from .dot import annotated_to_dot, ddg_to_dot
from .parse import LoopParseError, format_loop, parse_loop
from .scc import Scc, SccPartition, find_sccs
from .transform import AnnotatedDdg, trivial_annotation
from .validate import ValidationError, validate_loop

__all__ = [
    "AnnotatedDdg",
    "Ddg",
    "DdgView",
    "Edge",
    "FuClass",
    "Node",
    "Opcode",
    "OpcodeInfo",
    "Scc",
    "SccPartition",
    "LoopParseError",
    "ValidationError",
    "all_opcode_info",
    "annotated_to_dot",
    "build_ddg",
    "ddg_to_dot",
    "find_sccs",
    "format_loop",
    "fu_class_of",
    "latency_of",
    "mii",
    "op_demand",
    "parse_loop",
    "produces_value",
    "rec_mii",
    "rec_mii_exceeds",
    "rec_mii_of_subgraph",
    "res_mii",
    "scc_components",
    "trivial_annotation",
    "validate_loop",
]
