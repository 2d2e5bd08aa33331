"""repro — Effective Cluster Assignment for Modulo Scheduling.

A faithful reimplementation of Nystrom & Eichenberger (MICRO-31, 1998):
a pre-scheduling cluster assignment phase that lets any traditional
modulo scheduler produce efficient software pipelines for clustered VLIW
machines with explicit inter-cluster copies.

Quick start::

    from repro import build_ddg, Opcode, two_cluster_gp, compile_loop

    loop = build_ddg(
        ops=[("a", Opcode.LOAD), ("b", Opcode.FP_MULT), ("c", Opcode.STORE)],
        deps=[("a", "b", 0), ("b", "c", 0)],
    )
    result = compile_loop(loop, two_cluster_gp())
    print(result.ii, result.copy_count)
    print(result.schedule.format_kernel())
"""

from . import obs
from .core import (
    ALL_VARIANTS,
    HEURISTIC,
    HEURISTIC_ITERATIVE,
    SIMPLE,
    SIMPLE_ITERATIVE,
    AssignmentConfig,
    CompilationError,
    CompiledLoop,
    assign_clusters,
    compile_loop,
)
from .ddg import (
    AnnotatedDdg,
    Ddg,
    Edge,
    FuClass,
    Node,
    Opcode,
    build_ddg,
    find_sccs,
    mii,
    rec_mii,
    ValidationError,
    res_mii,
    trivial_annotation,
    validate_loop,
)
from .machine import (
    BusInterconnect,
    ClusterSpec,
    Machine,
    PointToPointInterconnect,
    UnitMix,
    bused_machine,
    four_cluster_fs,
    four_cluster_gp,
    four_cluster_grid,
    fs_units,
    gp_units,
    n_cluster_gp,
    two_cluster_fs,
    two_cluster_gp,
    unified_fs,
    unified_gp,
    validate_machine,
)
from .scheduling import (
    Schedule,
    stage_schedule,
    assert_valid,
    check_schedule,
    modulo_schedule,
)
from .sim import assert_executes_correctly, simulate_schedule

__version__ = "1.0.0"

__all__ = [
    "ALL_VARIANTS",
    "AnnotatedDdg",
    "AssignmentConfig",
    "BusInterconnect",
    "ClusterSpec",
    "CompilationError",
    "CompiledLoop",
    "Ddg",
    "Edge",
    "FuClass",
    "HEURISTIC",
    "HEURISTIC_ITERATIVE",
    "Machine",
    "Node",
    "Opcode",
    "PointToPointInterconnect",
    "SIMPLE",
    "SIMPLE_ITERATIVE",
    "Schedule",
    "UnitMix",
    "ValidationError",
    "assert_executes_correctly",
    "assert_valid",
    "assign_clusters",
    "build_ddg",
    "bused_machine",
    "check_schedule",
    "compile_loop",
    "find_sccs",
    "four_cluster_fs",
    "four_cluster_gp",
    "four_cluster_grid",
    "fs_units",
    "gp_units",
    "mii",
    "modulo_schedule",
    "n_cluster_gp",
    "rec_mii",
    "res_mii",
    "simulate_schedule",
    "stage_schedule",
    "trivial_annotation",
    "two_cluster_fs",
    "two_cluster_gp",
    "unified_fs",
    "unified_gp",
    "validate_loop",
    "validate_machine",
]
