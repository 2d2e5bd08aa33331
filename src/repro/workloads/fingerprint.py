"""Stable content hashing for compile requests and their parts.

The sharded result cache (shared by the experiment runner and the
compile service) and the unified-baseline duplicate guard need
*content* identities: two requests hash equal iff they would compile
identically.  Three ingredient fingerprints cover everything the
compiler reads —

* :func:`ddg_fingerprint` — node ids, opcodes, (possibly overridden)
  latencies, and the full edge list with distances; the loop's display
  name is deliberately excluded so a renamed-but-identical loop keeps
  its identity;
* :func:`machine_fingerprint` — cluster count, unit mix capacities,
  interconnect kind, GP flag;
* :func:`config_fingerprint` — every knob of an
  :class:`~repro.core.variants.AssignmentConfig`;

and :func:`compile_fingerprint` combines them into the identity of one
(loop, machine, config) compile request — the key of every
:mod:`repro.service.cache` entry.  Its ``extra`` field carries anything
else a cached record depends on: the experiment runner passes the
:func:`lint_fingerprint` and :func:`certify_fingerprint` of its gates
plus a record-kind tag.

Fingerprints are hex SHA-256 digests of canonical JSON documents, so
they are stable across processes, Python versions, and hash seeds —
safe to use as cache file names.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Optional

from ..ddg.graph import Ddg


def _digest(doc) -> str:
    payload = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def ddg_fingerprint(ddg: Ddg) -> str:
    """Hex digest of the loop's compiler-visible content.

    Node names are included (they are part of the canonical textual
    format) but the loop's own ``name`` is not: identity follows the
    graph, not the label.
    """
    return _digest({
        "nodes": [
            [node.node_id, node.opcode.value, node.latency, node.name]
            for node in ddg.nodes
        ],
        "edges": [
            [edge.src, edge.dst, edge.distance] for edge in ddg.edges
        ],
    })


def machine_fingerprint(machine) -> str:
    """Hex digest of everything the compiler reads from a machine."""
    return _digest({
        "name": machine.name,
        "clusters": machine.n_clusters,
        "gp": machine.general_purpose,
        "interconnect": type(machine.interconnect).__name__,
        "caps": sorted(
            (str(key), value)
            for key, value in machine.resource_capacities().items()
        ),
    })


def config_fingerprint(config) -> str:
    """Hex digest of an assignment configuration's knobs."""
    return _digest(dataclasses.asdict(config))


def lint_fingerprint(lint_config) -> Optional[str]:
    """Hex digest of a lint gate: its configuration and the registered
    rule catalog (None when no gate).

    The catalog is part of the identity because a cached outcome
    replays the codes the rules of its day emitted; an entry recorded
    before a rule was added or deleted must not be replayed after.
    """
    if lint_config is None:
        return None
    from ..lint.registry import all_rules

    return _digest({
        "rules": [rule.code for rule in all_rules()],
        "disable": sorted(lint_config.disable),
        "select": sorted(lint_config.select),
        "severity": dict(sorted(lint_config.severity.items())),
        "strict": lint_config.strict,
    })


def certify_fingerprint(certify_config) -> Optional[str]:
    """Hex digest of a certify gate's configuration (None when off)."""
    if certify_config is None:
        return None
    return _digest({
        "strict": certify_config.strict,
        "exact": certify_config.exact,
        "node_budget": certify_config.exact_node_budget,
        "backtrack_budget": certify_config.exact_backtrack_budget,
    })


def compile_fingerprint(ddg: Ddg, machine, config, extra=None) -> str:
    """Identity of one compile request: loop + machine + config (+ any
    ``extra`` JSON-serializable gate facts).

    The loop's display name *is* included here (unlike
    :func:`ddg_fingerprint` alone): request-level caches key outcomes
    that carry the name, and two same-content loops under different
    names must not replay each other's records.
    """
    return _digest({
        "loop": ddg.name,
        "ddg": ddg_fingerprint(ddg),
        "machine": machine_fingerprint(machine),
        "config": config_fingerprint(config),
        "extra": extra,
    })
