"""Worker-side task registry for the fork-server pool.

Every unit of work the pool can execute is a named function here, so

* the parent never pickles callables — a task message carries only the
  registry name plus a picklable payload;
* workers stay **warm**: this module imports the whole compile pipeline
  at import time and :func:`prewarm` builds every standard machine
  preset once, so a fork-server worker (which inherits the warm parent
  image) or a spawned worker (which pays the cost once at startup)
  serves every subsequent request from hot module and preset state.

Registered tasks:

``ping``
    Health/warm-up probe; returns the worker's pid and warm flag.
``sleep``
    Block the worker for N seconds — the deadline/drain test probe.
``engine_chunk``
    One chunk of experiment loops
    (:func:`repro.analysis.experiment._run_chunk`).
``lint_loop``
    Deep-lint one loop (the ``repro lint --workers`` unit).
``certify_loop``
    Compile + certify one loop (the ``repro certify --workers`` unit).
``compile_batch``
    One front-door micro-batch of compile requests
    (:mod:`repro.service.frontdoor`).
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Tuple

# Imported eagerly so fork-server children inherit a warm interpreter
# image and spawned workers front-load the cost before their first task.
from ..core.driver import CompilationError, compile_loop
from ..core.variants import ALL_VARIANTS, AssignmentConfig
from ..machine.machine import Machine
from ..machine.presets import STANDARD_PRESETS

#: Slugged variant name ("heuristic-iterative") → AssignmentConfig; the
#: same naming the CLI exposes.
VARIANTS: Dict[str, AssignmentConfig] = {
    config.name.lower().replace(" ", "-"): config
    for config in ALL_VARIANTS
}

_PRESETS: Dict[str, Machine] = {}
_WARM = False
_WARM_LOCK = threading.Lock()


def prewarm() -> None:
    """Build every standard machine preset once (idempotent).

    Lock-guarded double-checked warm-up: the front door's threads and
    a worker's first task may race here.
    """
    global _WARM
    if _WARM:
        return
    with _WARM_LOCK:
        if _WARM:
            return
        for name, build in STANDARD_PRESETS.items():
            _PRESETS[name] = build()
        # Per-process warm cache is the point: each worker warms its
        # own presets once and never shares them back.
        _WARM = True


def resolve_machine(ref) -> Machine:
    """A concrete machine from a preset name or a pickled Machine."""
    if isinstance(ref, str):
        prewarm()
        try:
            return _PRESETS[ref]
        except KeyError:
            raise ValueError(
                f"unknown machine preset {ref!r}; choose from "
                f"{sorted(_PRESETS)}"
            )
    return ref


def resolve_variant(ref) -> AssignmentConfig:
    """A concrete config from a slug name or a pickled config."""
    if isinstance(ref, str):
        try:
            return VARIANTS[ref]
        except KeyError:
            raise ValueError(
                f"unknown variant {ref!r}; choose from {sorted(VARIANTS)}"
            )
    return ref


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
def ping(payload) -> Dict[str, object]:
    """Warm-up / health probe."""
    prewarm()
    return {"pid": os.getpid(), "warm": _WARM, "echo": payload}


def sleep(payload) -> float:
    """Block the worker for ``payload`` seconds (deadline/drain probe)."""
    import time

    seconds = float(payload)
    time.sleep(seconds)
    return seconds


def engine_chunk(payload):
    """One chunk of experiment loops (imported lazily: the runner
    imports the pool, so a module-level import here would be a cycle)."""
    from ..analysis.experiment import _run_chunk

    return _run_chunk(payload)


def lint_loop(payload):
    """Deep-lint one loop: payload is (ddg, machine, config, variant)."""
    from ..lint import lint_loop_deep

    ddg, machine, config, variant = payload
    return lint_loop_deep(ddg, machine, config, variant)


def certify_loop(payload):
    """Compile + certify one loop into a lint-style report."""
    from ..certify.gate import certify_loop_report

    ddg, machine, variant, certify_config, severity = payload
    return certify_loop_report(
        ddg, machine, variant, certify_config, severity
    )


def compile_batch(
    payload: List[Tuple],
) -> List[Dict[str, object]]:
    """One front-door micro-batch: compile each request in order.

    Each item is ``(ddg, machine_ref, variant_ref, verify)``; machine /
    variant refs may be preset/slug names (resolved against the warm
    tables) or pickled objects.  Replies mirror the serial reference's
    exception taxonomy so service outcomes stay bit-identical to a
    direct :func:`repro.core.driver.compile_loop` call.
    """
    replies: List[Dict[str, object]] = []
    for ddg, machine_ref, variant_ref, verify in payload:
        machine = resolve_machine(machine_ref)
        config = resolve_variant(variant_ref)
        try:
            compiled = compile_loop(
                ddg, machine, config=config, verify=verify
            )
        except CompilationError as exc:
            replies.append({
                "loop": ddg.name, "status": "failed",
                "ii": 0, "mii": 0, "copies": 0, "error": str(exc),
            })
        except ValueError as exc:
            replies.append({
                "loop": ddg.name, "status": "failed",
                "ii": 0, "mii": 0, "copies": 0,
                "error": f"invalid loop: {exc}",
            })
        else:
            replies.append({
                "loop": ddg.name, "status": "ok",
                "ii": compiled.ii, "mii": compiled.mii,
                "copies": compiled.copy_count, "error": "",
            })
    return replies


TASKS: Dict[str, Callable] = {
    "ping": ping,
    "sleep": sleep,
    "engine_chunk": engine_chunk,
    "lint_loop": lint_loop,
    "certify_loop": certify_loop,
    "compile_batch": compile_batch,
}


def resolve(name: str) -> Callable:
    """The registered task function for ``name`` (KeyError if unknown)."""
    return TASKS[name]
