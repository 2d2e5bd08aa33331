"""Rule registry and per-run configuration.

A *rule* checks one invariant of the compiler's inputs and reports
findings; an error rule reports the records of the input validators
(:mod:`repro.ddg.validate`, :mod:`repro.machine.validate`).  Rules are
registered with the :func:`rule` decorator under a stable code grouped
by family, and the family decides what the rule reads:

========== ======================================================
``DDG1xx``    graph well-formedness of the input DDG (reads the graph)
``MACH2xx``   machine-description consistency (reads the machine)
========== ======================================================

The compiled loop itself — annotated graph, schedule, register
allocation — is judged by :mod:`repro.certify`, not by lint rules.

A rule's check function receives ``(target, config)`` and yields
:class:`Finding` records; the engine wraps them into
:class:`~repro.lint.diagnostics.Diagnostic` objects, applying the
configured severity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple

from .diagnostics import CODE_RULE_CRASH, SEVERITIES

#: Rule families and what they inspect.
FAMILIES = {
    "DDG1": "DDG well-formedness",
    "MACH2": "machine description",
}

#: The :class:`~repro.lint.engine.LintTarget` artifact each family's
#: rules read, which their diagnostics also name.
_FAMILY_ARTIFACTS = {"DDG1": "ddg", "MACH2": "machine"}

_CODE = re.compile(rf"^({'|'.join(FAMILIES)})\d\d$")

#: Codes the engine itself emits (a rule crash); they may be demoted
#: with ``severity`` like any rule's code.
_META_CODES = (CODE_RULE_CRASH,)


class Finding(NamedTuple):
    """One raw finding of one rule (pre-severity, pre-code)."""

    location: str
    message: str
    hint: str = ""


CheckFn = Callable[..., Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis rule."""

    code: str
    name: str
    default_severity: str
    description: str
    check: CheckFn

    @property
    def family(self) -> str:
        """The family prefix of this rule's code (e.g. ``MACH2``)."""
        match = _CODE.match(self.code)
        return match.group(1) if match else self.code

    @property
    def artifact(self) -> str:
        """The artifact the rule reads off its target (``ddg`` or
        ``machine``), which its diagnostics name."""
        return _FAMILY_ARTIFACTS[self.family]


#: The global registry: code -> rule, populated by module import.
RULES: Dict[str, Rule] = {}

#: Memoized sorted view of ``RULES`` (rebuilt on registration).
_SORTED_RULES: "List[Rule]" = []

#: Memoized (disable, select, available) -> applicable rule tuple.
_APPLICABLE: Dict[tuple, tuple] = {}


def invalidate_rule_caches() -> None:
    """Drop the memoized rule views (call after mutating ``RULES``)."""
    _SORTED_RULES.clear()
    _APPLICABLE.clear()


def rule(
    code: str, name: str, severity: str, description: str
) -> Callable[[CheckFn], CheckFn]:
    """Register a check function under a stable diagnostic code."""
    if not _CODE.match(code):
        raise ValueError(f"malformed rule code {code!r}")
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r} for {code}")

    def decorate(check: CheckFn) -> CheckFn:
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        invalidate_rule_caches()
        RULES[code] = Rule(
            code=code,
            name=name,
            default_severity=severity,
            description=description,
            check=check,
        )
        return check

    return decorate


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code.

    The sorted view is memoized (linting runs per compiled loop, so
    this is on the ``--lint`` gate's hot path); registering a new rule
    invalidates it.
    """
    if not _SORTED_RULES:
        _load_rule_modules()
        _SORTED_RULES.extend(RULES[code] for code in sorted(RULES))
    return _SORTED_RULES


def applicable_rules(
    config: "LintConfig", available: FrozenSet[str]
) -> tuple:
    """Enabled rules whose artifact is in ``available``.

    Rule selection depends only on the config's select/disable sets
    and the target's artifacts, so the filtered tuple
    is memoized across targets — the ``--lint`` gate lints one target
    per compiled loop and would otherwise re-filter every rule each
    time.
    """
    key = (config.disable, config.select, available)
    cached = _APPLICABLE.get(key)
    if cached is None:
        cached = tuple(
            r for r in all_rules()
            if config.is_enabled(r) and r.artifact in available
        )
        _APPLICABLE[key] = cached
    return cached


def rules_in_family(prefix: str) -> List[Rule]:
    """Rules whose code starts with ``prefix`` (e.g. ``MACH2``)."""
    return [r for r in all_rules() if r.code.startswith(prefix)]


def _load_rule_modules() -> None:
    """Import every rules module so the registry is fully populated."""
    from . import (  # noqa: F401  (imported for registration side effect)
        rules_ddg,
        rules_machine,
    )


@dataclass(frozen=True)
class LintConfig:
    """Per-run rule selection and severity policy.

    ``disable`` wins over everything.  ``select``, when non-empty,
    restricts the run to rules whose code matches one of its entries —
    exactly (``DDG103``) or by family prefix (``DDG1``, ``MACH2``).
    ``severity`` maps rule codes to overridden severities.  A code that
    names no registered rule (nor, for ``disable`` and ``severity``,
    the engine's LINT001) raises ``ValueError``, so a misspelt
    or deleted code fails loudly instead of silently selecting nothing.
    The config is immutable and picklable so it can ride into
    experiment worker processes unchanged.
    """

    disable: FrozenSet[str] = frozenset()
    select: FrozenSet[str] = frozenset()
    severity: "Dict[str, str]" = field(default_factory=dict)
    #: Strict gates treat lint errors as compilation failures.
    strict: bool = False

    def __post_init__(self) -> None:
        for code, severity in self.severity.items():
            if severity not in SEVERITIES:
                raise ValueError(
                    f"unknown severity {severity!r} for {code}"
                )
        if not (self.disable or self.select or self.severity):
            return
        codes = [rule.code for rule in all_rules()]
        for code in sorted(self.disable | set(self.severity)):
            if code not in codes and code not in _META_CODES:
                raise ValueError(f"unknown lint code {code!r}")
        for prefix in sorted(self.select):
            if not any(code.startswith(prefix) for code in codes):
                raise ValueError(
                    f"{prefix!r} is not a prefix of any lint rule code"
                )

    def is_enabled(self, rule: Rule) -> bool:
        """Whether ``rule`` runs under this configuration."""
        if rule.code in self.disable:
            return False
        return not self.select or any(
            rule.code.startswith(prefix) for prefix in self.select
        )

    def severity_for(self, rule: Rule) -> str:
        """Effective severity of ``rule`` under this configuration."""
        return self.severity.get(rule.code, rule.default_severity)


#: The everything-on-defaults configuration used by gates and tests.
DEFAULT_CONFIG = LintConfig()
