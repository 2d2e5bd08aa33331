"""``repro.lint`` — static analysis of the compiler's inputs.

Every invariant the pipeline assumes of its inputs is a rule under a
stable diagnostic code grouped by family (``DDG1xx`` reads the loop's
graph, ``MACH2xx`` the machine); the error rules report the compile
boundary's own validators.  Lint compiles nothing.  See
``docs/LINTING.md`` for the full catalog.  The compiled loop itself is
checked by :mod:`repro.certify` (``repro certify``, ``--certify``), not
here.

Entry points:

* :func:`lint_machine` and :func:`run_lint` — the machine once, then
  each loop's graph (what ``repro lint`` runs);
* :func:`lint_compiled` — lint the inputs of a compiled loop (what the
  ``--lint`` pipeline gate runs);
* :func:`render` — text / JSON / SARIF 2.1.0 output.
"""

from .diagnostics import (
    CODE_RULE_CRASH,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
)
from .engine import (
    LintReport,
    LintTarget,
    lint_compiled,
    lint_machine,
    lint_target,
    run_lint,
)
from .registry import (
    DEFAULT_CONFIG,
    FAMILIES,
    Finding,
    LintConfig,
    Rule,
    all_rules,
    rule,
    rules_in_family,
)
from .render import (
    format_json,
    format_sarif,
    format_text,
    render,
    to_json_doc,
    to_sarif,
)

__all__ = [
    "CODE_RULE_CRASH",
    "DEFAULT_CONFIG",
    "Diagnostic",
    "FAMILIES",
    "Finding",
    "LintConfig",
    "LintReport",
    "LintTarget",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "all_rules",
    "format_json",
    "format_sarif",
    "format_text",
    "lint_compiled",
    "lint_machine",
    "lint_target",
    "render",
    "rule",
    "rules_in_family",
    "run_lint",
    "to_json_doc",
    "to_sarif",
]
