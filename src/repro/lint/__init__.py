"""``repro.lint`` — pipeline-wide static analysis with stable codes.

Every invariant the assign->schedule->regalloc pipeline relies on is
re-derived from scratch by an independent rule, registered under a
stable diagnostic code grouped by artifact family (``DDG1xx``,
``MACH2xx``, ``ASSIGN3xx``, ``SCHED4xx``, ``REG5xx``, ``CERT6xx``,
``DF7xx``).  See ``docs/LINTING.md`` for the full catalog
and ``docs/DATAFLOW.md`` for the fixed-point engine the DF7xx family
is built on.

Entry points:

* :func:`lint_corpus_deep` / :func:`lint_loop_deep` — compile-and-lint
  (what ``repro lint`` runs);
* :func:`lint_compiled` — lint an already compiled loop (what the
  ``--lint`` pipeline gate runs);
* :func:`lint_machine` — machine description alone;
* :func:`df_mii_floor` / :func:`pressure_floor` — the static bounds as
  a library (exact-backend pruning, ROADMAP item 1);
* :func:`render` — text / JSON / SARIF 2.1.0 output.
"""

from .dataflow import (
    DataflowProblem,
    DataflowResult,
    df_mii_floor,
    df_rec_mii,
    df_res_mii,
    pressure_floor,
    solve,
    solve_ddg,
)

from .diagnostics import (
    CODE_COMPILE_FAILURE,
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
    lint_corpus_deep,
    lint_loop_deep,
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
    "CODE_COMPILE_FAILURE",
    "CODE_RULE_CRASH",
    "DEFAULT_CONFIG",
    "DataflowProblem",
    "DataflowResult",
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
    "df_mii_floor",
    "df_rec_mii",
    "df_res_mii",
    "format_json",
    "format_sarif",
    "format_text",
    "lint_compiled",
    "lint_corpus_deep",
    "lint_loop_deep",
    "lint_machine",
    "lint_target",
    "pressure_floor",
    "render",
    "rule",
    "rules_in_family",
    "run_lint",
    "solve",
    "solve_ddg",
    "to_json_doc",
    "to_sarif",
]
