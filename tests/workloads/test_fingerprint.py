"""Stable content hashing of loop DDGs and gate configurations."""

import dataclasses

from repro.certify import CertifyConfig
from repro.ddg import Ddg, Opcode, build_ddg
from repro.lint import LintConfig
from repro.workloads import ddg_fingerprint, paper_suite
from repro.workloads.fingerprint import certify_fingerprint, lint_fingerprint


def _chain(name=""):
    return build_ddg(
        ops=[("ld", Opcode.LOAD), ("add", Opcode.ALU),
             ("st", Opcode.STORE)],
        deps=[("ld", "add", 0), ("add", "st", 0)],
        name=name,
    )


class TestDdgFingerprint:
    def test_deterministic(self):
        assert ddg_fingerprint(_chain()) == ddg_fingerprint(_chain())

    def test_loop_name_does_not_matter(self):
        # Identity follows the graph content, not the display label.
        assert (ddg_fingerprint(_chain("alpha"))
                == ddg_fingerprint(_chain("beta")))

    def test_edges_matter(self):
        base = _chain()
        extra = _chain()
        extra.add_edge(2, 0, distance=1)
        assert ddg_fingerprint(base) != ddg_fingerprint(extra)

    def test_distance_matters(self):
        one = build_ddg([("a", Opcode.ALU), ("b", Opcode.ALU)],
                        [("a", "b", 1)])
        two = build_ddg([("a", Opcode.ALU), ("b", Opcode.ALU)],
                        [("a", "b", 2)])
        assert ddg_fingerprint(one) != ddg_fingerprint(two)

    def test_opcode_matters(self):
        alu = build_ddg([("a", Opcode.ALU)], [])
        load = build_ddg([("a", Opcode.LOAD)], [])
        assert ddg_fingerprint(alu) != ddg_fingerprint(load)

    def test_latency_override_matters(self):
        default = Ddg()
        default.add_node(Opcode.ALU)
        overridden = Ddg()
        overridden.add_node(Opcode.ALU, latency=7)
        assert ddg_fingerprint(default) != ddg_fingerprint(overridden)

    def test_copy_preserves_fingerprint(self):
        loop = _chain("orig")
        assert ddg_fingerprint(loop) == ddg_fingerprint(loop.copy())

    def test_suite_fingerprints_unique(self):
        suite = paper_suite(60)
        prints = {ddg_fingerprint(loop) for loop in suite}
        assert len(prints) == 60

    def test_is_hex_sha256(self):
        digest = ddg_fingerprint(_chain())
        assert len(digest) == 64
        int(digest, 16)  # parses as hex


def _changed(value):
    """Another valid value of ``value``'s type (every gate field's
    default is one of these types)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, frozenset):
        return value | {"DDG105"}
    if isinstance(value, dict):
        return {**value, "DDG105": "info"}
    raise TypeError(f"no changed value known for {value!r}")


class TestGateFingerprints:
    def test_every_field_changes_the_digest(self):
        # A cached outcome replays its gate's verdict, so a field the
        # digest ignored would replay one config's verdict for another.
        # Fields come from the dataclass itself: a new one is covered.
        for config_type, fingerprint in (
            (LintConfig, lint_fingerprint),
            (CertifyConfig, certify_fingerprint),
        ):
            base = config_type()
            for field in dataclasses.fields(config_type):
                changed = dataclasses.replace(
                    base, **{field.name: _changed(getattr(base, field.name))}
                )
                assert fingerprint(changed) != fingerprint(base), (
                    f"{config_type.__name__}.{field.name}"
                )
