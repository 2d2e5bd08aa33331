"""The Figure 5 two-phase compilation driver."""


from repro.core import SIMPLE, compile_loop
from repro.ddg import Ddg, Opcode, mii
from repro.obs import tracing


class TestCompileLoop:
    def test_intro_example_on_unified(self, intro_example, uni8):
        result = compile_loop(intro_example, uni8, verify=True)
        assert result.ii == 4  # RecMII bound
        assert result.copy_count == 0

    def test_intro_example_on_clustered(self, intro_example, two_gp):
        result = compile_loop(intro_example, two_gp, verify=True)
        assert result.ii == 4  # matches unified: communication hidden
        assert result.mii == 4

    def test_result_fields_consistent(self, chain3, two_gp):
        result = compile_loop(chain3, two_gp, verify=True)
        assert result.schedule.ii == result.ii
        assert result.annotated.machine is two_gp
        assert result.attempts >= 1
        assert result.ii_over_mii == result.ii - result.mii

    def test_min_ii_override(self, chain3, two_gp):
        result = compile_loop(chain3, two_gp, min_ii=5, verify=True)
        assert result.ii >= 5

    def test_min_ii_override_reports_true_mii(self, chain3, two_gp):
        # The recorded MII is the machine lower bound, not the
        # overridden starting point (and is computed exactly once).
        unified = two_gp.unified_equivalent()
        result = compile_loop(chain3, two_gp, min_ii=5)
        assert result.mii == mii(chain3, unified)
        assert result.ii_over_mii == result.ii - result.mii

    def test_mii_computed_once(self, chain3, two_gp, monkeypatch):
        import repro.core.driver as driver_module

        calls = []
        real = driver_module.mii

        def counting(ddg, machine):
            calls.append(machine.name)
            return real(ddg, machine)

        monkeypatch.setattr(driver_module, "mii", counting)
        compile_loop(chain3, two_gp, min_ii=3)
        assert len(calls) == 1
        calls.clear()
        compile_loop(chain3, two_gp)
        assert len(calls) == 1

    def test_starts_at_unified_mii(self, intro_example, two_gp):
        result = compile_loop(intro_example, two_gp)
        unified = two_gp.unified_equivalent()
        assert result.mii == mii(intro_example, unified)

    def test_stats_attached(self, intro_example, two_gp):
        # The final attempt's span holds the assign and schedule spans
        # that produced the result.
        with tracing() as trace:
            result = compile_loop(intro_example, two_gp)
        attempts = trace.find("attempt")
        assert len(attempts) == result.attempts
        final = {span.name: span for span in attempts[-1].children}
        assert final["assign"].attrs["succeeded"]
        assert final["assign"].attrs["copies"] == result.copy_count
        assert final["schedule"].attrs["succeeded"]


class TestIiEscalation:
    def test_ii_grows_under_extreme_pressure(self, two_gp):
        # 20 ops cannot fit at the unified MII of ceil(20/8) = 3 once a
        # copy is needed... the driver must escalate but still succeed.
        graph = Ddg()
        hub = graph.add_node(Opcode.ALU)
        for _ in range(19):
            node = graph.add_node(Opcode.ALU)
            graph.add_edge(hub, node, distance=0)
        result = compile_loop(graph, two_gp, verify=True)
        assert result.ii >= 3

    def test_simple_variant_still_terminates(self, two_gp):
        graph = Ddg()
        hub = graph.add_node(Opcode.ALU)
        for _ in range(19):
            node = graph.add_node(Opcode.ALU)
            graph.add_edge(hub, node, distance=0)
        result = compile_loop(graph, two_gp, config=SIMPLE, verify=True)
        assert result.ii >= 3

    def test_all_kernels_compile_on_all_machines(
        self, any_clustered_machine
    ):
        from repro.workloads import all_kernels
        for graph in all_kernels():
            result = compile_loop(graph, any_clustered_machine, verify=True)
            assert result.ii >= 1
