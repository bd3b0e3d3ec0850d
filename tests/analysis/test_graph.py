"""Symbol resolution and call-graph traversal."""

from repro.analysis.graph import ProjectIndex, build_graph
from repro.analysis.index import index_source


def _project(*sources):
    """Build a ProjectIndex from (source, path[, module]) tuples."""
    return ProjectIndex(index_source(*entry) for entry in sources)


LIB = ("def helper(x):\n"
       "    return x * 2.0\n"
       "class Widget:\n"
       "    def size(self):\n"
       "        return 4\n"
       "    def area(self):\n"
       "        return self.size() * self.size()\n",
       "src/repro/pkg/lib.py")

APP = ("from repro.pkg.lib import helper\n"
       "from repro.pkg import lib\n"
       "def top(x):\n"
       "    return helper(x) + lib.helper(x)\n",
       "src/repro/pkg/app.py")


class TestResolution:
    def test_from_import_resolves(self):
        project = _project(LIB, APP)
        app = project.modules["repro.pkg.app"]
        assert project.resolve(app, "helper") \
            == "repro.pkg.lib.helper"

    def test_module_alias_attribute_resolves(self):
        project = _project(LIB, APP)
        app = project.modules["repro.pkg.app"]
        assert project.resolve(app, "lib.helper") \
            == "repro.pkg.lib.helper"

    def test_self_method_resolves_uniquely(self):
        project = _project(LIB)
        lib = project.modules["repro.pkg.lib"]
        assert project.resolve(lib, "self.size") \
            == "repro.pkg.lib.Widget.size"

    def test_unknown_callee_resolves_to_none(self):
        project = _project(LIB, APP)
        app = project.modules["repro.pkg.app"]
        assert project.resolve(app, "np.clip") is None


class TestGraph:
    def test_edges_connect_caller_to_callee(self):
        graph = build_graph([index_source(*entry)
                             for entry in (LIB, APP)])
        callees = {callee for callee, _site
                   in graph.callees_of("repro.pkg.app.top")}
        assert callees == {"repro.pkg.lib.helper"}

    def test_closure_returns_shortest_chains(self):
        chain_src = ("def a():\n    return b()\n"
                     "def b():\n    return c()\n"
                     "def c():\n    return 1\n",
                     "src/repro/pkg/chain.py")
        graph = build_graph([index_source(*chain_src)])
        reached = graph.closure(["repro.pkg.chain.a"])
        assert reached["repro.pkg.chain.c"] == [
            "repro.pkg.chain.a", "repro.pkg.chain.b",
            "repro.pkg.chain.c"]

    def test_closure_stop_modules_are_not_expanded(self):
        runtime = ("def inner():\n    return deep()\n"
                   "def deep():\n    return 2\n",
                   "src/repro/runtime/thing.py")
        caller = ("from repro.runtime.thing import inner\n"
                  "def go():\n    return inner()\n",
                  "src/repro/pkg/caller.py")
        graph = build_graph([index_source(*entry)
                             for entry in (runtime, caller)])
        reached = graph.closure(["repro.pkg.caller.go"],
                                stop={"repro.runtime.thing"})
        # ``inner`` is reached (its facts are reportable) but not
        # expanded — ``deep`` stays invisible.
        assert "repro.runtime.thing.inner" in reached
        assert "repro.runtime.thing.deep" not in reached


class TestSerialization:
    def test_json_payload_has_nodes_and_edges(self):
        graph = build_graph([index_source(*entry)
                             for entry in (LIB, APP)])
        payload = graph.to_json()
        names = {node["name"] for node in payload["nodes"]}
        assert "repro.pkg.lib.Widget.area" in names
        assert {"caller": "repro.pkg.app.top",
                "callee": "repro.pkg.lib.helper",
                "line": 4} in payload["edges"]

    def test_dot_output_is_wellformed(self):
        graph = build_graph([index_source(*entry)
                             for entry in (LIB, APP)])
        dot = graph.to_dot()
        assert dot.startswith("digraph repro_calls {")
        assert '"repro.pkg.app.top" -> "repro.pkg.lib.helper";' in dot
        assert dot.rstrip().endswith("}")


class TestSuppression:
    def test_noqa_map_travels_with_the_index(self):
        index = index_source("def f():\n    return 1\n",
                             "src/repro/pkg/sup.py",
                             noqa={1: ["unit-flow"], 2: ["*"]})
        project = ProjectIndex([index])
        name = "repro.pkg.sup.f"
        assert project.is_suppressed(name, 1, "unit-flow")
        assert not project.is_suppressed(name, 1,
                                         "worker-safety-transitive")
        assert project.is_suppressed(name, 2, "unit-flow")
        assert not project.is_suppressed(name, 3, "unit-flow")
