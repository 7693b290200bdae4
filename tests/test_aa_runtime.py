"""Unit tests for active attributes and the AA runtime."""

import pytest

from repro.aa.runtime import AARuntime, HANDLER_NAMES, compile_source


PASSWORD_SOURCE = """
AA = {NodeId = 27, Password = "secret"}

function onGet(caller, payload)
  if payload == AA.Password then
    return AA.NodeId
  end
  return nil
end
"""


class TestActiveAttribute:
    def test_plain_attribute_without_handlers(self):
        attribute = AARuntime().define("CPU", "Intel 3.40GHz")
        assert attribute.value == "Intel 3.40GHz"
        assert not attribute.has_handler("onGet")
        assert attribute.invoke("onGet", (1, 2), default="fallback") == "fallback"

    def test_figure5_password_handler(self):
        attribute = AARuntime().define("CPU", "x", PASSWORD_SOURCE)
        assert attribute.invoke("onGet", ("joe", "secret")) == 27
        assert attribute.invoke("onGet", ("joe", "wrong")) is None

    def test_handlers_in_aa_table(self):
        source = """
        AA = {Value = 5}
        AA.onGet = function(caller, payload) return AA.Value * 2 end
        """
        attribute = AARuntime().define("X", 5, source)
        assert attribute.has_handler("onGet")
        assert attribute.invoke("onGet", (0, 0)) == 10

    def test_handler_names_match_table_one(self):
        assert HANDLER_NAMES == (
            "onGet", "onSubscribe", "onUnsubscribe", "onDeliver", "onTimer"
        )

    def test_value_visible_to_handler(self):
        source = "function onGet(c, p) return AA.Value + 1 end"
        attribute = AARuntime().define("X", 41, source)
        assert attribute.invoke("onGet", (0, 0)) == 42

    def test_handler_can_mutate_value(self):
        source = "function onDeliver(c, payload) AA.Value = payload return AA.Value end"
        attribute = AARuntime().define("X", 1, source)
        attribute.invoke("onDeliver", (0, 99))
        assert attribute.value == 99

    def test_set_value_updates_handler_view(self):
        source = "function onGet(c, p) return AA.Value end"
        attribute = AARuntime().define("X", 1, source)
        attribute.set_value(7)
        assert attribute.invoke("onGet", (0, 0)) == 7

    def test_errors_are_contained_and_logged(self):
        source = "function onGet(c, p) return nil + 1 end"
        attribute = AARuntime().define("X", 1, source)
        assert attribute.invoke("onGet", (0, 0), default="safe") == "safe"
        assert len(attribute.errors) == 1
        assert attribute.errors[0].handler == "onGet"

    def test_budget_exhaustion_contained(self):
        source = "function onTimer() while true do end end"
        attribute = AARuntime(instruction_limit=500).define("X", 1, source)
        assert attribute.invoke("onTimer") is None
        assert "budget" in attribute.errors[0].message

    def test_dict_payload_bridged_to_table(self):
        source = "function onGet(c, payload) return payload.password end"
        attribute = AARuntime().define("X", 1, source)
        assert attribute.invoke("onGet", (0, {"password": "pw"})) == "pw"

    def test_list_return_bridged_to_python(self):
        source = "function onGet(c, p) return {1, 2, 3} end"
        attribute = AARuntime().define("X", 1, source)
        assert attribute.invoke("onGet", (0, 0)) == [1, 2, 3]

    def test_chunk_cache_shares_asts(self):
        a = compile_source(PASSWORD_SOURCE)
        b = compile_source(PASSWORD_SOURCE)
        assert a is b


class TestAARuntime:
    def test_define_and_value(self):
        runtime = AARuntime()
        runtime.define("GPU", True)
        assert runtime.value("GPU") is True
        assert runtime.value("missing") is None

    def test_redefine_replaces(self):
        runtime = AARuntime()
        runtime.define("X", 1)
        runtime.define("X", 2)
        assert runtime.value("X") == 2

    def test_remove(self):
        runtime = AARuntime()
        runtime.define("X", 1)
        assert runtime.remove("X")
        assert not runtime.remove("X")

    def test_set_value_creates_if_missing(self):
        runtime = AARuntime()
        runtime.set_value("fresh", 5)
        assert runtime.value("fresh") == 5

    def test_on_get_default_for_open_attribute(self):
        runtime = AARuntime()
        runtime.define("X", 10)
        assert runtime.on_get("X", "caller", None, default="open-value") == "open-value"

    def test_on_get_runs_handler(self):
        runtime = AARuntime()
        runtime.define("X", 10, "function onGet(c, p) return AA.Value end")
        assert runtime.on_get("X", "caller") == 10

    def test_on_get_missing_attribute_is_none(self):
        assert AARuntime().on_get("nope", "caller") is None

    def test_subscribe_decisions(self):
        source = """
        function onSubscribe(caller, topic)
          if AA.Value < 10 then return topic end
          return nil
        end
        function onUnsubscribe(caller, topic)
          if AA.Value >= 10 then return topic end
          return nil
        end
        """
        runtime = AARuntime()
        runtime.define("util", 5.0, source)
        assert runtime.should_subscribe("util", 0, "low")
        assert not runtime.should_unsubscribe("util", 0, "low")
        runtime.set_value("util", 50.0)
        assert not runtime.should_subscribe("util", 0, "low")
        assert runtime.should_unsubscribe("util", 0, "low")

    def test_on_deliver_updates_policy_state(self):
        source = """
        AA = {Price = 10}
        function onDeliver(caller, payload)
          if payload.new_price ~= nil then AA.Price = payload.new_price end
          return AA.Price
        end
        function onGet(caller, payload)
          return AA.Price
        end
        """
        runtime = AARuntime()
        runtime.define("rent", 0, source)
        assert runtime.on_deliver("rent", "admin", {"new_price": 25}) == 25
        assert runtime.on_get("rent", "joe") == 25

    def test_on_timer(self):
        source = """
        AA = {Ticks = 0}
        function onTimer()
          AA.Ticks = AA.Ticks + 1
        end
        function onGet(c, p) return AA.Ticks end
        """
        runtime = AARuntime()
        runtime.define("X", 0, source)
        runtime.on_timer("X")
        runtime.on_timer("X")
        assert runtime.on_get("X", 0) == 2

    def test_globals_isolated_between_attributes(self):
        runtime = AARuntime()
        runtime.define("A", 1, "leak = 42\nfunction onGet(c, p) return leak end")
        runtime.define("B", 1, "function onGet(c, p) return leak end")
        assert runtime.on_get("A", 0) == 42
        assert runtime.on_get("B", 0) is None

    def test_stdlib_shared_but_not_writable_across_attributes(self):
        runtime = AARuntime()
        runtime.define("A", 1, "math = 'clobbered'\nfunction onGet(c,p) return math end")
        runtime.define("B", 1, "function onGet(c,p) return math.abs(-1) end")
        assert runtime.on_get("A", 0) == "clobbered"
        assert runtime.on_get("B", 0) == 1  # B's math is the real library

    def test_plain_attributes_build_no_sandbox(self):
        runtime = AARuntime()
        runtime.define("CPU", "Intel 3.40GHz")
        runtime.set_value("Load", 0.5)
        assert runtime._interpreter is None
        assert all(a.interpreter is None for a in runtime.attributes.values())

    def test_handler_defined_later_runs_under_its_budget(self):
        runtime = AARuntime(instruction_limit=500)
        runtime.define("Plain", 1)
        runtime.define("Spin", 1, "function onTimer() while true do end end")
        runtime.define("Gate", 41, "function onGet(c, p) return AA.Value + 1 end")
        assert runtime.on_timer("Spin") is None
        assert "budget" in runtime.get("Spin").errors[0].message
        assert runtime.on_get("Gate", 0) == 42
        assert runtime.interpreter is runtime.get("Gate").interpreter

    def test_stdlib_tables_are_per_node(self):
        vandal, other = AARuntime(), AARuntime()
        vandal.define("A", "abc", "string.len = nil\n"
                                  "function onGet(c, p) return string.len end")
        other.define("B", "abcd", "function onGet(c, p) return string.len(AA.Value) end")
        assert vandal.get("A").has_handler("onGet")
        assert vandal.on_get("A", 0) is None  # the vandal's own library lost it
        assert other.on_get("B", 0) == 4

    def test_error_count_aggregates(self):
        runtime = AARuntime()
        runtime.define("A", 1, "function onGet(c, p) error('x') end")
        runtime.on_get("A", 0)
        runtime.on_get("A", 0)
        assert runtime.error_count() == 2
