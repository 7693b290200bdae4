"""Tests for Luette's repeat/until loops and colon method calls."""

import pytest

from repro.aa.errors import InstructionLimitExceeded, LuetteRuntimeError, LuetteSyntaxError
from repro.aa.interpreter import Interpreter
from repro.aa.parser import parse
from repro.aa.stdlib import make_sandbox_globals
from repro.aa.values import luette_to_python


def run(source, limit=200_000):
    interp = Interpreter(make_sandbox_globals(), instruction_limit=limit)
    return luette_to_python(interp.run_chunk(parse(source)))


class TestRepeatUntil:
    def test_basic_loop(self):
        assert run("local i = 0 repeat i = i + 1 until i >= 5 return i") == 5

    def test_body_runs_at_least_once(self):
        assert run("local i = 0 repeat i = i + 1 until true return i") == 1

    def test_condition_sees_loop_locals(self):
        # Lua scopes the until-expression inside the loop body.
        source = """
        local i = 0
        repeat
          i = i + 1
          local done = i >= 3
        until done
        return i
        """
        assert run(source) == 3

    def test_break_inside_repeat(self):
        source = """
        local i = 0
        repeat
          i = i + 1
          if i == 2 then break end
        until false
        return i
        """
        assert run(source) == 2

    def test_budget_terminates_repeat(self):
        with pytest.raises(InstructionLimitExceeded):
            run("repeat until false", limit=500)

    def test_missing_until_rejected(self):
        with pytest.raises(LuetteSyntaxError):
            parse("repeat x = 1 end")

    def test_nested_repeat(self):
        source = """
        local total = 0
        local i = 0
        repeat
          i = i + 1
          local j = 0
          repeat
            j = j + 1
            total = total + 1
          until j >= 3
        until i >= 2
        return total
        """
        assert run(source) == 6


class TestMethodCalls:
    def test_string_methods(self):
        assert run("return ('abc'):upper()") == "ABC"
        assert run("local s = 'hello' return s:len()") == 5
        assert run("local s = 'hello' return s:sub(2, 4)") == "ell"
        assert run("local s = 'a-b' return s:find('-')") == 2

    def test_table_method_receives_self(self):
        source = """
        local counter = {n = 0}
        function counter.bump(self, amount)
          self.n = self.n + amount
          return self.n
        end
        counter:bump(5)
        return counter:bump(2)
        """
        assert run(source) == 7

    def test_method_on_nil_raises(self):
        with pytest.raises(LuetteRuntimeError):
            run("local t = nil return t:anything()")

    def test_method_on_number_raises(self):
        with pytest.raises(LuetteRuntimeError):
            run("local x = 5 return x:next()")

    def test_missing_method_raises_call_error(self):
        with pytest.raises(LuetteRuntimeError):
            run("local t = {} return t:nope()")

    def test_method_call_as_statement(self):
        source = """
        local log = {items = {}}
        function log.add(self, item)
          table.insert(self.items, item)
        end
        log:add('a')
        log:add('b')
        return #log.items
        """
        assert run(source) == 2

    def test_chained_method_calls(self):
        assert run("return ('  pad  '):upper():len()") == 7

    def test_method_in_handler(self):
        """Method syntax works in real AA handlers."""
        from repro.aa.runtime import AARuntime

        source = """
        AA = {Tags = "gpu,fast,cheap"}
        function onGet(caller, payload)
          if AA.Tags:find(payload.want) ~= nil then
            return "match"
          end
          return nil
        end
        """
        attribute = AARuntime().define("X", 0, source)
        assert attribute.invoke("onGet", (0, {"want": "fast"})) == "match"
        assert attribute.invoke("onGet", (0, {"want": "slow"})) is None
