"""Canned Luette policy handlers for the motivating scenarios of §I.

Grace wants her resources available only after 10 PM (time window); James
wants an access-control model (password / ACL); Kevin prefers users with
good history (credit check).  Each helper returns handler *source code* an
admin would attach to an attribute; parameters are baked into the source
exactly as an admin editing Figure 5 would.
"""

from __future__ import annotations

from typing import Iterable


def open_policy(node_id: int) -> str:
    """No restriction: onGet always exposes the NodeId."""
    return f"""
AA = {{NodeId = {node_id}}}

function onGet(caller, payload)
  return AA.NodeId
end
"""


def password_policy(node_id: int, password: str) -> str:
    """The paper's Figure 5: expose the node only to callers with the password.

    The query payload arrives as a table; the password travels in
    ``payload.password`` (our plaintext equivalent of Figure 5's argument).
    """
    escaped = password.replace("\\", "\\\\").replace('"', '\\"')
    return f"""
AA = {{NodeId = {node_id},
      IP = "0.0.0.0",
      Password = "{escaped}"}}

function onGet(caller, payload)
  if (payload ~= nil and payload.password == AA.Password) then
    return AA.NodeId
  end
  return nil
end
"""


def time_window_policy(node_id: int, start_hour: int, end_hour: int) -> str:
    """Grace's policy: share only inside [start_hour, end_hour) o'clock.

    The current hour arrives in the payload (``payload.hour``) because the
    sandbox deliberately has no clock access — the runtime supplies trusted
    time, the handler only decides.
    """
    return f"""
AA = {{NodeId = {node_id}, StartHour = {start_hour}, EndHour = {end_hour}}}

function onGet(caller, payload)
  local hour = payload.hour
  if hour == nil then return nil end
  local s = AA.StartHour
  local e = AA.EndHour
  local inside
  if s <= e then
    inside = (hour >= s) and (hour < e)
  else
    inside = (hour >= s) or (hour < e)
  end
  if inside then
    return AA.NodeId
  end
  return nil
end
"""


def acl_policy(node_id: int, allowed_callers: Iterable[str]) -> str:
    """James's policy: only named principals may see the node."""
    entries = ", ".join(f'["{c}"] = true' for c in allowed_callers)
    return f"""
AA = {{NodeId = {node_id}, Allowed = {{{entries}}}}}

function onGet(caller, payload)
  if AA.Allowed[caller] then
    return AA.NodeId
  end
  return nil
end
"""


def credit_policy(node_id: int, min_credit: float) -> str:
    """Kevin's policy: require a good history score (``payload.credit``)."""
    return f"""
AA = {{NodeId = {node_id}, MinCredit = {min_credit}}}

function onGet(caller, payload)
  local credit = payload.credit
  if credit ~= nil and credit >= AA.MinCredit then
    return AA.NodeId
  end
  return nil
end
"""


def utilization_subscription(threshold_pct: float) -> str:
    """Membership policy for a ``CPU_utilization<T%`` tree (§III-B example).

    ``onSubscribe`` returns the topic while the node's utilization is below
    the threshold; ``onUnsubscribe`` fires once it rises above — "if it is a
    CPU_utilization<10% tree and the node suddenly becomes overloaded, the
    node will unsubscribe the tree at the next interval."

    The handler is topic-aware: it parses the threshold out of the tree
    name (``...<25`` → 25), so one attribute serves every threshold tree
    the admin maintains; the constructor value is the fallback for tree
    names that do not embed a number.
    """
    return f"""
AA = {{Threshold = {threshold_pct}}}

local function threshold_of(topic)
  local pos = string.find(topic, "<")
  if pos == nil then return AA.Threshold end
  local parsed = tonumber(string.sub(topic, pos + 1))
  if parsed == nil then return AA.Threshold end
  return parsed
end

function onSubscribe(caller, topic)
  if AA.Value ~= nil and AA.Value < threshold_of(topic) then
    return topic
  end
  return nil
end

function onUnsubscribe(caller, topic)
  if AA.Value == nil or AA.Value >= threshold_of(topic) then
    return topic
  end
  return nil
end
"""


def rental_price_policy(node_id: int, price: float) -> str:
    """A marketplace policy: expose the node with a price; admins can
    raise/lower the price interactively via onDeliver (multicast commands)."""
    return f"""
AA = {{NodeId = {node_id}, Price = {price}}}

function onGet(caller, payload)
  local budget = payload.budget
  if budget ~= nil and budget >= AA.Price then
    return AA.NodeId
  end
  return nil
end

function onDeliver(caller, payload)
  if payload.new_price ~= nil then
    AA.Price = payload.new_price
  end
  return AA.Price
end
"""


def market_gate_policy(node_id: int, price: float, min_credit: float) -> str:
    """The marketplace gate: rental price composed with Kevin's credit check.

    Callers must present both ``payload.budget >= Price`` and
    ``payload.credit >= MinCredit`` — a buyer with money but a bad history
    (or vice versa) is denied on the owner's side, where the policy runs.
    Admins reprice (``payload.new_price``) or tighten the history bar
    (``payload.new_min_credit``) interactively via onDeliver multicasts.
    """
    return f"""
AA = {{NodeId = {node_id}, Price = {price}, MinCredit = {min_credit}}}

function onGet(caller, payload)
  local budget = payload.budget
  local credit = payload.credit
  if budget == nil or credit == nil then
    return nil
  end
  if budget >= AA.Price and credit >= AA.MinCredit then
    return AA.NodeId
  end
  return nil
end

function onDeliver(caller, payload)
  if payload.new_price ~= nil then
    AA.Price = payload.new_price
  end
  if payload.new_min_credit ~= nil then
    AA.MinCredit = payload.new_min_credit
  end
  return AA.Price
end
"""


def expiring_share_policy(node_id: int, expires_at_ms: float) -> str:
    """Share until a deadline; admins extend it with onDeliver commands.

    ``payload.now`` carries trusted simulation time on get events.
    """
    return f"""
AA = {{NodeId = {node_id}, ExpiresAt = {expires_at_ms}}}

function onGet(caller, payload)
  if payload.now ~= nil and payload.now < AA.ExpiresAt then
    return AA.NodeId
  end
  return nil
end

function onDeliver(caller, payload)
  if payload.new_expiration ~= nil then
    AA.ExpiresAt = payload.new_expiration
  end
  return AA.ExpiresAt
end
"""


def exposure_policy(node_id: int, exposed: bool = True) -> str:
    """A gate whose exposure admins flip remotely (hide/expose, §II-B3).

    ``onDeliver`` commands with ``payload.exposed`` toggle availability;
    while hidden, every get is denied without touching tree membership —
    the paper's "quickly inform members about the admin's policy changes,
    such as hide or expose available resources".
    """
    flag = "true" if exposed else "false"
    return f"""
AA = {{NodeId = {node_id}, Exposed = {flag}}}

function onGet(caller, payload)
  if AA.Exposed then
    return AA.NodeId
  end
  return nil
end

function onDeliver(caller, payload)
  if payload ~= nil and payload.exposed ~= nil then
    AA.Exposed = payload.exposed
  end
  return AA.Exposed
end
"""
