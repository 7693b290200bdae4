"""Site administrators: posting resources and pushing policies.

RBAY "operates in ways akin to eBay, where admins post their resources to
the platform, attach certain policy such as valid time, password and the
like" (§I).  The admin never gives up control: policies run as AA handlers
on the admin's own nodes, and interactive changes travel as multicast
commands that trigger ``onDeliver``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.node import GATE_ATTRIBUTE, RBayNode, SubscriptionSpec
from repro.core.naming import predicate_tree_name, site_tree
from repro.net.site import Site


class SiteAdmin:
    """The administrator of one site's nodes."""

    def __init__(self, site: Site, nodes: List[RBayNode]):
        self.site = site
        self.nodes = list(nodes)
        self.name = f"admin@{site.name}"

    # ------------------------------------------------------------------
    # Resource posting ("sell")
    # ------------------------------------------------------------------
    def post_resource(
        self,
        node: RBayNode,
        attribute: str,
        value: Any,
        tree: Optional[str] = None,
        membership: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        """Expose one attribute of one node to the federation.

        Defines the attribute and subscribes the node to the attribute's
        tree so queries can find it.  ``tree`` defaults to the canonical
        equality tree name.  The tree is named per site and routed inside
        the site: its rendezvous never leaves the admin's domain (§III-E).
        """
        if node.site.index != self.site.index:
            raise PermissionError(
                f"{self.name} does not administer nodes of site {node.site.name}"
            )
        node.define_attribute(attribute, value)
        topic = tree if tree is not None else predicate_tree_name(attribute, "=", value)
        full_topic = site_tree(self.site.name, topic)
        if membership is None:
            # Default membership tracks the posted value: if the attribute
            # is later removed or changes, the next maintenance tick drops
            # the node from the tree (resource churn, §VI).
            membership = lambda v, expected=value: v == expected
        node.subscribe(SubscriptionSpec(
            topic=full_topic,
            attribute=attribute,
            default_predicate=membership,
        ))

    def hide_resource(self, node: RBayNode, attribute: str, value: Any = None) -> None:
        """Withdraw an attribute from the plane (the admin's 'hide')."""
        if value is None:
            value = node.attribute_value(attribute)
        topic = predicate_tree_name(attribute, "=", value)
        full_topic = site_tree(self.site.name, topic)
        node.unsubscribe(full_topic)
        node.remove_attribute(attribute)

    def set_gate_policy(self, node: RBayNode, handler_source: str) -> None:
        """Install the node-level access policy (onGet authorization)."""
        node.define_attribute(GATE_ATTRIBUTE, node.node_id.value, handler_source)

    # ------------------------------------------------------------------
    # Interactive policy management (multicast → onDeliver)
    # ------------------------------------------------------------------
    def broadcast_command(
        self,
        via: RBayNode,
        tree: str,
        attribute: str,
        payload: Dict[str, Any],
    ) -> None:
        """Multicast an admin command down a tree; members run ``onDeliver``.

        Used to "quickly inform members about the admin's policy changes,
        such as hide or expose available resources, raise or lower rental
        prices" (§II-B3).  The tree is named and routed as
        :meth:`post_resource` names and routes it.
        """
        full_topic = site_tree(self.site.name, tree)
        via.scribe.topic_state(full_topic, "site")
        via.scribe.multicast(via, full_topic, {
            "kind": "admin_command",
            "admin": self.name,
            "attribute": attribute,
            "payload": payload,
        })

    # ------------------------------------------------------------------
    @staticmethod
    def apply_admin_command(node: RBayNode, topic: str, body: Dict[str, Any]) -> None:
        """Multicast handler half: run onDeliver on the named attribute.

        Wired as the Scribe ``multicast_handler`` by the plane.
        """
        if body.get("kind") != "admin_command":
            return
        node.aa.on_deliver(body["attribute"], body.get("admin"), body.get("payload"))
