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

    def __init__(self, site: Site, nodes: List[RBayNode], name: Optional[str] = None):
        self.site = site
        self.nodes = list(nodes)
        self.name = name if name is not None else f"admin@{site.name}"

    # ------------------------------------------------------------------
    # Resource posting ("sell")
    # ------------------------------------------------------------------
    def post_resource(
        self,
        node: RBayNode,
        attribute: str,
        value: Any,
        handler_source: Optional[str] = None,
        tree: Optional[str] = None,
        scope: str = "site",
        membership: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        """Expose one attribute of one node to the federation.

        Defines the attribute (with optional handlers) and subscribes the
        node to the attribute's tree so queries can find it.  ``tree``
        defaults to the canonical equality tree name.
        """
        if node.site.index != self.site.index:
            raise PermissionError(
                f"{self.name} does not administer nodes of site {node.site.name}"
            )
        node.define_attribute(attribute, value, handler_source)
        topic = tree if tree is not None else predicate_tree_name(attribute, "=", value)
        # Trees are always named per-site (that is what query interfaces
        # probe); ``scope`` controls only the routing of the tree — "site"
        # keeps the rendezvous inside the site (§III-E), "global" is the
        # isolation-off mode.
        full_topic = site_tree(self.site.name, topic)
        if membership is None:
            # Default membership tracks the posted value: if the attribute
            # is later removed or changes, the next maintenance tick drops
            # the node from the tree (resource churn, §VI).
            membership = lambda v, expected=value: v == expected
        node.subscribe(SubscriptionSpec(
            topic=full_topic,
            attribute=attribute,
            scope=scope,
            default_predicate=membership,
        ))

    def hide_resource(self, node: RBayNode, attribute: str, tree: Optional[str] = None,
                      value: Any = None, scope: str = "site") -> None:
        """Withdraw an attribute from the plane (the admin's 'hide')."""
        topic = tree if tree is not None else predicate_tree_name(attribute, "=",
                                                                  value if value is not None
                                                                  else node.attribute_value(attribute))
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
        scope: str = "site",
    ) -> None:
        """Multicast an admin command down a tree; members run ``onDeliver``.

        Used to "quickly inform members about the admin's policy changes,
        such as hide or expose available resources, raise or lower rental
        prices" (§II-B3).
        """
        full_topic = site_tree(self.site.name, tree) if scope == "site" else tree
        via.scribe.topic_state(full_topic, scope)
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
