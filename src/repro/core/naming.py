"""The flexible naming scheme: canonical tree names and the hybrid hierarchy.

Paper §III-C: a flat tree-per-property layout creates overlapping trees
("Intel CPU" ⊂ "CPU") and forces every site to learn every new property.
RBAY instead organizes trees along the nesting of properties — model trees
are subtrees of brand trees, core-size trees subtrees of model trees — and
a subtree root carries a pointer to its parent ("major") tree.  A new
device links its specific attribute under an existing major tree instead of
creating a globally-known name.

We reproduce the pointer structure as a federation-wide catalog object: the
paper's "all site admins comply with major trees" agreement is exactly a
shared catalog, and query interfaces use it to expand a query on a major
attribute into anycasts over its leaf subtrees.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set


def _canonical_value(value: object) -> str:
    """Stable rendering shared by tree creators and query planners.

    Numbers render with ``%g`` so ``10``, ``10.0``, and the SQL literal
    ``10%`` all name the same tree.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return f"{value:g}"
    return str(value)


def predicate_tree_name(attribute: str, op: str, value: object) -> str:
    """Canonical tree name for a query predicate.

    Equality predicates name attribute-value trees (``CPU_model=Intel Core
    i7``); threshold predicates name the pre-agreed threshold trees
    (``CPU_utilization<10``, the paper's "CPU_utilization<10%" tree).
    Sites must agree on this canonical form — "we assume that all sites
    have a uniform way of major resources' key-value pair settings"
    (§III-A).
    """
    if op in ("=", "=="):
        if value is True:
            return str(attribute)
        return f"{attribute}={_canonical_value(value)}"
    if op == "between":
        lo, hi = value
        return f"{attribute}[{_canonical_value(lo)},{_canonical_value(hi)}]"
    return f"{attribute}{op}{_canonical_value(value)}"


def site_tree(site_name: str, tree: str) -> str:
    """Site-local tree name (administrative isolation keeps it in-site)."""
    return f"{site_name}/{tree}"


def instance_tree(site_name: str, instance_type: str) -> str:
    """The per-site instance-type trees of the paper's evaluation (§IV-A).

    The tree name matches the canonical equality form so queries on
    ``instance_type = '<type>'`` resolve to it.
    """
    return site_tree(site_name, predicate_tree_name("instance_type", "=", instance_type))


class AttributeHierarchy:
    """The hybrid tree structure: child trees under their major trees."""

    def __init__(self):
        self._parent: Dict[str, str] = {}
        self._children: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    def link(self, child_tree: str, parent_tree: str) -> None:
        """Register ``child_tree`` as a subtree of ``parent_tree``.

        Mirrors the paper's "make a pointer for each subtree root to link to
        the global root".  Cycles are rejected.
        """
        if child_tree == parent_tree:
            raise ValueError("a tree cannot be its own parent")
        ancestor: Optional[str] = parent_tree
        while ancestor is not None:
            if ancestor == child_tree:
                raise ValueError(
                    f"linking {child_tree!r} under {parent_tree!r} creates a cycle"
                )
            ancestor = self._parent.get(ancestor)
        previous = self._parent.get(child_tree)
        if previous is not None:
            self._children[previous].discard(child_tree)
        self._parent[child_tree] = parent_tree
        self._children.setdefault(parent_tree, set()).add(child_tree)

    def unlink(self, child_tree: str) -> None:
        parent = self._parent.pop(child_tree, None)
        if parent is not None:
            self._children[parent].discard(child_tree)

    # ------------------------------------------------------------------
    def parent(self, tree: str) -> Optional[str]:
        return self._parent.get(tree)

    def children(self, tree: str) -> List[str]:
        return sorted(self._children.get(tree, ()))

    def is_known(self, tree: str) -> bool:
        return tree in self._parent or tree in self._children

    def expand(self, tree: str) -> List[str]:
        """All trees to search for a query on ``tree``: itself + descendants.

        A query on a major attribute ("CPU") recursively covers the specific
        trees nested beneath it ("CPU/Intel", "CPU/Intel/i7", ...).
        """
        out: List[str] = []
        stack = [tree]
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            stack.extend(self._children.get(current, ()))
        return out

    def roots(self) -> List[str]:
        """Major trees (trees that are not anyone's child)."""
        majors = set(self._children)
        majors.update(self._parent.values())
        return sorted(t for t in majors if t not in self._parent)

    def tree_count(self) -> int:
        """Number of distinct trees the hierarchy knows about."""
        trees = set(self._parent)
        trees.update(self._children)
        trees.update(self._parent.values())
        return len(trees)
