"""A Past-style plain key-value attribute store (Figure 8c baseline).

"For RBAY nodes, each attribute is associated with an extra 'password'
handler besides NodeId, while for Past nodes, only the NodeId is saved,
which returns the same list of NodeIds upon a get request" (§IV-B3).
This class is that baseline: attribute name → list of NodeIds, no
procedural state at all.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class PastStore:
    """Plain replicated attribute directory, one instance per node."""

    def __init__(self):
        self._attributes: Dict[str, List[int]] = {}

    def put(self, attribute: str, node_id: int) -> None:
        """Register ``node_id`` under ``attribute``."""
        self._attributes.setdefault(attribute, []).append(node_id)

    def get(self, attribute: str, payload: Any = None) -> Optional[List[int]]:
        """Return the NodeId list (the payload is ignored — no handlers)."""
        entries = self._attributes.get(attribute)
        return None if entries is None else list(entries)

    def remove(self, attribute: str, node_id: Optional[int] = None) -> bool:
        """Drop one node's entry, or the whole attribute when id is None."""
        if attribute not in self._attributes:
            return False
        if node_id is None:
            del self._attributes[attribute]
            return True
        entries = self._attributes[attribute]
        try:
            entries.remove(node_id)
        except ValueError:
            return False
        if not entries:
            del self._attributes[attribute]
        return True

    def __len__(self) -> int:
        return len(self._attributes)
