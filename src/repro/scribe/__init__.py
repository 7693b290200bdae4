"""Scribe group communication over Pastry, extended with aggregation.

Scribe (Castro et al.) builds per-topic spanning trees: a topic's root is
the node whose NodeId is closest to the TopicId; JOIN messages routed toward
the TopicId are intercepted by tree nodes, and the union of their paths forms
the tree.  RBAY uses three primitives on these trees (paper §II-B3):

* **multicast** — policy pushes from admins to all members;
* **anycast** — distributed depth-first search serving resource discovery;
* **aggregate** — RBAY's extension: composable roll-up (count/sum/min/max/
  avg/...) of member state along the tree to the root.
"""

from repro.scribe.aggregate import (
    AggregateFunction,
    AGGREGATE_FACTORIES,
    AGGREGATE_FUNCTIONS,
    AllFunction,
    AnyFunction,
    AvgFunction,
    CountFunction,
    FilterCountFunction,
    MaxFunction,
    MinFunction,
    SumFunction,
    make_aggregate,
)
from repro.scribe.scribe import ScribeApplication
from repro.scribe.topic import topic_id

__all__ = [
    "AGGREGATE_FACTORIES",
    "AGGREGATE_FUNCTIONS",
    "AggregateFunction",
    "AllFunction",
    "AnyFunction",
    "AvgFunction",
    "CountFunction",
    "FilterCountFunction",
    "MaxFunction",
    "MinFunction",
    "ScribeApplication",
    "SumFunction",
    "make_aggregate",
    "topic_id",
]
