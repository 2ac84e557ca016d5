"""Query model: associative and navigational queries over the OODB.

A query touches a set of objects ("selectivity", 1% = 20 objects in the
paper) and, per object, a handful of attributes.  Navigational queries
additionally traverse one relationship per selected object and touch
attributes of the related object, doubling the effective selectivity —
exactly the behaviour the paper reports for NQ response times.

The workload generator resolves which objects/attributes a query touches
(including navigation targets) when the query is created; the protocol
layers (client probe, existent list, server reply) then operate on that
access list.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as t

from repro.oodb.objects import OID


class QueryKind(enum.Enum):
    """The paper's two query types."""

    ASSOCIATIVE = "AQ"
    NAVIGATIONAL = "NQ"


class AttributeAccess(t.NamedTuple):
    """One (object, attribute) touch within a query.

    ``is_update`` marks accesses belonging to an updated object: the query
    reads the attribute and then writes it back at the server.

    A query builds dozens of these, so the access is a tuple like
    :class:`~repro.oodb.objects.OID`: it is immutable, and its equality
    and hash (the tuple hash of its three fields, which is what the
    frozen dataclass it replaces computed) run in C.
    """

    oid: OID
    attribute: str
    is_update: bool = False

    @property
    def item(self) -> tuple[OID, str]:
        return (self.oid, self.attribute)


@dataclasses.dataclass
class Query:
    """A fully resolved query, ready to execute."""

    query_id: int
    client_id: int
    kind: QueryKind
    accesses: list[AttributeAccess]

    def __post_init__(self) -> None:
        if not self.accesses:
            raise ValueError(f"query {self.query_id} touches nothing")

    def __repr__(self) -> str:
        return (
            f"<Query #{self.query_id} client={self.client_id} "
            f"{self.kind.value} accesses={len(self.accesses)}>"
        )

    def oids(self) -> list[OID]:
        """Distinct objects touched, in first-touch order."""
        seen: dict[OID, None] = {}
        for access in self.accesses:
            seen.setdefault(access.oid, None)
        return list(seen)

    def attributes_of(self, oid: OID) -> list[str]:
        """Attributes of ``oid`` this query touches, in order."""
        return [a.attribute for a in self.accesses if a.oid == oid]

    def updates(self) -> dict[OID, list[str]]:
        """Objects to be written, mapped to the attributes modified."""
        out: dict[OID, list[str]] = {}
        for access in self.accesses:
            if access.is_update:
                out.setdefault(access.oid, []).append(access.attribute)
        return out

    @property
    def has_updates(self) -> bool:
        return any(access.is_update for access in self.accesses)
