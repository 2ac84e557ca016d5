"""Query generation: selectivity, query kind, attribute skew, updates.

Combines a heat distribution (which objects), a skewed attribute
popularity (which attributes of each object), the query kind (AQ touches
``attrs_per_object`` primitives per object; NQ additionally traverses one
relationship and touches attributes of the related object), and the
update probability ``U`` (each touched object is updated with
probability U, modifying all of its touched attributes).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.oodb.database import Database
from repro.oodb.objects import OID
from repro.oodb.query import AttributeAccess, Query, QueryKind
from repro.sim.rand import RandomStream, cumulative
from repro.workload.heat import HeatDistribution

#: The paper's 1% selectivity over 2000 objects.
DEFAULT_SELECTIVITY = 20
#: Attributes touched per selected object (derived setting; DESIGN.md).
DEFAULT_ATTRS_PER_OBJECT = 3


def skewed_weights(count: int, skew: float = 0.8) -> list[float]:
    """Geometric popularity weights: rank i gets weight ``skew ** i``.

    ``skew`` close to 1 approaches uniform; smaller values concentrate
    accesses on the first few attributes.  All weights are positive, so
    every attribute retains a non-zero access probability, as the paper
    requires for AQ.
    """
    if count < 1:
        raise ConfigurationError(f"need at least one attribute, got {count}")
    if not 0.0 < skew <= 1.0:
        raise ConfigurationError(f"skew must lie in (0, 1], got {skew!r}")
    return [skew**rank for rank in range(count)]


class QueryWorkload:
    """Generates fully resolved queries for one client."""

    def __init__(
        self,
        client_id: int,
        database: Database,
        heat: HeatDistribution,
        rng: RandomStream,
        kind: QueryKind = QueryKind.ASSOCIATIVE,
        selectivity: int = DEFAULT_SELECTIVITY,
        attrs_per_object: int = DEFAULT_ATTRS_PER_OBJECT,
        update_probability: float = 0.0,
        attribute_skew: float = 0.8,
        class_name: str = "Root",
    ) -> None:
        if selectivity < 1:
            raise ConfigurationError(
                f"selectivity must be >= 1, got {selectivity!r}"
            )
        if not 0.0 <= update_probability <= 1.0:
            raise ConfigurationError(
                f"update probability out of range: {update_probability!r}"
            )
        self.client_id = client_id
        self.database = database
        self.heat = heat
        self.kind = kind
        self.selectivity = int(selectivity)
        self.update_probability = float(update_probability)
        self._rng = rng
        class_def = database.schema.class_def(class_name)
        self._primitives = class_def.primitive_names
        self._relationships = class_def.relationship_names
        if attrs_per_object > len(self._primitives):
            raise ConfigurationError(
                f"cannot touch {attrs_per_object} of "
                f"{len(self._primitives)} primitive attributes"
            )
        self.attrs_per_object = int(attrs_per_object)
        # Each client ranks attribute popularity in its own random order,
        # so different clients have different hot attributes (mirroring
        # the per-client hot object sets).
        self._ranked_primitives = list(self._primitives)
        rng.shuffle(self._ranked_primitives)
        self._primitive_cumweights = cumulative(
            skewed_weights(len(self._primitives), attribute_skew)
        )
        self._ranked_relationships = list(self._relationships)
        rng.shuffle(self._ranked_relationships)
        if self._relationships:
            self._relationship_cumweights = cumulative(
                skewed_weights(len(self._relationships), attribute_skew)
            )
        self._queries_generated = 0

    # ------------------------------------------------------------------
    def _pick_primitives(self, count: int) -> list[str]:
        """Sample ``count`` distinct primitive attributes by popularity."""
        ranked = self._ranked_primitives
        cumweights = self._primitive_cumweights
        weighted_index = self._rng.weighted_index
        limit = 50 * count
        picks: list[str] = []
        chosen: set[int] = set()
        attempts = 0
        while len(picks) < count:
            attempts += 1
            if attempts > limit:
                for rank in range(len(ranked)):
                    if rank not in chosen:
                        chosen.add(rank)
                        picks.append(ranked[rank])
                        if len(picks) == count:
                            break
                break
            rank = weighted_index(cumweights)
            if rank not in chosen:
                chosen.add(rank)
                picks.append(ranked[rank])
        return picks

    def _pick_relationship(self) -> str:
        rank = self._rng.weighted_index(self._relationship_cumweights)
        return self._ranked_relationships[rank]

    # ------------------------------------------------------------------
    def next_query(self, query_id: int) -> Query:
        """Generate the client's next query.

        Per selected object the draws come in a fixed order: its
        primitive picks, then (NQ) the relationship pick and the
        target's primitive picks, then the update coin flips for the
        objects just touched.
        """
        index = self._queries_generated
        self._queries_generated += 1
        selected = self.heat.select_objects(index, self.selectivity)

        pick_primitives = self._pick_primitives
        apply_updates = self._apply_updates
        count = self.attrs_per_object
        navigational = (
            self.kind is QueryKind.NAVIGATIONAL and bool(self._relationships)
        )
        accesses: list[AttributeAccess] = []
        for oid in selected:
            touched = [(oid, name) for name in pick_primitives(count)]
            if navigational:
                relationship = self._pick_relationship()
                touched.append((oid, relationship))
                target = self.database.get(oid).related_oid(relationship)
                touched.extend(
                    (target, name) for name in pick_primitives(count)
                )
            accesses += apply_updates(touched)
        return Query(
            query_id=query_id,
            client_id=self.client_id,
            kind=self.kind,
            accesses=accesses,
        )

    def _apply_updates(
        self, touched: list[tuple[OID, str]]
    ) -> list[AttributeAccess]:
        """Mark whole objects for update with probability U each.

        One coin per distinct object, in first-touch order; none at all
        when U is zero.  U was range-checked at construction, so each
        coin is a bare ``random() < U``.
        """
        probability = self.update_probability
        if probability <= 0.0:
            return [AttributeAccess(oid, name) for oid, name in touched]
        random = self._rng.random
        updated: dict[OID, bool] = {}
        for oid, __ in touched:
            if oid not in updated:
                updated[oid] = random() < probability
        return [
            AttributeAccess(oid, name, updated[oid]) for oid, name in touched
        ]

    def new_value_for(self, oid: OID, attribute: str) -> int:
        """Generate the value an update writes.

        Relationship attributes must keep pointing at a real object, so
        they get a fresh valid target; primitives get arbitrary tokens.
        """
        definition = self.database.schema.class_def(
            oid.class_name
        ).attribute(attribute)
        if definition.is_relationship:
            population = len(
                self.database.oids(definition.target_class)
            )
            target = self._rng.randint(0, population - 2)
            if target >= oid.number:
                target += 1
            return target
        return self._rng.randint(0, 1_000_000)
