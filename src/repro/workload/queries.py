"""Query generation: selectivity, query kind, attribute skew, updates.

Combines a heat distribution (which objects), a skewed attribute
popularity (which attributes of each object), the query kind (AQ touches
``attrs_per_object`` primitives per object; NQ additionally traverses one
relationship and touches attributes of the related object), and the
update probability ``U`` (each touched object is updated with
probability U, modifying all of its touched attributes).
"""

from __future__ import annotations

from bisect import bisect_right

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
        ranked_relationships = list(self._relationships)
        rng.shuffle(ranked_relationships)
        if self._relationships:
            self._relationship_cumweights = cumulative(
                skewed_weights(len(self._relationships), attribute_skew)
            )
        # A draw indexes these by its ``bisect_right`` position, which is
        # one past the last rank when the scaled draw reaches the total:
        # the repeated last entry is the clamp.
        self._primitive_by_draw = (
            self._ranked_primitives + self._ranked_primitives[-1:]
        )
        self._relationship_by_draw = (
            ranked_relationships + ranked_relationships[-1:]
        )
        self._navigational = kind is QueryKind.NAVIGATIONAL and bool(
            self._relationships
        )
        self._queries_generated = 0

    # ------------------------------------------------------------------
    def next_query(self, query_id: int) -> Query:
        """Generate the client's next query in one loop over its objects.

        Per selected object the draws come in a fixed order: its
        primitive picks, then (NQ) the relationship pick and the
        target's primitive picks, then one update coin per distinct
        object just touched, in first-touch order (none when U is
        zero; U was range-checked at construction, so a coin is a bare
        ``random() < U``).

        A pick is :meth:`~repro.sim.rand.RandomStream.weighted_index`
        written out: one ``random()`` scaled by the total weight and a
        ``bisect_right`` into the cumulative weights, whose clamp to
        the last rank is the padding entry of the ``_by_draw`` lists.
        A rank the object already has is drawn again; after ``50 *
        attrs_per_object`` draws the object takes its remaining picks
        from the untaken ranks in popularity order, so a degenerate
        skew cannot loop forever.
        """
        index = self._queries_generated
        self._queries_generated += 1
        selected = self.heat.select_objects(index, self.selectivity)

        random = self._rng.raw_random
        ranked = self._ranked_primitives
        by_draw = self._primitive_by_draw
        cumweights = self._primitive_cumweights
        total = cumweights[-1]
        count = self.attrs_per_object
        limit = 50 * count
        probability = self.update_probability
        navigational = self._navigational
        make = tuple.__new__
        accesses: list[AttributeAccess] = []
        append = accesses.append
        for oid in selected:
            # (object, attributes) in touch order: the selected object,
            # then under NQ the relationship's target.
            legs: list[tuple[OID, list[str]]] = []
            subject = oid
            while True:
                names: list[str] = []
                attempts = 0
                while len(names) < count:
                    attempts += 1
                    if attempts > limit:
                        names += [n for n in ranked if n not in names][
                            : count - len(names)
                        ]
                        break
                    name = by_draw[bisect_right(cumweights, random() * total)]
                    if name not in names:
                        names.append(name)
                legs.append((subject, names))
                if not navigational or len(legs) == 2:
                    break
                relationship = self._relationship_by_draw[
                    bisect_right(
                        self._relationship_cumweights,
                        random() * self._relationship_cumweights[-1],
                    )
                ]
                names.append(relationship)
                subject = self.database.get(oid).related_oid(relationship)
            update = False
            for leg, (subject, names) in enumerate(legs):
                if probability > 0.0 and (leg == 0 or subject != oid):
                    update = random() < probability
                for name in names:
                    append(make(AttributeAccess, (subject, name, update)))
        return Query(
            query_id=query_id,
            client_id=self.client_id,
            kind=self.kind,
            accesses=accesses,
        )

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
