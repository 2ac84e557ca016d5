"""Hybrid-caching prefetch decisions (Section 3.1.4 of the paper).

Under HC the server pushes, along with the attributes a query asked for,
any further attribute of a qualified object whose *access probability*
clears a threshold.  The paper's Experiment #1 sets the threshold ``c``
to two standard deviations below the mean access rate over all
attributes.

**Interpretation note.**  Probabilities over ``n`` attributes sum to one,
so their mean is exactly ``1/n``; whenever the popularity skew is strong
enough to matter (coefficient of variation above 0.5 — true for any
80/20-style attribute skew), ``mean - 2 * std`` is *negative* and the
literal rule would prefetch every attribute, collapsing HC into OC.
That contradicts the paper's own results (HC transmits like AC).  We
therefore floor the threshold at the uniform share ``1/n``: an attribute
must at least pull its uniform-popularity weight to be prefetched.  With
the paper-style skews this selects exactly the hot attributes.  The
un-floored literal rule remains available (``floor_at_uniform=False``)
and is compared in the ablation benchmarks.

The server learns access probabilities from the requests themselves:
each request names both the attributes it needs *and* (via the existent
list) the attributes the client satisfied locally, so the tracker sees
every attribute access a client performs.
"""

from __future__ import annotations

import math
import typing as t

from repro.oodb.schema import ClassDef


class AttributeAccessTracker:
    """Per-client, per-class attribute access frequencies."""

    def __init__(
        self, k_sigma: float = 2.0, floor_at_uniform: bool = True
    ) -> None:
        #: Threshold is ``mean - k_sigma * std`` of attribute probabilities.
        self.k_sigma = float(k_sigma)
        #: Floor the threshold at the uniform share 1/n (see module docs).
        self.floor_at_uniform = floor_at_uniform
        self._counts: dict[tuple[int, str], dict[str, int]] = {}

    def record_access(
        self,
        client_id: int,
        class_name: str,
        attributes: t.Sequence[str],
    ) -> None:
        """Count one access by ``client_id`` to each of ``attributes``
        of ``class_name`` objects.

        Counts are kept per (client, class), so one call with a
        request's names for a class counts what one call per object
        would: the server makes one call per class of a request.  A
        name listed twice counts twice.  A bare ``str`` is refused,
        because iterating it would count its characters.
        """
        if isinstance(attributes, str):
            raise TypeError(
                f"attributes must be a sequence of names, got {attributes!r}"
            )
        key = (client_id, class_name)
        counts = self._counts.setdefault(key, {})
        for attribute in attributes:
            counts[attribute] = counts.get(attribute, 0) + 1

    def access_probabilities(
        self, client_id: int, class_name: str
    ) -> dict[str, float]:
        """Observed access shares per attribute (empty if nothing seen)."""
        counts = self._counts.get((client_id, class_name), {})
        total = sum(counts.values())
        if total == 0:
            return {}
        return {
            name: count / total for name, count in sorted(counts.items())
        }

    def _cutoff(
        self, probabilities: dict[str, float], class_def: ClassDef
    ) -> float:
        """Threshold for a probability table already in hand.

        The floor uses the uniform share over the attributes this client
        actually accesses (e.g. the nine primitives under AQ, all twelve
        under NQ), so attributes the workload never touches do not dilute
        the bar the hot ones must clear.
        """
        all_names = class_def.attribute_names
        values = [probabilities.get(name, 0.0) for name in all_names]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        cutoff = mean - self.k_sigma * math.sqrt(variance)
        if self.floor_at_uniform:
            observed = sum(1 for v in values if v > 0.0) or len(all_names)
            cutoff = max(cutoff, 1.0 / observed)
        return cutoff

    def threshold(self, client_id: int, class_def: ClassDef) -> float:
        """Current prefetch threshold for this client and class."""
        return self._cutoff(
            self.access_probabilities(client_id, class_def.name), class_def
        )

    def prefetch_set(
        self, client_id: int, class_def: ClassDef
    ) -> frozenset[str]:
        """Attributes worth prefetching for this client.

        Attributes whose observed access probability strictly exceeds the
        threshold.  With no observations yet the set is empty — HC
        degrades to AC until statistics accumulate.

        Computed on every call, with no memo: the server asks once per
        class of a request, right after that request's accesses were
        recorded, so a memo would never hit.  Frozen so the server can
        share one answer across a request's objects.
        """
        probabilities = self.access_probabilities(client_id, class_def.name)
        if not probabilities:
            return frozenset()
        cutoff = self._cutoff(probabilities, class_def)
        return frozenset(
            name
            for name, probability in probabilities.items()
            if probability > cutoff
        )

    def observed_classes(self) -> list[tuple[int, str]]:
        """(client, class) pairs with recorded statistics."""
        return sorted(self._counts)
