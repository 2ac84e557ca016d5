"""The event taxonomy's structural contract."""

import dataclasses
import importlib
import pkgutil

import repro
from repro.obs.events import ALL_EVENT_TYPES, SimEvent


def _event_classes():
    """``SimEvent`` and every subclass defined anywhere in ``repro``."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, pending = [], [SimEvent]
    while pending:
        cls = pending.pop()
        # Only the package's own classes: a test-local subclass is not
        # part of the taxonomy sinks receive.
        if cls.__module__.split(".")[0] == "repro":
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def test_every_event_class_is_a_frozen_dataclass():
    # Sinks receive the same instance in subscription order; a mutable
    # event would let an earlier sink change what a later one records.
    classes = _event_classes()
    assert set(ALL_EVENT_TYPES) < set(classes)
    for cls in classes:
        assert dataclasses.is_dataclass(cls), cls.__qualname__
        assert cls.__dataclass_params__.frozen, cls.__qualname__
