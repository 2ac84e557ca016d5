"""Object-oriented database substrate.

Schema/object model, the database container, the LRU-buffered
disk/memory timing model, the query model and the database server
process (imported from :mod:`repro.oodb.server`).
"""

from repro.oodb.database import (
    DEFAULT_OBJECT_COUNT,
    Database,
    build_default_database,
)
from repro.oodb.objects import AttributeState, DBObject, OID
from repro.oodb.query import AttributeAccess, Query, QueryKind
from repro.oodb.schema import (
    AttributeDef,
    ClassDef,
    DEFAULT_ATTRIBUTE_SIZE,
    OBJECT_OVERHEAD_BYTES,
    Schema,
    default_root_schema,
)
from repro.oodb.storage import (
    DISK_BANDWIDTH_BPS,
    MEMORY_BANDWIDTH_BPS,
    StorageModel,
)

__all__ = [
    "AttributeAccess",
    "AttributeDef",
    "AttributeState",
    "ClassDef",
    "Database",
    "DBObject",
    "DEFAULT_ATTRIBUTE_SIZE",
    "DEFAULT_OBJECT_COUNT",
    "DISK_BANDWIDTH_BPS",
    "MEMORY_BANDWIDTH_BPS",
    "OBJECT_OVERHEAD_BYTES",
    "OID",
    "Query",
    "QueryKind",
    "Schema",
    "StorageModel",
    "build_default_database",
    "default_root_schema",
]
