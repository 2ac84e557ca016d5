#!/usr/bin/env python3
"""The paper's motivating application: an Advanced Traveler Information
System (ATIS) browsed from a tourist's wireless portable.

This example exercises the *programming API* of the library rather than
the experiment harness: it defines the ATIS schema from Section 3.1
(Places to Stay / Places to Eat style classes), builds the client-side
storage cache, and walks through the paper's protocol by hand — probe
the local cache, build an existent list, fetch the rest from the
server, cache the reply, and keep answering queries from the local
cache after a disconnection.

Run:  python examples/atis_tourist.py
"""

from repro.core.granularity import CachingGranularity
from repro.core.replacement import create_policy
from repro.core.storage_cache import ClientStorageCache
from repro.net.message import RequestMessage
from repro.net.network import Network
from repro.oodb.database import Database
from repro.oodb.objects import DBObject, OID
from repro.oodb.schema import AttributeDef, ClassDef, Schema
from repro.oodb.server import DatabaseServer
from repro.sim.environment import Environment


def build_atis_schema() -> Schema:
    """A compact version of Figure 1a's traveler-information schema."""
    places_to_stay = ClassDef(
        "PlacesToStay",
        [
            AttributeDef("name", size_bytes=40),
            AttributeDef("city", size_bytes=24),
            AttributeDef("vacancy", size_bytes=8),
            AttributeDef("rate", size_bytes=8),
            AttributeDef(
                "nearby_food",
                size_bytes=8,
                is_relationship=True,
                target_class="PlacesToEat",
            ),
        ],
    )
    places_to_eat = ClassDef(
        "PlacesToEat",
        [
            AttributeDef("name", size_bytes=40),
            AttributeDef("cuisine", size_bytes=16),
            AttributeDef("price_range", size_bytes=8),
        ],
    )
    return Schema([places_to_stay, places_to_eat])


def build_atis_database(schema: Schema) -> Database:
    database = Database(schema)
    stay = schema.class_def("PlacesToStay")
    eat = schema.class_def("PlacesToEat")
    hotels = [
        ("Harbour View", 1, 30, 120),
        ("Peak Lodge", 1, 0, 95),
        ("Kowloon Inn", 2, 12, 60),
        ("Island Suites", 2, 4, 210),
    ]
    for number, (name, city, vacancy, rate) in enumerate(hotels):
        database.add(
            DBObject(
                OID("PlacesToStay", number),
                stay,
                {
                    "name": hash(name) % 10_000,
                    "city": city,
                    "vacancy": vacancy,
                    "rate": rate,
                    "nearby_food": number % 2,
                },
            )
        )
    for number, (name, cuisine, price) in enumerate(
        [("Dim Sum House", 1, 2), ("Noodle Bar", 2, 1)]
    ):
        database.add(
            DBObject(
                OID("PlacesToEat", number),
                eat,
                {"name": hash(name) % 10_000, "cuisine": cuisine,
                 "price_range": price},
            )
        )
    return database


def read_attribute(cache, granularity, oid, attribute, now):
    """The paper's attribute *method*: the fresh cached value or ``None``.

    It answers the same way connected or disconnected, leaving the
    caller to choose between a remote round and degraded operation.
    """
    entry = cache.lookup(granularity.key_for(oid, attribute))
    if entry is None or not entry.is_valid(now):
        return None
    cache.touch(entry.key, now)
    return entry.value


def main() -> None:
    env = Environment()
    schema = build_atis_schema()
    database = build_atis_database(schema)
    network = Network(env)
    server = DatabaseServer(env, database, network, buffer_capacity=4)

    # The tourist's portable: a small attribute-grained storage cache.
    granularity = CachingGranularity.ATTRIBUTE
    cache = ClientStorageCache(
        capacity_bytes=2_048, policy=create_policy("ewma-0.5")
    )

    # --- Query 1 (connected): which hotels have vacancies? -------------
    # "select x.name, x.city from x in PlacesToStay where x.vacancy > 0"
    print("Q1: hotels with vacancies (everything is remote the first time)")
    wanted = ["name", "city", "vacancy"]
    qualifying = [
        oid
        for oid in database.oids("PlacesToStay")
        if database.get(oid).read("vacancy") > 0
    ]
    # Probe the cache table; nothing is cached yet, so all items go on
    # the needed list and the existent list stays empty.
    needed = {
        oid: tuple(
            a for a in wanted
            if read_attribute(cache, granularity, oid, a, env.now) is None
        )
        for oid in qualifying
    }
    request = RequestMessage(
        client_id=0,
        query_id=1,
        granularity=granularity,
        needed=needed,
    )
    reply, __, service_time = server.serve(request)
    print(f"  request {request.size_bytes} B -> reply {reply.size_bytes} B"
          f" (server time {service_time * 1e3:.3f} ms)")
    for item in reply.items:
        cache.admit(item.key, item.value, item.version, 64, env.now,
                    reply.expiry_deadline(item, env.now))
    print(f"  cached {len(cache)} attribute values in the cache table")

    # --- Query 2 (connected): repeat -> existent list covers it all ----
    print("Q2: same query again (fully satisfied from the cache table)")
    hits = [
        (oid, a)
        for oid in qualifying
        for a in wanted
        if read_attribute(cache, granularity, oid, a, env.now) is not None
    ]
    print(f"  {len(hits)} locally answered attribute reads, "
          "no wireless traffic at all")

    # --- Query 3 (disconnected): the transparency argument -------------
    print("Q3: in the hotel basement (disconnected), same query")
    answered = sum(
        1
        for oid in qualifying
        for a in wanted
        if read_attribute(cache, granularity, oid, a, env.now) is not None
    )
    missing = sum(
        1
        for oid in database.oids("PlacesToStay")
        if cache.resident_count(oid) == 0
    )
    print(f"  {answered} reads served from local storage; "
          f"{missing} hotels were never cached and stay unavailable")
    print("  the attribute *methods* simply return None for those — the "
          "application code is identical connected or not")


if __name__ == "__main__":
    main()
