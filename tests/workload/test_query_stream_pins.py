"""Pinned digests of generated query streams.

Each case generates the first 200 queries of one client and hashes
every access in order: the query id, the OID, the attribute and the
update flag.  Any change to the order or number of random draws in
query generation (heat picks, attribute picks, navigation, update
coin flips) changes a digest and fails here by name, before it shows
up only as a moved golden pin.  The digests were computed before the
generation path was rewritten for speed and must not move.  The CSH
and cyclic digests were computed before the heat distributions'
distinct-pick loops were merged into one.
"""

import hashlib

import pytest

from repro.oodb.database import build_default_database
from repro.oodb.query import QueryKind
from repro.sim.rand import RandomStream
from repro.workload.heat import (
    ChangingSkewedHeat,
    CyclicHeat,
    SequentialScanHeat,
    ShiftingHotspotHeat,
    SkewedHeat,
    UniformHeat,
    ZipfHeat,
)
from repro.workload.queries import QueryWorkload

QUERIES = 200

HEATS = {
    "SH": lambda oids, rng: SkewedHeat(oids, rng),
    "zipf": lambda oids, rng: ZipfHeat(oids, rng),
    # A short shift period so the window slides within the stream.
    "hotspot": lambda oids, rng: ShiftingHotspotHeat(
        oids, rng, shift_every=40
    ),
    "scan": lambda oids, rng: SequentialScanHeat(oids, rng),
    "uniform": lambda oids, rng: UniformHeat(oids, rng),
    # A short change period so the hot set is re-picked within the stream.
    "CSH": lambda oids, rng: ChangingSkewedHeat(oids, rng, change_every=40),
    "cyclic": lambda oids, rng: CyclicHeat(oids, rng),
}

PINS = {
    ("AQ", 0.0, "SH"): (
        "e1ee905a18e2ca0abfb93586829eae297277d944785439abda3de1f9d8b266e2"
    ),
    ("AQ", 0.0, "zipf"): (
        "867fcb9046229116486062cb7636d20644d4c3231b21d54e71289d200a49df15"
    ),
    ("AQ", 0.0, "hotspot"): (
        "905200c6e56e242ca0dee1e1b40a3384f46b3b4da8ca6ed09afc5c59a9dda5a6"
    ),
    ("AQ", 0.0, "scan"): (
        "df536efd0e971f9a671e6f66d4491c42c4ac7264df3971a73831772ddcd12d4f"
    ),
    ("AQ", 0.0, "uniform"): (
        "c24646144ab7c7adda78e054458eb76e8f071791d6efce07dec711509d8bb05e"
    ),
    ("AQ", 0.0, "cyclic"): (
        "1b21998e9246df2c2985990112c318d9557c6f1318f6108de22c59555e8189c7"
    ),
    ("AQ", 0.0, "CSH"): (
        "9687990a6de84ad2b5aa2102a56d1da5e1d96ea7a95053188a3c4a99407667b2"
    ),
    ("AQ", 0.5, "SH"): (
        "006143bd20b4d5618b8f81a6904ea9891c4e1b35f61eb3ee082b702f7b590afc"
    ),
    ("AQ", 0.5, "zipf"): (
        "b24eee27266445d9f30bc7a22d0f4653942f6b81d05c0d360e9ef4e59445e9dc"
    ),
    ("AQ", 0.5, "hotspot"): (
        "7badc8cfed3dac742693a9ee6e932f080868fef388274d7b398fa2df19eb5837"
    ),
    ("AQ", 0.5, "scan"): (
        "504a7ed0c69abdaaebece7e202c1353d5193d1bdb892b15d01cb9208ef876fc3"
    ),
    ("AQ", 0.5, "uniform"): (
        "834d62d2394e39cd0356742f087c57729848a302a26f5ed378ede0e663660b54"
    ),
    ("AQ", 0.5, "cyclic"): (
        "a64b4a992ce69eef52db2071cf3c656867acb830cea75bb25eec2bb4a06078b7"
    ),
    ("AQ", 0.5, "CSH"): (
        "34219268efb6d920762e5071702e62e0150c2b4d2c022c46e06b474977947cb7"
    ),
    ("NQ", 0.0, "SH"): (
        "b7f1e62a2f3eee551b777af7cf928ed16e1d1787776700523c1ad543905fc55a"
    ),
    ("NQ", 0.0, "zipf"): (
        "703baa0873b81ff75b3ac9bf625deb28e8a9b524ccef3c25ed7b418a59bf9c7e"
    ),
    ("NQ", 0.0, "hotspot"): (
        "0b597c86f2b9943186297fac182327a7911d96cf684e723717ed2e4c80afc11a"
    ),
    ("NQ", 0.0, "scan"): (
        "3f3ed38590f14f4bdbe56898f5dedbb698ca2ea343dc848414cf8e676bed0717"
    ),
    ("NQ", 0.0, "uniform"): (
        "1959b5147baef38d4c3271574f4f55a946544e4e03a728f5cf6d4d3038c35073"
    ),
    ("NQ", 0.0, "cyclic"): (
        "c31e2beab3c908a6bb910646a4cdd01d3ccc2a70090a692097bdcf99b9a18e0f"
    ),
    ("NQ", 0.0, "CSH"): (
        "e522ebe3641a9d0f2629b51cf2b921042660dfe524989db937a5d3d28c7eb2de"
    ),
    ("NQ", 0.5, "SH"): (
        "f20f7651991e0295be34779cff7ad01068c550fd29f8c6f03edb572828f44c56"
    ),
    ("NQ", 0.5, "zipf"): (
        "cb3d9b3fe79fb05c78307623c6a8ccadfff3e548c78039f85ffbf6083aa360e0"
    ),
    ("NQ", 0.5, "hotspot"): (
        "509fd33c0b3171aad208eb53a72827f5bb6a6264961a4c61a22495f6f51ecc88"
    ),
    ("NQ", 0.5, "scan"): (
        "218c025ea0660ad5a429284dd2434fb33676a35f1cb1454adf666933798f104c"
    ),
    ("NQ", 0.5, "uniform"): (
        "2c36ea5ef12cf0ee6075718b0c4632f00a631bca7cd3b3128cd1fe3e51a4c745"
    ),
    ("NQ", 0.5, "cyclic"): (
        "3ceefb195991d1fca4b63d8d848268e98e2f5f02727fc3cc5f00cb71d8b84020"
    ),
    ("NQ", 0.5, "CSH"): (
        "955c107f04f0a6509954e7260ac1cd05132ef90fdd3269ffe50866820a5096bd"
    ),
}


@pytest.fixture(scope="module")
def database():
    return build_default_database(2000, rng=RandomStream(42, "database"))


def stream_digest(database, kind, update_probability, heat):
    rng = RandomStream(42, f"client-0/{kind}/{update_probability}/{heat}")
    workload = QueryWorkload(
        client_id=0,
        database=database,
        heat=HEATS[heat](database.oids("Root"), rng.fork("heat")),
        rng=rng.fork("queries"),
        kind=QueryKind(kind),
        update_probability=update_probability,
    )
    digest = hashlib.sha256()
    for query_id in range(QUERIES):
        query = workload.next_query(query_id)
        for access in query.accesses:
            digest.update(
                f"{query_id} {access.oid.class_name} {access.oid.number} "
                f"{access.attribute} {int(access.is_update)}\n".encode()
            )
    return digest.hexdigest()


@pytest.mark.parametrize(
    "kind, update_probability, heat",
    sorted(PINS),
    ids=[f"{k}-U{u:g}-{h}" for k, u, h in sorted(PINS)],
)
def test_query_stream_matches_pin(
    database, kind, update_probability, heat
):
    digest = stream_digest(database, kind, update_probability, heat)
    assert digest == PINS[kind, update_probability, heat]
