"""The four workloads: how each is set up, what ops it issues, and how
each op's output is checked.

A workload object is one set-up system.  Building it (the constructor)
is what ``setup_s`` times: generating the data, building the engine,
platform or mediator, and the warm-up pass.  ``attach_oracle`` then
loads the same rows into the sqlite oracle, outside that timing.

Ops come in blocks.  The runner checks its deadline only between
blocks, so every timed run covers whole mixes and its throughput does
not depend on where in a mix the clock ran out.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass

from repro.api.session import Session
from repro.core.engine import SESQLEngine
from repro.core.stored_queries import StoredQueryRegistry
from repro.crosse.platform import CrossePlatform
from repro.durability import DurabilityOptions
from repro.federation import FederationOptions, Mediator
from repro.federation.rest import CrosseRestService
from repro.rdf.namespace import SMG
from repro.relational.engine import Database
from repro.smartground.datagen import CITIES
from repro.smartground.ontology import researcher_kb
from repro.smartground.queries import DANGER_QUERY_SPARQL
from repro.smartground.schema import create_schema

from data import (landfill_name, MATERIALS, contained_row,
                  personal_statement, purity_update, smartground_tables)
from shapes import SHAPES, KBIndex, Oracle, Shape, mismatch

SELECT_SHAPES = ["ex4.1-schema-extension", "ex4.2-schema-replacement",
                 "ex4.3-bool-extension", "ex4.4-bool-replacement",
                 "what-is-available-where", "quality-across-landfills",
                 "country-level-rollup"]
WHERE_SHAPES = ["ex4.5-replace-constant", "hazard-hotspots",
                "ex4.6-replace-variable"]
#: Every WORKLOAD shape except the quadratic ex4.6.
SERVING_SHAPES = [name for name in SHAPES
                  if name != "ex4.6-replace-variable"]

PAGE_LIMIT = 50


@dataclass
class Op:
    """One client request."""

    kind: str                    # "read" | "write"
    shape: Shape | None = None
    constant: object = None      # Python value of the shape's constant
    inline: bool = True          # constant inlined (else passed as param)
    user: str | None = None
    write: object = None         # workload-specific write payload


def sql_literal(value) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


def stored_queries() -> StoredQueryRegistry:
    registry = StoredQueryRegistry()
    registry.register("dangerQuery", DANGER_QUERY_SPARQL)
    return registry


def load_databank(tables: dict[str, list[dict]],
                  db: Database | None = None) -> Database:
    database = create_schema(db)
    for table, rows in tables.items():
        database.insert_rows(table, rows)
    return database


class Workload:
    """A SESQL session over a databank of the seeded SmartGround rows
    and the researcher KB, plus oracle-backed output checks."""

    name = ""
    shapes: list[str] = []
    N_LANDFILLS = 400
    PER_LANDFILL = 6

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.oracle: Oracle | None = None
        self.kb_index: KBIndex | None = None
        self._expected: dict = {}
        rng = random.Random(seed)
        self.tables = smartground_tables(rng, self.N_LANDFILLS,
                                         self.PER_LANDFILL)
        self.kb = researcher_kb()
        self.build(rng)

    def build(self, rng: random.Random) -> None:
        self.serve(load_databank(self.tables))

    def serve(self, databank: Database) -> None:
        """Open the session over *databank* and warm it: every shape once."""
        self.db = databank
        self.session = Session(SESQLEngine(
            databank, self.kb, stored_queries=stored_queries(),
            join_strategy="tempdb"))
        for name in self.shapes:
            self.session.execute(SHAPES[name].text())

    # -- output checks -------------------------------------------------------

    def attach_oracle(self) -> None:
        self.oracle = Oracle(self.tables)
        self.kb_index = KBIndex(self.kb.triples())

    def expected_rows(self, op: Op) -> int:
        key = (op.shape.name, op.constant)
        if key not in self._expected:
            _columns, rows = self.oracle.answer(op.shape, self.kb_index,
                                                op.constant)
            self._expected[key] = len(rows)
        return self._expected[key]

    def verify(self) -> list[str]:
        """Check every shape's full answer against the oracle."""
        problems = []
        for name in self.shapes:
            shape = SHAPES[name]
            outcome = self.session.execute(shape.text())
            expected = self.oracle.answer(shape, self.kb_index,
                                          shape.canonical_value)
            problem = mismatch(shape, expected, outcome.result.columns,
                               outcome.result.rows)
            if problem:
                problems.append(f"{name}: {problem}")
        return problems

    def explain(self, shape: Shape):
        return self.session.explain(shape.text(), analyze=True)

    # -- ops ------------------------------------------------------------------

    def execute(self, op: Op) -> int | None:
        if op.kind == "write":
            self.apply_write(op)
            return None
        return len(self.session.execute(op.shape.text()).result)

    def apply_write(self, op: Op) -> None:
        self.db.execute(op.write)

    def after_write(self, op: Op) -> None:
        """Untimed bookkeeping after a write (mirror it in the oracle)."""
        self.oracle.execute(op.write)

    def close(self) -> None:
        if self.oracle is not None:
            self.oracle.close()


class SelectEnrich(Workload):
    """The seven SELECT-enrichment shapes, round robin, warm caches.

    Writes are databank UPDATEs of one occurrence's purity, one after
    every two reads: they change no row count and leave the plan and
    extraction caches valid.
    """

    name = "select-enrich"
    shapes = SELECT_SHAPES
    N_LANDFILLS = 1000

    def blocks(self, rng: random.Random):
        rows = self.tables["elem_contained"]
        reads = [SHAPES[name] for name in self.shapes] * 2
        while True:
            block = []
            for index, shape in enumerate(reads):
                block.append(Op("read", shape, shape.canonical_value))
                if index % 2 == 1:
                    block.append(Op("write", write=purity_update(rng, rows)))
            yield block


class WhereEnrich(Workload):
    """ex4.5, hazard-hotspots and one ex4.6 per 400 ops, on a databank
    small enough that ex4.6 takes on the order of a second.

    ex4.6 is 1 read in 361, so both percentiles fall inside the fast
    shapes, never on the boundary with ex4.6.  Every tenth op is a
    purity UPDATE.
    """

    name = "where-enrich"
    shapes = WHERE_SHAPES
    N_LANDFILLS = 27
    BLOCK_OPS = 400

    def blocks(self, rng: random.Random):
        rows = self.tables["elem_contained"]
        # ex4.5 twice as often as hazard-hotspots: the median falls
        # inside ex4.5's latencies and the 95th percentile inside
        # hazard-hotspots', not on the boundary between the two.
        fast = [SHAPES["ex4.5-replace-constant"]] * 2 \
            + [SHAPES["hazard-hotspots"]]
        slow = SHAPES["ex4.6-replace-variable"]
        while True:
            block = []
            for index in range(self.BLOCK_OPS):
                if index % 10 == 9:
                    block.append(Op("write", write=purity_update(rng, rows)))
                else:
                    block.append(Op("read", fast[index % 3]))
                if index == self.BLOCK_OPS // 2:
                    block.append(Op("read", slow))
            yield block


class CrowdRest(Workload):
    """CroSSE users reading and writing through the in-process REST
    service, with durability on.

    Each of the 8 users holds the researcher-persona statements plus
    ``PERSONAL`` notes of their own.  About 20% of ops are writes
    (annotations and acceptances of a peer's note); the op after a
    write is a read by the same user, which pays for rebuilding that
    user's effective KB.  Reads fetch the first page of 50 rows of
    every shape but ex4.6 with seeded users and constants; half
    inline their constant and half pass it as a parameter, so the
    distinct texts overflow the 128-entry plan cache.
    """

    name = "crowd-rest"
    shapes = SERVING_SHAPES
    USERS = [f"user{index}" for index in range(8)]
    PERSONAL = 2000
    WRITE_EVERY = 4         # a write before every 4th read: 20% of ops

    def build(self, rng: random.Random) -> None:
        self.db = load_databank(self.tables)
        self.directory = tempfile.mkdtemp(prefix="wal-", dir=self.workdir)
        self.platform = CrossePlatform(self.db, durability=DurabilityOptions(
            directory=self.directory, fsync="batch"))
        self.platform.register_stored_query("dangerQuery",
                                            DANGER_QUERY_SPARQL)
        persona = list(self.kb.triples())
        self.statement_ids: dict[str, list[int]] = {}
        for user in self.USERS:
            self.platform.register_user(user)
            for subject, prop, obj in persona:
                self.platform.annotate_free(user, subject, prop, obj)
            ids = []
            for _ in range(self.PERSONAL):
                subject, prop, obj = personal_statement(rng, self.N_LANDFILLS)
                record = self.platform.annotate_free(
                    user, SMG[subject], SMG[prop], obj)
                ids.append(record.statement_id)
            self.statement_ids[user] = ids
        self.rest = CrosseRestService(
            self.platform, pool_capacity=min(8, os.cpu_count() or 1))
        for user in self.USERS:
            for name in self.shapes:
                self._request(Op("read", SHAPES[name],
                                 SHAPES[name].canonical_value, user=user))

    def blocks(self, rng: random.Random):
        # A fixed shape rotation with the cheap shapes twice as often as
        # ex4.5, hazard-hotspots and quality-across-landfills keeps the
        # median inside the cheap shapes and the 95th percentile inside
        # quality-across-landfills.  Each block starts one shape later,
        # so the reads that follow writes cover every shape.
        slow = ("ex4.5-replace-constant", "hazard-hotspots",
                "quality-across-landfills")
        rotation = [SHAPES[name] for name in self.shapes
                    for _ in range(1 if name in slow else 2)]
        offset = 0
        while True:
            block = []
            for index in range(len(rotation)):
                user = rng.choice(self.USERS)
                if index % self.WRITE_EVERY == 0:
                    block.append(Op("write", user=user,
                                    write=self._write_payload(rng, user)))
                shape = rotation[(offset + index) % len(rotation)]
                block.append(self._read(rng, user, shape))
            offset += 1
            yield block

    def _read(self, rng: random.Random, user: str, shape: Shape) -> Op:
        constant = None
        if shape.canonical is not None:
            kind = shape.canonical_value
            if isinstance(kind, str):
                constant = landfill_name(rng.randrange(self.N_LANDFILLS))
            elif isinstance(kind, float):
                constant = rng.randrange(10, 300) / 10
            else:
                constant = rng.randrange(10, 400) * 1000
        return Op("read", shape, constant, inline=rng.random() < 0.5,
                  user=user)

    def _write_payload(self, rng: random.Random, user: str):
        if rng.random() < 0.5:
            subject, prop, obj = personal_statement(rng, self.N_LANDFILLS)
            return ("/api/v1/annotations",
                    {"username": user, "subject": subject,
                     "property": prop, "object": obj})
        peer = rng.choice([other for other in self.USERS if other != user])
        statement = rng.choice(self.statement_ids[peer])
        return (f"/api/v1/statements/{statement}/accept",
                {"username": user})

    def _request(self, op: Op):
        shape = op.shape
        body = {"username": op.user, "limit": PAGE_LIMIT}
        if shape.canonical is None or op.inline:
            body["query"] = shape.text(
                None if op.constant is None else sql_literal(op.constant))
        else:
            body["query"] = shape.parameterized()
            body["params"] = [op.constant]
        response = self.rest.request("POST", "/api/v1/query", body)
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {response.payload}")
        return response.payload

    def execute(self, op: Op) -> int | None:
        if op.kind == "write":
            path, body = op.write
            response = self.rest.request("POST", path, body)
            if response.status != 200:
                raise RuntimeError(
                    f"HTTP {response.status}: {response.payload}")
            return None
        return len(self._request(op)["rows"])

    def expected_rows(self, op: Op) -> int:
        return min(PAGE_LIMIT, super().expected_rows(op))

    def after_write(self, op: Op) -> None:
        pass  # personal notes change no answer

    def verify(self) -> list[str]:
        """Session answers against the oracle (with the user's own
        effective KB), then REST pages against the session answer."""
        problems = []
        user = self.USERS[0]
        session = self.platform.session_for(user)
        kb_index = KBIndex(self.platform.effective_kb(user).triples())
        for name in self.shapes:
            shape = SHAPES[name]
            outcome = session.execute(shape.text())
            columns, rows = outcome.result.columns, outcome.result.rows
            problem = mismatch(shape, self.oracle.answer(
                shape, kb_index, shape.canonical_value), columns, rows)
            if problem is None:
                problem = mismatch(shape, (columns, rows),
                                   *self._all_pages(shape, user))
            if problem:
                problems.append(f"{name}: {problem}")
        return problems

    def _all_pages(self, shape: Shape, user: str):
        rows, token = [], None
        while True:
            body = {"username": user, "query": shape.text(),
                    "limit": PAGE_LIMIT}
            if token is not None:
                body["next_token"] = token
            response = self.rest.request("POST", "/api/v1/query", body)
            if response.status != 200:
                raise RuntimeError(f"HTTP {response.status}")
            rows.extend(tuple(row) for row in response.payload["rows"])
            token = response.payload["next_token"]
            if token is None:
                return response.payload["columns"], rows

    def explain(self, shape: Shape):
        return self.platform.session_for(self.USERS[0]).explain(
            shape.text(), analyze=True)

    def close(self) -> None:
        super().close()
        self.rest.close()
        self.platform.durability.close()
        shutil.rmtree(self.directory, ignore_errors=True)


#: Country groups of the four national sources.
SOURCES = {
    "south": ("Italy", "Spain", "Greece"),
    "west": ("France", "Belgium"),
    "central": ("Germany", "Czechia"),
    "east": ("Poland", "Slovenia"),
}


class FederatedRefresh(Workload):
    """SESQL over a GAV mediator of four national sources.

    ``landfill`` and ``elem_contained`` are union_all views over the
    sources; the engine's databank is the mediator's MediatedDatabank.
    Every fifth op inserts one occurrence into one source and refreshes
    the views, so the next read re-ships them: the touched source's
    fragments miss the fragment cache and the others hit it.
    """

    name = "federated-refresh"
    shapes = SERVING_SHAPES
    BLOCK_READS = 4

    def build(self, rng: random.Random) -> None:
        country = dict(CITIES)
        source_of_country = {name: source for source, names in SOURCES.items()
                             for name in names}
        source_of_landfill = {row["name"]: source_of_country[
            country[row["city"]]] for row in self.tables["landfill"]}
        self.landfills_of = {source: [] for source in SOURCES}
        for name, source in source_of_landfill.items():
            self.landfills_of[source].append(name)
        self.sources = {}
        mediator = Mediator(FederationOptions(max_workers=2))
        for source in SOURCES:
            part = {
                "landfill": [row for row in self.tables["landfill"]
                             if source_of_landfill[row["name"]] == source],
                "elem_contained": [
                    row for row in self.tables["elem_contained"]
                    if source_of_landfill[row["landfill_name"]] == source]}
            self.sources[source] = load_databank(part, Database(source))
            mediator.register_source(source, self.sources[source])
        for view, columns in (
                ("landfill", "id, name, city, landfill_type, area_m2, "
                             "opened_year"),
                ("elem_contained", "landfill_name, elem_name, amount, "
                                   "purity")):
            mediator.define_view(view, [
                (source, f"SELECT {columns} FROM {view}")
                for source in SOURCES], reconciliation="union_all")
        self.serve(mediator.as_databank())

    def blocks(self, rng: random.Random):
        shapes = [SHAPES[name] for name in self.shapes]
        offset = 0
        sources = list(SOURCES)
        while True:
            source = sources[offset % len(sources)]
            row = contained_row(rng, rng.choice(self.landfills_of[source]),
                                rng.choice(MATERIALS))
            block = [Op("write", write=(source, row))]
            for index in range(self.BLOCK_READS):
                shape = shapes[(offset + index) % len(shapes)]
                block.append(Op("read", shape, shape.canonical_value))
            offset += 1
            yield block

    @staticmethod
    def _insert_sql(row: dict) -> str:
        return (f"INSERT INTO elem_contained (landfill_name, elem_name, "
                f"amount, purity) VALUES ('{row['landfill_name']}', "
                f"'{row['elem_name']}', {row['amount']!r}, "
                f"{row['purity']!r})")

    def apply_write(self, op: Op) -> None:
        source, row = op.write
        self.sources[source].execute(self._insert_sql(row))
        self.db.refresh()

    def after_write(self, op: Op) -> None:
        self.oracle.insert("elem_contained", [op.write[1]])
        self._expected.clear()


WORKLOADS = {cls.name: cls for cls in
             (SelectEnrich, WhereEnrich, CrowdRest, FederatedRefresh)}
