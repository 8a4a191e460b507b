"""Seeded inputs: SmartGround rows, personal statements, write payloads.

The generator mirrors ``repro.smartground.datagen`` (cities, Zipf-skewed
materials, lognormal amounts) but gives every landfill exactly the same
number of materials, so a databank's size — and with it the cost of the
quadratic ex4.6 — does not change with the seed.  Only the contents do.
"""

from __future__ import annotations

import random

from repro.smartground.datagen import (CITIES, LANDFILL_TYPES,
                                       SmartGroundConfig, material_names)

MATERIALS = material_names(SmartGroundConfig())
#: Early materials are far more common, as in the repo's generator.
_WEIGHTS = [1.0 / (rank + 1) for rank in range(len(MATERIALS))]

#: Properties of the personal statements users write.  None of them is
#: read by a query shape, so writes change each user's KB (and its
#: caches) without changing any answer the output check relies on.
PERSONAL_PROPERTIES = ("remark", "observedAt", "sampledBy", "seenIn")


def landfill_name(index: int) -> str:
    return f"lf{index:04d}"


def smartground_tables(rng: random.Random, n_landfills: int,
                       per_landfill: int) -> dict[str, list[dict]]:
    """``landfill`` and ``elem_contained`` rows: exactly
    ``n_landfills * per_landfill`` material occurrences."""
    landfills = []
    contained = []
    for index in range(n_landfills):
        name = landfill_name(index)
        landfills.append({
            "id": index, "name": name,
            "city": rng.choice(CITIES)[0],
            "landfill_type": rng.choice(LANDFILL_TYPES),
            "area_m2": round(rng.uniform(5_000, 500_000), 1),
            "opened_year": rng.randint(1955, 2015)})
        for material in _distinct_materials(rng, per_landfill):
            contained.append(contained_row(rng, name, material))
    return {"landfill": landfills, "elem_contained": contained}


def contained_row(rng: random.Random, landfill: str, material: str) -> dict:
    return {"landfill_name": landfill, "elem_name": material,
            "amount": round(rng.lognormvariate(2.0, 1.2), 3),
            "purity": round(rng.uniform(0.05, 0.98), 3)}


def _distinct_materials(rng: random.Random, count: int) -> list[str]:
    chosen: list[str] = []
    while len(chosen) < count:
        material = rng.choices(MATERIALS, _WEIGHTS)[0]
        if material not in chosen:
            chosen.append(material)
    return chosen


def purity_update(rng: random.Random, rows: list[dict]) -> str:
    """An UPDATE of one occurrence's purity: changes no row count."""
    row = rng.choice(rows)
    return (f"UPDATE elem_contained SET purity = "
            f"{round(rng.uniform(0.05, 0.98), 3)} "
            f"WHERE landfill_name = '{row['landfill_name']}' "
            f"AND elem_name = '{row['elem_name']}'")


def personal_statement(rng: random.Random, n_landfills: int) -> tuple:
    """(subject local name, property, literal object) of a user's note."""
    if rng.random() < 0.5:
        subject = rng.choice(MATERIALS)
    else:
        subject = landfill_name(rng.randrange(n_landfills))
    prop = rng.choice(PERSONAL_PROPERTIES)
    return subject, prop, f"note-{rng.randrange(1_000_000)}"
