"""Operation catalogs and the seeded operation streams built from them.

Each workload's catalog lives in ``reference/<workload>.json``, written by
``make_reference.py``.  The catalog is a list of *slots*; every slot holds
a few *variants* (the same question at different operating points or
simulation seeds), each with its reference answer.  A run's stream is
made from ``--seed`` alone:

* the seed picks one variant per slot, fixed for the whole run (or, in a
  catalog marked ``all_variants``, every cycle runs every variant), so
  every cycle asks the same multiset of questions and per-run statistics
  do not depend on where the time window happens to end;
* each cycle visits its operations in an order the seed shuffles anew.

The ``serve`` catalog is different (a template registry plus a pool of
fresh scenarios); :func:`serve_requests` builds its request stream.

This module uses the standard library only: ``run.py`` and the
tests import it without the program under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: Workloads measured inside one worker process (``serve`` uses a server).
IN_PROCESS = ("closed_form", "stage_graph", "explore", "simulate")
WORKLOADS = IN_PROCESS + ("serve",)

#: Every latency percentile reported needs this many samples, so that the
#: 90th percentile has at least ten samples beyond it.
MIN_SAMPLES = 100

#: Of every block of this many serve requests, one is a fresh scenario.
SERVE_BLOCK = 5


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


class Stream:
    """The seeded operation stream of one in-process workload.

    Operations are ``(slot, variant)`` pairs.  By default the seed picks
    one variant per slot, fixed for the whole run; a catalog marked
    ``all_variants`` (where the variant changes an operation's cost, as
    the simulation seed does) runs every variant in every cycle.
    """

    def __init__(self, reference: dict, seed: int) -> None:
        self.slots = reference["slots"]
        self.rng = random.Random(f"{reference['workload']}:{seed}")
        if reference.get("all_variants"):
            self.items = [(s, v) for s, slot in enumerate(self.slots)
                          for v in range(len(slot["variants"]))]
        else:
            self.items = [(s, self.rng.randrange(len(slot["variants"])))
                          for s, slot in enumerate(self.slots)]

    def entry(self, item: tuple[int, int]) -> dict:
        """The operation and reference answer of ``item``: ``{"op", "expect"}``."""
        slot, variant = item
        return self.slots[slot]["variants"][variant]

    def cycle(self) -> list[tuple[int, int]]:
        """The operations of the next cycle, in seeded order."""
        order = list(self.items)
        self.rng.shuffle(order)
        return order


# --- serve ------------------------------------------------------------------------


def serve_scenario(reference: dict, group: int, index: int) -> dict:
    """Scenario JSON fields of catalog entry ``index`` of ``group``."""
    g = reference["groups"][group]
    return {**g["base"], "flit_load": g["loads"][index]}


def serve_split(reference: dict) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """``(template, fresh)`` catalog entries: seeded once, the same every run.

    The template entries are the records the pre-seeded registry holds;
    the fresh ones are never in it, so asking one is a cache miss.
    """
    keep = reference["template_per_group"]
    template, fresh = [], []
    for g, group in enumerate(reference["groups"]):
        order = list(range(len(group["loads"])))
        random.Random(f"serve-template:{g}").shuffle(order)
        template.extend((g, i) for i in sorted(order[:keep]))
        fresh.extend((g, i) for i in sorted(order[keep:]))
    return template, fresh


def serve_requests(reference: dict, seed: int) -> Iterator[tuple[str, int, int]]:
    """Seeded ``(kind, group, index)`` requests, ``kind`` being hit or miss.

    Every block of :data:`SERVE_BLOCK` requests holds exactly one miss at a
    seeded position; hits repeat template entries chosen uniformly.  The
    stream ends when the fresh pool is used up.
    """
    rng = random.Random(f"serve:{seed}")
    template, fresh = serve_split(reference)
    rng.shuffle(fresh)
    for g, i in fresh:
        miss_at = rng.randrange(SERVE_BLOCK)
        for position in range(SERVE_BLOCK):
            if position == miss_at:
                yield "miss", g, i
            else:
                tg, ti = template[rng.randrange(len(template))]
                yield "hit", tg, ti
