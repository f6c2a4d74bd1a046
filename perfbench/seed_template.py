"""Seed the ``serve`` workload's template registry (once per checkout).

    python3 perfbench/seed_template.py OUT_DIR

Answers every template scenario of ``reference/serve.json`` through
``Runner(registry).run`` and indexes the registry, so each serve run can
start from a copy of the same 10,000-record state.  ``digests.json`` maps
each template entry to the digest of its stored metrics, against which a
cache hit must be byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import catalog
import checks


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    from repro.runs import RunIndex, RunRegistry, Runner, Scenario

    reference = catalog.load_reference("serve")
    template, _ = catalog.serve_split(reference)
    registry = RunRegistry(out / "registry")
    runner = Runner(registry=registry)
    digests = {}
    for g, i in template:
        record = runner.run(Scenario(**catalog.serve_scenario(reference, g, i)))
        stored = json.loads(json.dumps(record.to_json()))
        digests[f"{g}:{i}"] = checks.metrics_digest(stored["metrics"])
    with RunIndex(registry) as index:
        index.refresh()
    (out / "digests.json").write_text(json.dumps(digests), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
