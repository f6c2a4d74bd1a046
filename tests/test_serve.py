"""Tests for the scenario service: cache semantics, coalescing, HTTP."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.errors import SimulationError
from repro.obs.metrics import METRICS
from repro.runs import RunRegistry, Scenario, run
from repro.serve import ScenarioCache, ScenarioService


def tiny_scenario(**overrides) -> Scenario:
    defaults = dict(
        num_processors=16,
        message_flits=16,
        flit_load=0.04,
        sweep_points=4,
        seed=11,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def comparable(result) -> dict:
    """The record's deterministic content: everything but timestamps,
    identifiers derived from them, wall-clock timings and the telemetry
    block — the exact "byte-identical modulo timestamps/observability"
    contract a cache hit promises."""
    data = result.to_json()
    data.pop("run_id")
    data.pop("created_at")
    data.pop("timings")
    data["metrics"] = dict(data["metrics"])
    data["metrics"].pop("observability", None)
    return data


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(tmp_path / "registry")


class TestScenarioCache:
    def test_miss_solves_and_persists(self, registry):
        cache = ScenarioCache(registry)
        sc = tiny_scenario()
        record, was_hit = cache.solve(sc)
        assert was_hit is False
        assert record.provenance["scenario_key"] == sc.key()
        assert registry.load(record.run_id) == record
        cache.close()

    def test_hit_returns_stored_record(self, registry):
        cache = ScenarioCache(registry)
        sc = tiny_scenario()
        first, _ = cache.solve(sc)
        second, was_hit = cache.solve(sc)
        assert was_hit is True
        assert second == first  # the stored record itself, not a re-solve
        cache.close()

    def test_label_does_not_split_the_cache(self, registry):
        cache = ScenarioCache(registry)
        first, _ = cache.solve(tiny_scenario(label="monday"))
        second, was_hit = cache.solve(tiny_scenario(label="tuesday"))
        assert was_hit is True
        assert second == first
        cache.close()

    def test_backend_and_faults_split_the_cache(self, registry):
        solved = []

        def solver(sc):
            solved.append(sc)
            return run(sc)

        cache = ScenarioCache(registry, solver=solver)
        cache.solve(tiny_scenario())
        # ``model`` is an alias of ``batch``: the same question, a cache hit.
        cache.solve(tiny_scenario(backend="model"))
        cache.solve(tiny_scenario(backend="baseline"))
        cache.solve(tiny_scenario(faults={"dead_links": ["up:1:0"]}))
        assert len(solved) == 3
        cache.close()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),  # bft
            dict(topology="generalized-fattree", children=2, parents=2,
                 num_processors=8),
            dict(topology="hypercube"),
            dict(topology="kary-ncube", radix=3, num_processors=27),
            dict(faults={"dead_links": ["up:1:0"]}),  # degraded bft
        ],
        ids=["bft", "generalized-fattree", "hypercube", "kary-ncube", "faulted"],
    )
    def test_cached_answer_matches_fresh_solve(self, registry, overrides):
        """A served-from-cache record equals a brand-new solve of the same
        scenario in every deterministic field, across all four topology
        families and a degraded fabric."""
        sc = tiny_scenario(**overrides)
        cache = ScenarioCache(registry)
        cached, was_hit = cache.solve(sc)
        assert was_hit is False
        fresh = run(sc)
        assert comparable(cached) == comparable(fresh)
        again, was_hit = cache.solve(sc)
        assert was_hit is True
        assert comparable(again) == comparable(fresh)
        cache.close()


def run_async(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_solve(self, registry):
        """Eight concurrent requests for the same scenario: one solve."""
        sc = tiny_scenario()
        release = threading.Event()
        calls = []

        def gated_solver(scenario):
            calls.append(scenario)
            assert release.wait(timeout=30.0)
            return run(scenario)

        service = ScenarioService(registry, port=0, solver=gated_solver)

        async def go():
            tasks = [
                asyncio.create_task(service.solve_scenario(sc)) for _ in range(8)
            ]
            # Let every task reach its await; the first registers the
            # in-flight future, the other seven must attach to it.
            while len(calls) == 0:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            release.set()
            results = await asyncio.gather(*tasks)
            await service.stop()
            return results

        results = run_async(go())
        assert len(calls) == 1
        hows = sorted(how for _, how in results)
        assert hows == ["coalesced"] * 7 + ["miss"]
        run_ids = {record.run_id for record, _ in results}
        assert len(run_ids) == 1
        counters = service.metrics.snapshot()["counters"]
        assert counters["serve.cache.misses"] == 1
        assert counters["serve.coalesced"] == 7
        assert service.metrics.snapshot()["gauges"]["serve.inflight"] == 0

    def test_exactly_one_backend_solve_for_eight_requests(self, registry):
        """Pin the coalescing guarantee on the backend's own counter: eight
        concurrent identical requests consume exactly as many ``solve.batch``
        evaluations as one direct ``run()``."""
        sc = tiny_scenario()
        with METRICS.collect() as baseline:
            run(sc)
        expected = baseline.data["counters"]["solve.batch"]
        assert expected >= 1

        service = ScenarioService(registry, port=0)

        async def go():
            results = await asyncio.gather(
                *(service.solve_scenario(sc) for _ in range(8))
            )
            await service.stop()
            return results

        with METRICS.collect() as telemetry:
            results = run_async(go())
        assert telemetry.data["counters"]["solve.batch"] == expected
        assert sorted(how for _, how in results).count("miss") == 1

    def test_failed_solve_is_not_cached_and_resets_inflight(self, registry):
        sc = tiny_scenario()
        attempts = []

        def flaky_solver(scenario):
            attempts.append(scenario)
            if len(attempts) == 1:
                raise SimulationError("transient backend failure")
            return run(scenario)

        service = ScenarioService(registry, port=0, solver=flaky_solver)

        async def go():
            with pytest.raises(SimulationError):
                await service.solve_scenario(sc)
            record, how = await service.solve_scenario(sc)
            await service.stop()
            return record, how

        record, how = run_async(go())
        assert how == "miss"  # the failure left no cache entry behind
        assert len(attempts) == 2
        assert registry.load(record.run_id) == record


async def http_request(service, method, path, body=None):
    """Raw HTTP/1.1 round trip against a started service."""
    reader, writer = await asyncio.open_connection(service.host, service.port)
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {service.host}\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    writer.write(head.encode("ascii") + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("ascii").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body_blob) if body_blob else None


class TestHTTP:
    def run_with_service(self, registry, scenario_fn):
        async def go():
            service = ScenarioService(registry, port=0)
            await service.start()
            try:
                return await scenario_fn(service)
            finally:
                await service.stop()

        return run_async(go())

    def test_solve_miss_then_hit(self, registry):
        sc = tiny_scenario()

        async def steps(service):
            first = await http_request(service, "POST", "/solve", sc.to_json())
            second = await http_request(service, "POST", "/solve", sc.to_json())
            stats = await http_request(service, "GET", "/stats")
            return first, second, stats

        first, second, stats = self.run_with_service(registry, steps)
        status, headers, record = first
        assert status == 200
        assert headers["x-repro-cache"] == "miss"
        assert record["provenance"]["scenario_key"] == sc.key()
        status, headers, cached = second
        assert status == 200
        assert headers["x-repro-cache"] == "hit"
        assert cached == record  # the identical stored record, byte for byte
        counters = stats[2]["counters"]
        assert counters["serve.requests"] == 3
        assert counters["serve.cache.hits"] == 1
        assert counters["serve.cache.misses"] == 1
        assert "serve/solve" in stats[2]["spans"]
        assert "serve/request" in stats[2]["spans"]

    def test_health(self, registry):
        async def steps(service):
            return await http_request(service, "GET", "/health")

        status, _, payload = self.run_with_service(registry, steps)
        assert status == 200
        assert payload["ok"] is True
        assert str(registry.path) in payload["registry"]

    def test_error_statuses(self, registry):
        async def steps(service):
            return (
                await http_request(service, "POST", "/solve", None),
                await http_request(
                    service, "POST", "/solve", {"bogus": 1, "topology": "bft"}
                ),
                await http_request(service, "GET", "/nowhere"),
                await http_request(service, "GET", "/solve"),
                await http_request(
                    service,
                    "POST",
                    "/solve",
                    tiny_scenario(
                        topology="hypercube",
                        num_processors=4,
                        faults={"dead_links": ["up:1:0"]},
                    ).to_json(),
                ),
            )

        empty, unknown_field, nowhere, get_solve, cut = self.run_with_service(
            registry, steps
        )
        assert empty[0] == 400
        assert unknown_field[0] == 400
        assert "bogus" in unknown_field[2]["error"]
        assert nowhere[0] == 404
        assert get_solve[0] == 405
        assert cut[0] == 422
        assert "PartitionedNetworkError" in cut[2]["error"]

    def test_unanswerable_scenario_is_not_cached(self, registry):
        cut = tiny_scenario(
            topology="hypercube", num_processors=4, faults={"dead_links": ["up:1:0"]}
        )

        async def steps(service):
            await http_request(service, "POST", "/solve", cut.to_json())
            await http_request(service, "POST", "/solve", cut.to_json())
            return service.metrics.snapshot()["counters"]

        counters = self.run_with_service(registry, steps)
        assert counters["serve.cache.misses"] == 2
        assert counters.get("serve.cache.hits", 0) == 0
        assert len(registry.query()) == 0
