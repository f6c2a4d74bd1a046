"""Tests for the general channel-graph solver (Eqs. 3, 11) and its builders."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ButterflyFatTreeModel,
    ChannelGraphModel,
    ConfigurationError,
    ModelVariant,
    Stage,
    Transition,
    Workload,
    bft_stage_graph,
    hypercube_stage_graph,
)
from repro.core.batch import charged_wait
from repro.core.blocking import blocking_probability_batch
from repro.queueing import (
    ScvMode,
    mg1_waiting_time,
    mgm_waiting_time_batch,
    scv_for_mode_batch,
)
from repro.util.fixedpoint import fixed_point_batch


def _single_queue_graph(rate: float, flits: int) -> ChannelGraphModel:
    stages = [
        Stage("eject", rate_per_server=rate),
        Stage(
            "inject",
            rate_per_server=rate,
            transitions=(Transition("eject", 1.0),),
        ),
    ]
    return ChannelGraphModel(
        stages, message_flits=flits, entry="inject", average_distance=2.0
    )


class TestStageValidation:
    def test_transition_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            Stage("s", 0.1, transitions=(Transition("t", 0.5),))

    def test_transition_probability_range(self):
        with pytest.raises(ConfigurationError):
            Transition("t", 1.5)
        with pytest.raises(ConfigurationError):
            Transition("t", 0.5, queue_probability=-0.1)

    def test_unknown_target_rejected(self):
        stages = [Stage("a", 0.1, transitions=(Transition("missing", 1.0),))]
        with pytest.raises(ConfigurationError):
            ChannelGraphModel(stages, message_flits=8, entry="a", average_distance=1.0)

    def test_duplicate_names_rejected(self):
        stages = [Stage("a", 0.1), Stage("a", 0.2)]
        with pytest.raises(ConfigurationError):
            ChannelGraphModel(stages, message_flits=8, entry="a", average_distance=1.0)

    def test_unknown_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelGraphModel([Stage("a", 0.1)], message_flits=8, entry="b", average_distance=1.0)

    def test_bad_flits_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelGraphModel([Stage("a", 0.1)], message_flits=0, entry="a", average_distance=1.0)

    def test_bad_servers_rejected(self):
        with pytest.raises(ConfigurationError):
            Stage("a", 0.1, servers=0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            Stage("a", -0.1)


class TestTwoStagePipeline:
    def test_terminal_service_is_message_length(self):
        g = _single_queue_graph(0.01, 16)
        sol = g.solve()
        assert sol["eject"].service == 16.0

    def test_injection_service_includes_downstream_wait(self):
        # With the blocking correction and a single upstream feeder,
        # P = 1 - (lam/lam)*1 = 0: the worm never waits behind itself.
        g = _single_queue_graph(0.01, 16)
        sol = g.solve()
        assert sol["inject"].service == pytest.approx(16.0)

    def test_without_correction_wait_is_charged(self):
        stages = [
            Stage("eject", rate_per_server=0.01),
            Stage("inject", rate_per_server=0.01, transitions=(Transition("eject", 1.0),)),
        ]
        g = ChannelGraphModel(
            stages,
            message_flits=16,
            entry="inject",
            average_distance=2.0,
            variant=ModelVariant.no_blocking_correction(),
        )
        sol = g.solve()
        w = mg1_waiting_time(0.01, 16.0, 0.0)
        assert sol["inject"].service == pytest.approx(16.0 + w)

    def test_latency_zero_rate(self):
        g = _single_queue_graph(0.0, 16)
        assert g.latency() == pytest.approx(16 + 2 - 1)

    def test_acyclic_detection(self):
        assert _single_queue_graph(0.01, 16).is_acyclic


class TestZeroProbabilityTransitions:
    """A transition of probability 0 carries no traffic: the plan drops it,
    and the depth walk must not see a cycle through it."""

    def _chain(self, back_edge: bool) -> ChannelGraphModel:
        b_moves = (Transition("c", 1.0),) + ((Transition("a", 0.0),) if back_edge else ())
        stages = [
            Stage("c", rate_per_server=0.01),
            Stage("b", rate_per_server=0.01, transitions=b_moves),
            Stage("a", rate_per_server=0.01, transitions=(Transition("b", 1.0),)),
        ]
        return ChannelGraphModel(stages, message_flits=16, entry="a", average_distance=3.0)

    def test_zero_edge_is_acyclic_and_solves_like_the_graph_without_it(self):
        with_edge, without = self._chain(True), self._chain(False)
        assert with_edge.is_acyclic
        assert with_edge.check(expect_acyclic=True) == []
        scales = np.linspace(0.0, 8.0, 33)
        a, b = with_edge.solve_batch(scales), without.solve_batch(scales)
        for name in ("a", "b", "c"):
            assert a[name].service.tobytes() == b[name].service.tobytes()
            assert a[name].wait.tobytes() == b[name].wait.tobytes()
        loads = scales * 0.01
        assert with_edge.latency_batch(loads).tobytes() == without.latency_batch(loads).tobytes()


def _reference(graph: ChannelGraphModel, scales: np.ndarray):
    """Eqs. 3-11 of one stage from the public formulas (the lean kernel's spec).

    Returns ``service_of(name, service, wait)`` and ``wait_of(name,
    service)`` over name-keyed dicts of ``(K,)`` rows.  A service sums its
    nonzero transitions' terms ``R * (x_t + P * W_t)`` left to right in
    transition order; a terminal stage serves one message length.
    """
    variant, flits = graph.variant, graph.message_flits
    rate = {n: s.rate_per_server * scales for n, s in graph.stages.items()}

    def service_of(name, service, wait):
        total = None
        for t in graph.stages[name].transitions:
            if t.probability > 0.0:
                m = graph.stages[t.target].servers
                block = blocking_probability_batch(
                    m, rate[name], m * rate[t.target], t.effective_queue_probability,
                    enabled=variant.blocking_correction,
                )
                term = t.probability * (service[t.target] + charged_wait(block, wait[t.target]))
                total = term if total is None else total + term
        return np.full(scales.shape, float(flits)) if total is None else total

    def wait_of(name, service):
        m = graph.stages[name].servers
        scv = scv_for_mode_batch(variant.scv_mode, service[name], flits)
        return mgm_waiting_time_batch(m * rate[name], service[name], m, scv)

    return service_of, wait_of


def _assert_rows_equal(solved, service, wait):
    for name, row in solved.items():
        assert np.array_equal(np.isinf(row.service), np.isinf(service[name])), name
        assert np.array_equal(np.isinf(row.wait), np.isinf(wait[name])), name
        assert row.service.tobytes() == service[name].tobytes(), name
        assert row.wait.tobytes() == wait[name].tobytes(), name


_VARIANTS = st.builds(
    ModelVariant,
    blocking_correction=st.booleans(),
    scv_mode=st.sampled_from(list(ScvMode)),
)
# Scale factors from zero load to far past saturation.
_SCALES = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0])


@st.composite
def _acyclic_graphs(draw):
    """Stage ``i`` routes only to stages ``j < i``: fan-out 1-4, 1-4 servers."""
    n = draw(st.integers(2, 7))
    stages = []
    for i in range(n):
        servers = draw(st.integers(1, 4))
        rate = draw(st.floats(0.0, 0.02, allow_subnormal=False))
        transitions = ()
        if i and (i == n - 1 or draw(st.booleans())):
            targets = draw(st.lists(st.integers(0, i - 1), min_size=1,
                                    max_size=min(4, i), unique=True))
            weights = [draw(st.floats(0.05, 1.0)) for _ in targets]
            total = sum(weights)
            transitions = tuple(
                Transition(f"s{t}", w / total, draw(st.none() | st.floats(0.0, w / total)))
                for t, w in zip(targets, weights)
            )
        stages.append(Stage(f"s{i}", rate, servers, transitions))
    return stages


class TestKernelMatchesPublicFormulas:
    """The solver's lean Eq. 11 kernel equals the public queueing formulas
    evaluated stage by stage, bit for bit and with the same ``inf`` mask."""

    @given(stages=_acyclic_graphs(), variant=_VARIANTS, flits=st.sampled_from([4, 8, 16]))
    @settings(max_examples=150, deadline=None)
    def test_acyclic_graph_rows(self, stages, variant, flits):
        graph = ChannelGraphModel(
            stages, message_flits=flits, entry=stages[-1].name,
            average_distance=3.0, variant=variant,
        )
        assert graph.is_acyclic
        service_of, wait_of = _reference(graph, _SCALES)
        service: dict = {}
        wait: dict = {}
        # Stage i routes only to stages j < i, so list order is a valid sweep.
        for s in stages:
            service[s.name] = service_of(s.name, service, wait)
            wait[s.name] = wait_of(s.name, service)
        _assert_rows_equal(graph.solve_batch(_SCALES), service, wait)

    @pytest.mark.parametrize("variant", [ModelVariant.paper(), ModelVariant.naive(),
                                         ModelVariant.exponential_scv()])
    def test_ring_graph_rows(self, variant):
        stages = [
            Stage("eject", rate_per_server=0.002),
            Stage("ring", rate_per_server=0.004, servers=2, transitions=(
                Transition("ring", 0.5, 0.25), Transition("eject", 0.5))),
            Stage("inject", rate_per_server=0.002, transitions=(Transition("ring", 1.0),)),
        ]
        graph = ChannelGraphModel(
            stages, message_flits=8, entry="inject", average_distance=3.0, variant=variant
        )
        assert not graph.is_acyclic
        names = [s.name for s in stages]
        service_of, wait_of = _reference(graph, _SCALES)

        def step(x):
            # The cyclic solver's step: every wait first, then every mixture.
            service = dict(zip(names, x))
            wait = {n: wait_of(n, service) for n in names}
            return np.array([service_of(n, service, wait) for n in names])

        x0 = np.full((len(names), _SCALES.size), 8.0)
        result = fixed_point_batch(step, x0, tol=1e-12, max_iter=20_000, damping=0.5)
        service = dict(zip(names, result.value))
        solved = graph.solve_batch(_SCALES)
        assert np.isinf(solved["inject"].wait).any() and np.isfinite(solved["inject"].wait).any()
        _assert_rows_equal(solved, service, {n: wait_of(n, service) for n in names})


class TestCyclicGraphs:
    def _ring_graph(self, rate: float, continue_prob: float) -> ChannelGraphModel:
        """A self-looping channel class (abstraction of a ring)."""
        stages = [
            Stage("eject", rate_per_server=rate),
            Stage(
                "ring",
                rate_per_server=rate * 2,
                transitions=(
                    Transition("ring", continue_prob),
                    Transition("eject", 1.0 - continue_prob),
                ),
            ),
            Stage("inject", rate_per_server=rate, transitions=(Transition("ring", 1.0),)),
        ]
        return ChannelGraphModel(
            stages, message_flits=8, entry="inject", average_distance=3.0
        )

    def test_cycle_detected(self):
        g = self._ring_graph(0.001, 0.5)
        assert not g.is_acyclic

    def test_fixed_point_solves_cycle(self):
        g = self._ring_graph(0.001, 0.5)
        sol = g.solve()
        assert math.isfinite(sol["ring"].service)
        assert sol["ring"].service > 8.0

    def test_cycle_latency_monotone_in_rate(self):
        l1 = self._ring_graph(0.0005, 0.5).latency()
        l2 = self._ring_graph(0.002, 0.5).latency()
        assert l2 > l1

    def test_saturated_cycle_goes_inf(self):
        g = self._ring_graph(0.2, 0.9)
        assert math.isinf(g.latency())


class TestBftEquivalence:
    """The generic solver must reproduce the closed-form sweep exactly."""

    @pytest.mark.parametrize("n_procs", [4, 16, 64, 256, 1024])
    @pytest.mark.parametrize("load", [0.005, 0.02, 0.035])
    def test_latency_matches_closed_form(self, n_procs, load):
        wl = Workload.from_flit_load(load, 32)
        closed = ButterflyFatTreeModel(n_procs).latency(wl)
        generic = bft_stage_graph(n_procs, wl).latency()
        if math.isinf(closed):
            assert math.isinf(generic)
        else:
            assert generic == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize(
        "variant",
        [
            ModelVariant.paper(),
            ModelVariant.no_multiserver(),
            ModelVariant.no_blocking_correction(),
            ModelVariant.naive(),
            ModelVariant.deterministic_scv(),
            ModelVariant.exponential_scv(),
            ModelVariant.conditional_up(),
        ],
        ids=lambda v: v.label,
    )
    def test_all_variants_match(self, variant):
        wl = Workload.from_flit_load(0.02, 16)
        closed = ButterflyFatTreeModel(256, variant).latency(wl)
        generic = bft_stage_graph(256, wl, variant).latency()
        assert generic == pytest.approx(closed, rel=1e-12)

    def test_per_stage_values_match(self):
        wl = Workload.from_flit_load(0.02, 32)
        model = ButterflyFatTreeModel(64)
        sol = model.solve(wl)
        graph = bft_stage_graph(64, wl)
        stages = graph.solve()
        for l in range(model.levels):
            assert stages[f"down{l}"].service == pytest.approx(float(sol.down_service[l]))
            assert stages[f"down{l}"].wait == pytest.approx(float(sol.down_wait[l]))
            assert stages[f"up{l}"].service == pytest.approx(float(sol.up_service[l]))
            assert stages[f"up{l}"].wait == pytest.approx(float(sol.up_wait[l]))

    def test_bft_graph_is_acyclic(self):
        wl = Workload.from_flit_load(0.02, 32)
        assert bft_stage_graph(64, wl).is_acyclic


class TestHypercubeGraph:
    def test_acyclic(self):
        wl = Workload.from_flit_load(0.05, 16)
        assert hypercube_stage_graph(5, wl).is_acyclic

    def test_zero_load_latency(self):
        from repro.topology.properties import hypercube_average_distance

        wl = Workload(16, 0.0)
        g = hypercube_stage_graph(4, wl)
        assert g.latency() == pytest.approx(16 + hypercube_average_distance(4) - 1)

    def test_transition_probabilities_are_normalized(self):
        wl = Workload(16, 0.001)
        g = hypercube_stage_graph(6, wl)
        for stage in g.stages.values():
            if stage.transitions:
                assert sum(t.probability for t in stage.transitions) == pytest.approx(1.0)

    def test_dimension_rates_uniform(self):
        wl = Workload(16, 0.004)
        g = hypercube_stage_graph(5, wl)
        rates = {g.stages[f"dim{k}"].rate_per_server for k in range(5)}
        assert max(rates) - min(rates) < 1e-15
        # lambda_dim = lambda0 * 2^(d-1) / (2^d - 1)
        assert rates.pop() == pytest.approx(0.004 * 16 / 31)

    def test_monotone_in_load(self):
        lats = [
            hypercube_stage_graph(5, Workload.from_flit_load(x, 16)).latency()
            for x in (0.02, 0.1, 0.2)
        ]
        assert lats == sorted(lats)

    def test_saturates(self):
        assert math.isinf(
            hypercube_stage_graph(5, Workload.from_flit_load(2.0, 16)).latency()
        )

    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            hypercube_stage_graph(0, Workload(16, 0.01))
