"""Predictive admission control: unit decisions and end-to-end HTTP.

One live service + HTTP front end per module; the admission
controller's mode/threshold are plain attributes, so tests flip them and
restore ``off`` afterwards.  A zero threshold makes overload *predicted*
from the very first arrival (any positive rate exceeds it), which keeps
the end-to-end assertions deterministic.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import Timeframe
from repro.service import RemosService, serve_aio
from repro.service.admission import AdmissionController
from repro.testbed import build_cmu_testbed
from repro.util.errors import ConfigurationError


class TestController:
    def pinned(self, **kwargs):
        clock = [0.0]
        controller = AdmissionController(clock=lambda: clock[0], **kwargs)
        return clock, controller

    def drive(self, clock, controller, n=20, step=0.11, endpoint="q", timeframe=None):
        decisions = []
        for _ in range(n):
            clock[0] += step
            decisions.append(controller.admit(endpoint, timeframe))
        return decisions

    def test_off_accepts_everything(self):
        clock, controller = self.pinned(mode="off", threshold_qps=0.0)
        decisions = self.drive(clock, controller)
        assert all(d.action == "accept" for d in decisions)
        assert controller.accepted == len(decisions)

    def test_shed_under_predicted_overload(self):
        clock, controller = self.pinned(
            mode="shed", threshold_qps=0.5, rate_window=2.0, retry_after=3.0
        )
        decisions = self.drive(clock, controller)
        shed = [d for d in decisions if d.action == "shed"]
        assert shed and controller.shed == len(shed)
        assert shed[-1].retry_after == 3.0
        assert shed[-1].retry_after_header == "3"
        assert shed[-1].predicted_qps > 0.5

    def test_degrade_rewrites_future_only(self):
        clock, controller = self.pinned(mode="degrade", threshold_qps=0.0)
        future = self.drive(clock, controller, timeframe=Timeframe.future(30.0))
        assert future[-1].action == "degrade"
        assert str(future[-1].timeframe) == "current"
        current = self.drive(clock, controller, timeframe=Timeframe.current())
        assert all(d.action == "accept" for d in current)
        untimed = self.drive(clock, controller, timeframe=None)
        assert all(d.action == "accept" for d in untimed)

    def test_below_threshold_accepts(self):
        clock, controller = self.pinned(
            mode="shed", threshold_qps=10_000.0, rate_window=5.0
        )
        decisions = self.drive(clock, controller)
        assert all(d.action == "accept" for d in decisions)

    def test_config_roundtrip(self):
        controller = AdmissionController(
            mode="degrade", threshold_qps=42.0, horizon=7.0, retry_after=2.5
        )
        clone = AdmissionController(**controller.config())
        assert clone.config() == controller.config()

    def test_invalid_settings_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(mode="panic")
        with pytest.raises(ConfigurationError):
            AdmissionController(threshold_qps=-1.0)
        with pytest.raises(ConfigurationError):
            AdmissionController(horizon=0.0)

    def test_to_dict_is_json_ready(self):
        clock, controller = self.pinned(mode="shed", threshold_qps=0.0)
        self.drive(clock, controller)
        report = json.loads(json.dumps(controller.to_dict()))
        assert report["mode"] == "shed"
        assert report["shed"] + report["accepted"] == 20


@pytest.fixture(scope="module")
def live():
    """(base_url, service) with admission initially off."""
    obs.reset_observability()
    obs.configure_observability(metrics=True, tracing=True, logging=False)
    world = build_cmu_testbed(poll_interval=0.5)
    service = RemosService.from_world(
        world,
        sweep_interval=0.01,
        sim_step=0.5,
        slow_query_threshold=0.0,  # record every query: slowlog echo under test
        admission_mode="off",
        admission_threshold_qps=0.0,  # zero: first arrival predicts overload
    )
    service.start(warmup=5.0)
    server = serve_aio(service, port=0)
    try:
        yield f"http://{server.address[0]}:{server.address[1]}", service
    finally:
        server.stop()
        service.stop()
        obs.reset_observability()


@pytest.fixture
def admission(live):
    """The live controller, restored to off after each test."""
    _, service = live
    controller = service.admission
    yield controller
    controller.mode = "off"


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, dict(response.headers), response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


def _post(url: str, payload: dict):
    request = urllib.request.Request(url, data=json.dumps(payload).encode())
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


HOST = "m-1"  # a CMU-testbed compute host


class TestTimeframeParams:
    def test_node_accepts_future_params(self, live):
        base, _ = live
        status, _, body = _get(
            base + f"/node/{HOST}?timeframe=future&horizon=30&predictor=auto"
        )
        assert status == 200
        assert json.loads(body)["name"] == HOST

    def test_graph_accepts_history_params(self, live):
        base, _ = live
        status, _, body = _get(
            base + "/graph?nodes=m-1,m-2&timeframe=history&window=30"
        )
        assert status == 200
        assert "edges" in json.loads(body)

    def test_unknown_predictor_is_400(self, live):
        base, _ = live
        status, _, body = _get(
            base + f"/node/{HOST}?timeframe=future&horizon=30&predictor=crystal"
        )
        assert status == 400
        assert "unknown predictor" in json.loads(body)["error"]

    def test_timeframe_echoed_in_slow_log(self, live):
        base, _ = live
        _get(base + f"/node/{HOST}?timeframe=future&horizon=12&predictor=ewma")
        _, _, body = _get(base + "/debug/slow?limit=50")
        records = json.loads(body)["records"]
        echoes = [
            r["args"].get("timeframe")
            for r in records
            if r["endpoint"] == "node" and "timeframe" in r.get("args", {})
        ]
        assert "future(12.0s, ewma)" in echoes


class TestShedOverHttp:
    def test_shed_is_503_with_retry_after(self, live, admission):
        base, _ = live
        admission.mode = "shed"
        status, headers, body = _get(base + f"/node/{HOST}")
        assert status == 503
        assert headers["Retry-After"] == "1"
        payload = json.loads(body)
        assert "shed" in payload["error"]
        assert payload["predicted_qps"] > 0.0

    def test_flow_info_shed_and_counted(self, live, admission):
        base, _ = live
        admission.mode = "shed"
        shed_before = admission.shed
        status, headers, _ = _post(
            base + "/flow_info",
            {"variable": [{"src": "m-1", "dst": "m-2", "requested": 1e6}]},
        )
        assert status == 503
        assert "Retry-After" in headers
        assert admission.shed == shed_before + 1
        _, _, metrics = _get(base + "/metrics")
        assert "remos_query_shed_total" in metrics

    def test_health_and_debug_stay_reachable(self, live, admission):
        base, _ = live
        admission.mode = "shed"
        assert _get(base + "/healthz")[0] == 200
        status, _, body = _get(base + "/debug/slo")
        assert status == 200
        report = json.loads(body)
        assert report["admission"]["mode"] == "shed"
        assert report["admission"]["shed"] > 0

    def test_aio_front_end_sheds_identically(self, live, admission):
        """Identically across the query endpoints: /graph, the third, too."""
        base, _ = live
        admission.mode = "shed"
        status, headers, body = _get(base + "/graph?nodes=m-1,m-2")
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert "shed" in json.loads(body)["error"]


class TestDegradeOverHttp:
    def test_future_flow_info_degrades_to_current(self, live, admission):
        base, _ = live
        admission.mode = "degrade"
        degraded_before = admission.degraded
        status, headers, body = _post(
            base + "/flow_info",
            {
                "variable": [{"src": "m-1", "dst": "m-2", "requested": 1e6}],
                "timeframe": {"kind": "future", "horizon": 30.0},
            },
        )
        assert status == 200
        assert headers["X-Remos-Degraded"] == "future->current"
        assert json.loads(body)["timeframe_degraded"] is True
        assert admission.degraded == degraded_before + 1
        _, _, metrics = _get(base + "/metrics")
        assert "remos_query_degraded_total" in metrics

    def test_current_flow_info_unmarked(self, live, admission):
        base, _ = live
        admission.mode = "degrade"
        status, headers, body = _post(
            base + "/flow_info",
            {"variable": [{"src": "m-1", "dst": "m-2", "requested": 1e6}]},
        )
        assert status == 200
        assert "X-Remos-Degraded" not in headers
        assert "timeframe_degraded" not in json.loads(body)

    def test_node_future_params_degrade(self, live, admission):
        base, _ = live
        admission.mode = "degrade"
        status, headers, body = _get(
            base + f"/node/{HOST}?timeframe=future&horizon=30"
        )
        assert status == 200
        assert headers["X-Remos-Degraded"] == "future->current"
        assert json.loads(body)["timeframe_degraded"] is True

    def test_aio_front_end_degrades_identically(self, live, admission):
        """Identically across the query endpoints: /graph, the third, too."""
        base, _ = live
        admission.mode = "degrade"
        status, headers, body = _get(
            base + "/graph?nodes=m-1,m-2&timeframe=future&horizon=30"
        )
        assert status == 200
        assert headers["X-Remos-Degraded"] == "future->current"
        assert json.loads(body)["timeframe_degraded"] is True


class TestFrontEndConfig:
    def test_admission_settings_in_front_end_config(self, live):
        _, service = live
        config = service.front_end_config()
        assert config["admission_mode"] == "off"
        assert config["admission_threshold_qps"] == 0.0
        # A replica built from the config gets an equivalent controller.
        clone = AdmissionController(
            mode=config["admission_mode"],
            threshold_qps=config["admission_threshold_qps"],
            horizon=config["admission_horizon"],
            retry_after=config["admission_retry_after"],
        )
        assert clone.mode == service.admission.mode

    def test_telemetry_reports_admission_and_forecast(self, live):
        base, _ = live
        _, _, body = _get(base + "/telemetry")
        report = json.loads(body)
        assert "admission" in report
        assert "forecast" in report
        assert set(report["forecast"]) >= {"cells", "recorded", "settled"}
