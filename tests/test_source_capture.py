"""``ScenarioResult.capture_of`` and the AH-only study tables.

``capture_of(S)`` regenerates only the scanners whose source is in S
(plus every forged-source emitter) when the whole capture is not
cached; it must equal ``capture.select_sources(S)`` bit for bit.  The
study tables read AH traffic through it, so a streaming study never
generates the whole capture for them.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.pipeline import StudyReport
from repro.packet import COLUMNS
from repro.scanners.background import SpoofedScan
from repro.scanners.population import ScannerPopulation
from repro.sim.runner import run_scenario
from repro.sim.scenario import tiny_scenario


def _uncached(result):
    """A copy of ``result`` with no capture or analysis caches."""
    return dataclasses.replace(
        result, _capture=None, _flow_cache=None, _stream_cache=None
    )


def _ah_union(result) -> set:
    union: set = set()
    for detection in result.detections.values():
        union |= detection.sources
    return union


def _assert_same_packets(a, b):
    assert len(a) == len(b)
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


def _canon(value):
    """Tables as plain, comparable Python values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canon(dataclasses.asdict(value))
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {_canon(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canon(v) for v in value)
    return value


def _tables(report: StudyReport) -> dict:
    """Every StudyReport table but Table 1 and the stream series."""
    definitions = sorted(report.detections)
    out = {
        "protocol": report.protocol_table(),
        "acked_impact": report.acked_impact_table(),
        "acked_validation": report.acked_validation_table(),
        "overlap": report.definition_overlap_table(),
        "router_coverage": report.router_coverage_table(),
        "blocklists": [
            report.daily_blocklist(day)
            for day in range(report.result.scenario.days)
        ],
    }
    for d in definitions:
        out[f"impact{d}"] = report.impact_cells(d)
        out[f"origins{d}"] = report.origins_table(d)
        out[f"greynoise{d}"] = report.greynoise_breakdown(d)
        out[f"tags{d}"] = report.greynoise_tags_table(d)
        out[f"trends{d}"] = report.temporal_trends(d)
        out[f"ports{d}"] = report.top_ports(d)
        out[f"zipf{d}"] = report.zipf_contribution(d)
        out[f"consistency{d}"] = report.port_consistency(d)
    return _canon(out)


@pytest.fixture(scope="module")
def stream_result():
    return run_scenario(tiny_scenario(), mode="streaming")


@pytest.fixture(scope="module")
def sharded_result():
    return run_scenario(tiny_scenario(), mode="streaming", workers=2)


class TestCaptureOf:
    @pytest.fixture(params=["batch", "serial", "workers2"])
    def result(self, request, tiny_result, stream_result, sharded_result):
        return {
            "batch": tiny_result,
            "serial": stream_result,
            "workers2": sharded_result,
        }[request.param]

    def _source_sets(self, result):
        union = _ah_union(result)
        outside = {1, 2, 0xFFFFFFFF} - {int(s) for s in result.population.sources()}
        return {
            "ah-union": union,
            "def2": set(result.detections[2].sources),
            "empty": set(),
            "outside": outside,
            "mixed": set(list(sorted(union))[:3]) | outside,
        }

    def test_equals_select_sources(self, result, tiny_result):
        # Batch results hold the whole capture; streaming ones regenerate.
        subject = result if result.mode == "batch" else _uncached(result)
        whole = tiny_result.capture
        for label, sources in self._source_sets(result).items():
            got = subject.capture_of(sources)
            _assert_same_packets(got.packets, whole.select_sources(sources))
            assert got.telescope == result.telescope, label

    def test_streaming_regenerates_without_caching(
        self, stream_result, tiny_result
    ):
        fresh = _uncached(stream_result)
        got = fresh.capture_of(_ah_union(fresh))
        assert fresh._capture is None
        assert 0 < len(got) < len(tiny_result.capture)


class TestForgedSourceCollision:
    def test_spoofed_packets_stamped_with_an_ah_address_are_kept(
        self, stream_result
    ):
        target = min(stream_result.detections[1].sources)
        window = stream_result.scenario.window()
        spoof = SpoofedScan(
            start=window[0] + 3_600.0,
            duration=7_200.0,
            coverage=0.5,
            dport=23,
            spoof_ranges=np.array([[target, target + 1]], dtype=np.int64),
            seed=4_242,
        )
        population = stream_result.population
        forged = ScannerPopulation(
            scanners=[spoof] + list(population.scanners),
            acked=population.acked,
            internet=population.internet,
            config=population.config,
        )
        result = dataclasses.replace(
            _uncached(stream_result), population=forged
        )
        got = result.capture_of({target})
        assert result._capture is None
        _assert_same_packets(
            got.packets, result.capture.select_sources({target})
        )
        honest = _uncached(stream_result).capture_of({target})
        spoofed = len(got) - len(honest)
        assert spoofed > 0
        assert int(np.count_nonzero(got.packets.dport == 23)) >= spoofed


class TestStudyTables:
    def test_ah_tables_never_build_the_whole_capture(self, stream_result):
        report = StudyReport(result=_uncached(stream_result))
        _tables(report)
        assert report.result._capture is None
        report.dataset_summary()
        assert report.result._capture is not None

    def test_acked_match_is_memoized(self, stream_result):
        report = StudyReport(result=_uncached(stream_result))
        assert report.acked_match(2) is report.acked_match(2)
        assert report.acked_validation_table()[2] is report.acked_match(2)

    def test_streaming_tables_equal_batch(self, tiny_result, stream_result):
        batch = _tables(StudyReport(result=tiny_result))
        streaming = _tables(StudyReport(result=_uncached(stream_result)))
        assert streaming == batch

    def test_ah_capture_tables_equal_whole_capture_tables(self, tiny_result):
        # Reading the whole capture instead of the AH capture is how
        # the tables were computed before; the values must not move.
        whole = StudyReport(result=tiny_result, _ah_capture=tiny_result.capture)
        assert _tables(StudyReport(result=tiny_result)) == _tables(whole)
