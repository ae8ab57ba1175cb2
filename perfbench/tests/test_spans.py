import pytest

import spans


class FakeClock:
    """Returns the scripted instants one per reading."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def row(rec, name, parent):
    return next(r for (s, p, n), r in rec.table.items() if n == name and p == parent)


def test_self_time_is_duration_minus_child_spans():
    # outer [0, 10] holds a [2, 5] and b [6, 9]; b holds c [7, 8]
    rec = spans.Recorder(clock=FakeClock(0, 2, 5, 6, 7, 8, 9, 10))
    rec.enter("outer")
    rec.enter("a")
    rec.exit()
    rec.enter("b")
    rec.enter("c")
    rec.exit()
    rec.exit()
    rec.exit()
    assert row(rec, "outer", "") == [1, 10, 4]
    assert row(rec, "a", "outer") == [1, 3, 3]
    assert row(rec, "b", "outer") == [1, 3, 2]
    assert row(rec, "c", "b") == [1, 1, 1]
    assert rec.self_s("outer", "a", "b", "c") == pytest.approx(rec.total_s("outer"))
    assert rec.span_count() == 4


def test_repeated_calls_aggregate_per_parent():
    rec = spans.Recorder(clock=FakeClock(0, 1, 3, 4, 7, 10))
    rec.enter("p")
    for _ in range(2):
        rec.enter("leaf")
        rec.exit()
    rec.exit()
    assert row(rec, "leaf", "p") == [2, 5, 5]
    assert row(rec, "p", "") == [1, 10, 5]
    assert rec.calls("leaf", parent="p") == 2
    assert rec.calls("leaf", parent="other") == 0


def test_generator_resumes_are_charged_to_the_consumer():
    rec = spans.Recorder(clock=FakeClock(*range(100)))
    seen = []

    def produce():
        yield 1
        yield 2

    traced = rec.wrap("gen", produce,
                      observe=lambda r, a, k, item, before: seen.append((item, r.parent())))
    consume = rec.wrap("consumer", lambda: list(traced()))
    assert consume() == [1, 2]
    assert seen == [(1, "consumer"), (2, "consumer")]
    assert rec.calls("gen", parent="consumer") == 3  # two items and the final resume


def test_install_patches_every_binding_and_restores():
    from pressmetrics import cli, harvester, pagescan, release_parser

    originals = (pagescan.scan_page, cli.release_from_dict, harvester.RateLimiter.acquire)
    body = b"<html><a href='x'>x</a></html>"
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        assert harvester.scan_page is pagescan.scan_page is release_parser.scan_page
        assert pagescan.scan_page is not originals[0]
        assert cli.release_from_dict is release_parser.release_from_dict
        assert cli.release_from_dict.__wrapped__ is originals[1]
        harvester.scan_page(body)
    finally:
        restore()
    assert (pagescan.scan_page, cli.release_from_dict,
            harvester.RateLimiter.acquire) == originals
    assert harvester.scan_page is originals[0]
    assert rec.calls("pagescan.scan_page") == 1
    assert rec.counters["pagescan.scan_bytes"] == len(body)


def test_layer_metrics_name_every_per_layer_metric_once():
    names = [name for name, _ in spans.PER_LAYER]
    assert len(names) == len(set(names))
    produced = set(spans.layer_metrics(spans.Recorder()))
    assert produced | {"trace.overhead_ratio"} == set(names)
