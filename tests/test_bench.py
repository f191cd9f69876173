"""Counter comparison verdicts: regressed, improved and neutral.

Two recorded runs are compared with the run ledger's compare view, the
same judgement ``tangled report --compare`` prints.
"""

from repro.obs.ledger import compare_view, open_ledger


def _verdicts(tmp_path, base: dict, cur: dict, **kw) -> dict:
    """Metric -> verdict for ``cur`` judged against ``base``."""
    with open_ledger(str(tmp_path / "l.db")) as ledger:
        ledger.record("run", "base", config={}, counters=base, ts=1.0)
        ledger.record("run", "cur", config={}, counters=cur, ts=2.0)
        view = compare_view(ledger, "base", "cur", **kw)
    return {r["metric"]: r["verdict"] for r in view["rows"]
            if r["kind"] == "counter"}


class TestCompare:
    def test_synthetic_2x_slowdown_is_regression(self, tmp_path):
        verdicts = _verdicts(tmp_path,
                             {"pipeline.cycles": 100, "pipeline.cpi": 1.0},
                             {"pipeline.cycles": 200, "pipeline.cpi": 2.0},
                             counter_threshold=0.25)
        assert verdicts == {"pipeline.cycles": "regressed",
                            "pipeline.cpi": "regressed"}

    def test_improvement_and_neutral(self, tmp_path):
        verdicts = _verdicts(tmp_path,
                             {"pipeline.cycles": 100, "qat.ops": 50},
                             {"pipeline.cycles": 80, "qat.ops": 51})
        assert verdicts["pipeline.cycles"] == "improved"
        assert verdicts["qat.ops"] == "neutral"

    def test_higher_is_better_metrics_invert(self, tmp_path):
        verdicts = _verdicts(tmp_path, {"chunkstore.binop.hit": 100},
                             {"chunkstore.binop.hit": 50})
        assert verdicts == {"chunkstore.binop.hit": "regressed"}

    def test_zero_baseline_counter(self, tmp_path):
        verdicts = _verdicts(tmp_path, {"pipeline.stall.data": 0},
                             {"pipeline.stall.data": 7})
        assert verdicts == {"pipeline.stall.data": "regressed"}
