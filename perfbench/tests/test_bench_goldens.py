"""Golden checks and failure accounting."""

import json
import shutil

import workloads
import worker


def _corrupt_copy(tmp_path, workload, name, value):
    path = tmp_path / "goldens.json"
    shutil.copy(workloads.GOLDENS, path)
    data = json.loads(path.read_text())
    data[workload][name] = value
    path.write_text(json.dumps(data))
    return workloads.load_goldens(path)


def test_every_item_has_a_golden():
    goldens = workloads.load_goldens()
    for seed in (workloads.default_cases_seed(), workloads.HELD_OUT_CASES_SEED):
        for workload in workloads.WORKLOADS:
            names = {it.name for it in workloads.build_items(workload, seed)}
            assert names <= set(goldens[workload])


def test_a_changed_report_counts_as_failed_and_stays_in_the_sample(tmp_path):
    goldens = _corrupt_copy(tmp_path, "sessions", "squares", "0" * 64)
    items = [it for it in workloads.build_items("sessions", None) if it.name == "squares"]
    wall, rows = worker.run_pass(items, goldens["sessions"])
    assert len(rows) == 1
    name, seconds, outcome, why = rows[0]
    assert why == "differs from golden"
    assert outcome == workloads.load_goldens()["sessions"]["squares"]
    assert seconds > 0 and wall >= seconds


def test_a_changed_agreement_outcome_counts_as_failed(tmp_path):
    seed = workloads.default_cases_seed()
    golden = workloads.load_goldens()["agreement"]
    items = workloads.build_items("agreement", seed)[:4]
    first = items[0].name
    flipped = "skip:OracleWindowError" if not golden[first].startswith("skip") else "{}"
    goldens = _corrupt_copy(tmp_path, "agreement", first, flipped)
    _, rows = worker.run_pass(items, goldens["agreement"])
    assert [name for name, *_, why in rows if why] == [first]


def test_an_unexpected_exception_counts_as_failed():
    def broken():
        raise ZeroDivisionError("no")

    item = workloads.Item("broken", broken, str)
    _, rows = worker.run_pass([item], {"broken": "anything"})
    assert rows[0][2] == "error:ZeroDivisionError"
    assert rows[0][3].startswith("ZeroDivisionError")
