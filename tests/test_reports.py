"""The committed report corpus (tests/reports.jsonl) still holds: every
pair's reports, recomputed, equal the committed ones key by key.
Rewrite the file with `PYTHONPATH=src python3 tests/reports.py` when a
change alters a report on purpose."""

import json

import pytest

import reports


def _committed():
    with open(reports.PATH) as fh:
        return [json.loads(line) for line in fh]


def _flat(entry, prefix=""):
    """{dotted key: value} over the nested dicts of a corpus entry."""
    out = {}
    for key, value in entry.items():
        if isinstance(value, dict):
            out.update(_flat(value, prefix + key + "."))
        else:
            out[prefix + key] = value
    return out


def _differences(committed, fresh):
    """"pair: dotted key" for every key whose value differs."""
    diffs = []
    for old, new in zip(committed, fresh):
        old, new = _flat(old), _flat(new)
        diffs += ["%s: %s" % (old["pair"], key)
                  for key in sorted(old.keys() | new.keys())
                  if old.get(key) != new.get(key)]
    return diffs


def _fresh(name, pair):
    return json.loads(reports.line(reports.report(name, pair)))


def test_reports_match_the_committed_corpus():
    committed = _committed()
    fresh = [_fresh(name, pair) for name, pair in reports.pairs()]
    assert [e["pair"] for e in fresh] == [e["pair"] for e in committed]
    diffs = _differences(committed, fresh)
    assert not diffs, "reports differ: " + "; ".join(diffs)


@pytest.mark.parametrize("method, key", [
    ("betti_low", "formula.betti"), ("betti_koszul", "koszul.betti"),
    ("betti_ce", "ce.betti")])
def test_a_perturbed_method_is_named_with_its_pair(monkeypatch, method, key):
    original = getattr(reports, method)

    def perturbed(pair):
        report = original(pair)
        report.betti[0] += 1
        return report
    monkeypatch.setattr(reports, method, perturbed)
    name, pair = reports.pairs()[0]
    assert _differences(_committed()[:1], [_fresh(name, pair)]) == [
        "%s: %s" % (name, key)]
