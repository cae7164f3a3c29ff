"""Every package name the benchmark's traced run wraps must still exist.

`perfbench/spans.py` swaps timing wrappers in for package attributes by
name. A refactor that deletes or moves one of them would otherwise show up
only as a KeyError from `perfbench/run.py --trace 1`.
"""

from pathlib import Path


def test_every_wrapped_name_is_defined_on_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    targets = spans._targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in owner.__dict__]
    assert not missing, missing
