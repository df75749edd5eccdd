"""Golden certificate files: one per registered kind, each of which must
parse and re-serialize to exactly the bytes on disk, and which the
generators in `golden/regenerate.py` must write again byte for byte.

Runs under pytest, or on its own where pytest is not installed:

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib.util
from pathlib import Path

from ringcert import certio

GOLDEN = Path(__file__).parent / "golden"


def _path(kind: str) -> Path:
    return GOLDEN / (kind.replace("/", "-") + ".json")


def _regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_golden_file_per_kind():
    expected = {_path(kind).name for kind in certio._REGISTRY}
    present = {p.name for p in GOLDEN.glob("*.json")}
    assert present == expected, (sorted(expected - present), sorted(present - expected))


def test_golden_files_round_trip():
    for kind in certio._REGISTRY:
        data = _path(kind).read_bytes()
        obj = certio.parse(data)
        assert certio.kind_of(obj) == kind
        assert certio.serialize(obj) == data, kind


def test_generators_reproduce_golden_files():
    objects = _regenerate().golden_objects()
    assert set(objects) == set(certio._REGISTRY)
    for kind, obj in objects.items():
        assert certio.serialize(obj) == _path(kind).read_bytes(), kind


if __name__ == "__main__":
    test_one_golden_file_per_kind()
    test_golden_files_round_trip()
    test_generators_reproduce_golden_files()
    print(f"{len(certio._REGISTRY)} golden files round-trip and regenerate")
