import functools
import runpy
from pathlib import Path

import claes


def test_every_exported_name_resolves():
    namespace = {}
    exec("from claes import *", namespace)
    assert set(claes.__all__) <= namespace.keys()


def test_every_perfbench_span_names_a_function_in_the_package():
    # perfbench's tracer wraps each function where its caller looks it up,
    # and its install raises KeyError on a name that is not there
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    missing = []
    for _, dotted, _ in runpy.run_path(str(path))["Tracer"].SPANS:
        *owner_path, attr = dotted.split(".")
        owner = functools.reduce(getattr, owner_path, claes)
        if attr not in vars(owner):
            missing.append(dotted)
    assert missing == []
