"""The CLI exit contract on hostile input files.

Each example takes one well-formed description file, deletes one key or list
item of it or replaces one value, and runs every subcommand that reads that
file, in both output formats.  Whatever the file holds, ``main`` must return
0, 1 or 2 and raise nothing, within the example deadline.  The fixtures have
dims at most 3, and no mutation builds a large power or a large group: the
cost of large outputs is a separate budget.
"""

import contextlib
import copy
import io
import json
from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sublap.cli import main

# one well-formed file of each kind: a dilation of h1 by 2 and the identity
# it satisfies, two frames that are equivalent, and a Heisenberg pair
DOCS = {
    "group": {
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1}}],
        "polarization": [[1, 0, 0], [0, 1, 0]],
        "metric": [[1, 0], [0, 1]],
    },
    "map": {"source_dim": 3, "components": ["2*x1", "2*x2", "4*x3"]},
    "identity": {"lambda_sq": 4, "b": ["0", "0", "0"]},
    "frames": {
        "dim": 3,
        "frame_x": [[1, 0, 0], [0, 1, 0]],
        "frame_y": [["3/5", "4/5", 0], ["-4/5", "3/5", 0]],
    },
    "pair": {"omega": [[0, 1], [-1, 0]], "gram": [[1, 0], [0, 4]]},
}

_MAP_ARGS = ("group", "group", "map")
# the subcommands that read each kind of file, as their file arguments;
# "fixed" is a well-formed pair that is never mutated
READERS = {
    "group": (("validate", "group"), ("stratify", "group"), ("sublaplacian", "group"),
              ("analyze-map",) + _MAP_ARGS, ("verify",) + _MAP_ARGS + ("identity",)),
    "map": (("analyze-map",) + _MAP_ARGS, ("verify",) + _MAP_ARGS + ("identity",)),
    "identity": (("verify",) + _MAP_ARGS + ("identity",),),
    "frames": (("equiv-frames", "frames"),),
    "pair": (("heis-spectrum", "pair"), ("heis-isometry", "pair", "fixed")),
}


def _paths(doc, prefix=()):
    """The path of every key and list item of doc, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


TARGETS = [(kind, path) for kind, doc in DOCS.items() for path in _paths(doc)]

DELETE = "<delete>"
VALUES = (DELETE, None, True, False, 1.5, float("inf"), float("nan"), 0, -1, 2 ** 31, 10 ** 30,
          "7", "-3/4", "1/0", "x1*x2", "x1^", "", "e1", [], [[]], [[1, [2]]], {})


def _mutated(kind, path, value):
    doc = copy.deepcopy(DOCS[kind])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(derandomize=True, max_examples=200, deadline=timedelta(seconds=2))
@given(target=st.sampled_from(TARGETS), value=st.sampled_from(VALUES))
@example(target=("map", ("source_dim",)), value=2 ** 31)
@example(target=("map", ("source_dim",)), value=10 ** 30)
def test_a_mutated_file_keeps_the_exit_contract(tmp_path_factory, target, value):
    kind, path = target
    root = tmp_path_factory.mktemp("fuzz")
    files = {name: root / ("%s.json" % name) for name in DOCS}
    files["fixed"] = root / "fixed.json"
    for name, doc in DOCS.items():
        files[name].write_text(json.dumps(_mutated(kind, path, value) if name == kind else doc))
    files["fixed"].write_text(json.dumps(DOCS["pair"]))
    for command, *args in READERS[kind]:
        for fmt in ("text", "json"):
            argv = [command] + [str(files[name]) for name in args] + ["--format", fmt]
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            if fmt == "json":
                assert "verdict" in json.loads(out.getvalue()), argv
