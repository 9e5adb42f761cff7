"""One snippet per rule branch, linted at a path of the real layout.

Each case names the rules the snippet must raise, in order — an empty
list means it must stay quiet.  The corpus covers each hazard class
once; these cover the branches inside a class: import-alias
resolution, order-insensitive sinks, the exact stdlib ``random``
exemption, and the path prefixes each rule is scoped to.
"""

import re
from pathlib import Path

import pytest

import determinism_lint
from determinism_lint import lint

CORPUS = Path(__file__).parent / "corpus"


def lint_snippet(root, rel_path, body):
    path = root / rel_path
    path.parent.mkdir(parents=True)
    path.write_text(body)
    return [rule for _, _, _, rule, _ in lint(root)]


MSL001_CASES = {
    "time_ns": ("import time\nt = time.time_ns()\n", ["MSL001"]),
    "from_import_alias": ("from time import time\nt = time()\n", ["MSL001"]),
    "module_alias": (
        "import time as t\nstamp = t.strftime('%Y')\n",
        ["MSL001"],
    ),
    "date_today": (
        "import datetime\nd = datetime.date.today()\n",
        ["MSL001"],
    ),
    "class_alias": (
        "from datetime import datetime as dt\nd = dt.utcnow()\n",
        ["MSL001"],
    ),
    "perf_counter_is_harness_timing": (
        "import time\nt = time.perf_counter()\n",
        [],
    ),
    "monotonic_is_harness_timing": (
        "import time\nt = time.monotonic()\n",
        [],
    ),
    "stdlib_shuffle": (
        "import random\nxs = [1, 2]\nrandom.shuffle(xs)\n",
        ["MSL001"],
    ),
    "stdlib_global_seed": ("import random\nrandom.seed(1)\n", ["MSL001"]),
    "stdlib_system_random": (
        "import random\nr = random.SystemRandom()\n",
        ["MSL001"],
    ),
    "stdlib_seeded_constructor": (
        "from random import Random\n\n\ndef f(seed):\n    return Random(seed)\n",
        [],
    ),
    "stdlib_unseeded_constructor_is_msl006s": (
        "import random\nr = random.Random()\n",
        ["MSL006"],
    ),
    "numpy_explicit_bit_generator": (
        "import numpy as np\n\n\ndef f(seed):\n"
        "    return np.random.Generator(np.random.PCG64(seed))\n",
        [],
    ),
    "numpy_module_alias": (
        "import numpy.random as npr\nn = npr.randint(3)\n",
        ["MSL001"],
    ),
    "os_walk_loop": (
        "import os\nfor root, dirs, files in os.walk('w'):\n    print(root)\n",
        ["MSL001"],
    ),
    "os_walk_counted": (
        "import os\nn = sum(1 for _ in os.walk('w'))\n",
        [],
    ),
    "listing_into_list": (
        "import os\nnames = list(os.scandir('w'))\n",
        ["MSL001"],
    ),
    "listing_into_max": ("import os\nlast = max(os.listdir('w'))\n", []),
    "listing_into_any": ("import os\nhas = any(os.scandir('w'))\n", []),
    "listing_not_in": (
        "import os\nmissing = 'a' not in os.listdir('w')\n",
        [],
    ),
    "iglob": ("import glob\nit = glob.iglob('*')\n", ["MSL001"]),
    "path_rglob": (
        "from pathlib import Path\nfiles = list(Path('w').rglob('*'))\n",
        ["MSL001"],
    ),
    "loop_over_set_union": (
        "a, b = [1], [2]\nfor x in set(a) | set(b):\n    print(x)\n",
        ["MSL001"],
    ),
    "dict_comprehension_over_set": (
        "d = {k: 1 for k in {1, 2}}\n",
        ["MSL001"],
    ),
    "set_order_into_frozenset": (
        "s = frozenset(x for x in {1, 2})\n",
        [],
    ),
    "dotted_import_binds_head": (
        "import os.path\np = os.path.join('a', 'b')\n",
        [],
    ),
}


@pytest.mark.parametrize(
    "body, rules", list(MSL001_CASES.values()), ids=list(MSL001_CASES)
)
def test_msl001_case(tmp_path, body, rules):
    assert lint_snippet(tmp_path, "src/repro/mlg/snippet.py", body) == rules


@pytest.mark.parametrize(
    "package, policed",
    [
        ("mlg", True),
        ("workloads", True),
        ("persistence", True),
        ("campaign", True),
        ("reporting", True),
        ("core", False),
        ("tracing", False),
        ("obs", False),
    ],
)
def test_msl001_scope(tmp_path, package, policed):
    rules = lint_snippet(
        tmp_path,
        f"src/repro/{package}/snippet.py",
        "import time\nt = time.time()\n",
    )
    assert rules == (["MSL001"] if policed else [])


MSL006_CASES = {
    "derived_from_rng_param": (
        "from numpy.random import default_rng\n\n\ndef f(rng):\n"
        "    return default_rng(rng.integers(9))\n",
        [],
    ),
    "seed_inside_a_list": (
        "import numpy as np\n\n\ndef f(seed):\n"
        "    return np.random.default_rng([seed, 1])\n",
        [],
    ),
    "keyword_only_seed_ignored": (
        "from numpy.random import default_rng\n\n\ndef f(*, seed):\n"
        "    return default_rng(7)\n",
        ["MSL006"],
    ),
}


@pytest.mark.parametrize(
    "body, rules", list(MSL006_CASES.values()), ids=list(MSL006_CASES)
)
def test_msl006_case(tmp_path, body, rules):
    assert lint_snippet(tmp_path, "src/repro/core/snippet.py", body) == rules


MSL007_CASES = {
    "plain_import_of_the_boundary": ("import repro.mlg.transport\n", []),
    "from_package_boundary_names": (
        "from repro.mlg import protocol, transport\n",
        [],
    ),
    "from_package_internal_name": (
        "from repro.mlg import variants\n",
        ["MSL007"],
    ),
    "the_package_itself": ("import repro.mlg\n", ["MSL007"]),
    "another_package": ("from repro.net import client\n", []),
}


@pytest.mark.parametrize(
    "body, rules", list(MSL007_CASES.values()), ids=list(MSL007_CASES)
)
def test_msl007_case(tmp_path, body, rules):
    assert (
        lint_snippet(tmp_path, "src/repro/emulation/snippet.py", body)
        == rules
    )


def test_msl007_scoped_to_emulation(tmp_path):
    rules = lint_snippet(
        tmp_path, "src/repro/net/snippet.py", "from repro.mlg import world\n"
    )
    assert rules == []



def test_the_docstring_lists_exactly_the_three_rules():
    # The module docstring is the lint's only help text: its rule table
    # and the rules the corpus raises name the same three ids.
    table = re.findall(r"^(MSL\d{3}) {2,}", determinism_lint.__doc__, re.M)
    assert table == ["MSL001", "MSL006", "MSL007"]
    raised = {rule for *_, rule, _ in lint(CORPUS / "badproj")}
    assert sorted(raised) == table
