"""Every function of the package is entered by some command line.

A fixed corpus of CLI lines runs in a fresh interpreter under
``sys.setprofile``, which records each code object the package enters.  A
fresh interpreter, since the lru_caches an earlier test warmed would keep a
cached function from being entered again.  Every function defined in
src/wildram must be entered, or be named in UNREACHED with the reason it
stays.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wildram"
GOLDEN = ROOT / "tests" / "golden"

BENCHMARK = "perfbench's {} calls it, so deleting it is a benchmark change"
ENGINE = (
    "an engine default that Psl2Atlas overrides: only SmallGroup's subgroup search"
    " uses it, and only tests run that search"
)
# the oracle shifts a raw tower in one ghost-component step, so the Witt
# vector arithmetic only builds raw towers
WITT_STEP = (
    "a step of witt_add and witt_wp, with which perfbench's make_towers (tower-verify"
    " and cli-check) builds raw towers, and of the tests' independent construction"
    " of the oracle's shift"
)
# module.qualname -> why no command line enters it
UNREACHED = {
    "exactmath.as_reduce": BENCHMARK.format("tower-verify"),
    "checks.valid_residue_classes": BENCHMARK.format("tower-verify and cli-check"),
    "ramification.deformation_compatible": BENCHMARK.format("tower-verify and cli-check"),
    "towers.witt_add": BENCHMARK.format("make_towers (tower-verify and cli-check)"),
    "towers.witt_wp": BENCHMARK.format("make_towers (tower-verify and cli-check)"),
    "towers.witt_carry": WITT_STEP,
    "towers.witt_neg": WITT_STEP,
    "ramification.lower_from_upper": BENCHMARK.format("enumerate-tails"),
    "ramification.upper_from_lower": BENCHMARK.format("enumerate-tails"),
    "groups.FiniteGroup.mul": ENGINE,
    "groups.FiniteGroup.conjugates": ENGINE,
    "groups.FiniteGroup._proves_whole": ENGINE,
}

# each subcommand once, check-all, a refused ell, a raw r = 2 tower, a
# deformation written to a file, an admissible line that fails condition (c)
# by growth and a malformed line; {tmp} is the test's scratch directory
CORPUS = [
    "params --p 3 --ell 11",
    "triple --p 7 --ell 97",
    "candidates --p 3 --ell 97",
    "admissible --p 7 --m 2 --jumps 3/2",
    "admissible --p 3 --m 1 --jumps 2,3",
    "enumerate --p 3 --m 2 --r 2 --bound 10",
    "genus --order 1092 --p 7 --m 2 --r 1 --jumps 3/2",
    "base-sigma --p 7 --ell 97 --m 2",
    f"tower-predict --spec {GOLDEN / 'tower-valid.txt'}",
    f"tower-oracle --spec {GOLDEN / 'tower-raw.txt'}",
    "tower-oracle --spec {tmp}/raw.txt",
    f"deform --spec {GOLDEN / 'tower-valid.txt'} --target 5/2,35/2 --out {{tmp}}/deformed.txt",
    "tails --mG 2 --prim 1 --new-max 2 --bound 3",
    "infer --sigma 3/2 --p 3 --mG 2",
    "verify-group --p 3 --ell 11 --budget 660",
    "verify-group --p 3 --ell 97",
    "check-all",
]
MALFORMED = "admissible --p x --m 2 --jumps 3/2"

# runs each argv of the JSON list in sys.argv[1] through cli.main under a
# profile hook, and prints the (file, first line) of every code object of
# the package it entered
DRIVER = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)
from wildram import cli

for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted({(code.co_filename, code.co_firstlineno) for code in entered})))
"""


def defined_functions():
    """module.qualname -> (file, first line) of every def in the package;
    the first line of a decorated function is its first decorator's, as in
    its code object."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[f"{prefix}{child.name}"] = (str(path), first)
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return out


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reachability")
    # x_1 = x + x^3 at p = 3: the term at a multiple of p forces the Witt shift
    (tmp / "raw.txt").write_text("3 1 2 0\n0 1 0 1\n0 1 0 0 1\n")
    corpus = [
        line.format(tmp=tmp).split() + ["--format", fmt]
        for line in CORPUS
        for fmt in ("json", "csv", "plain")
    ]
    corpus.append(MALFORMED.split())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )}
    run = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(corpus)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return {(path, line) for path, line in json.loads(run.stdout)}


def test_every_function_is_entered_or_named(entered):
    functions = defined_functions()
    missed = sorted(name for name, where in functions.items() if where not in entered)
    assert [name for name in missed if name not in UNREACHED] == []
    # an entry that is gone or now reached leaves the list
    assert sorted(UNREACHED) == [name for name in missed if name in UNREACHED]


def test_defined_functions_names_methods_and_nested_defs():
    functions = defined_functions()
    assert functions["psl2.Psl2Atlas.mul"][0].endswith("psl2.py")
    assert "cli.main" in functions and "exactmath.mul_coeffs" in functions
    assert "psl2.verify_subgroup_claims.<locals>.claim" in functions
    # lru_cache-decorated: its first line is the decorator's
    source = (PACKAGE / "psl2.py").read_text(encoding="utf-8").splitlines()
    assert source[functions["psl2.psl2_atlas"][1] - 1].startswith("@lru_cache")
