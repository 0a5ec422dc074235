import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def pairs(before, after):
    """Pairs whose every metric reads before[i] and after[i]."""
    return [{side: dict.fromkeys(bench_pairs.METRICS, v) for side, v in (("before", b),
                                                                         ("after", a))}
            for b, a in zip(before, after)]


BEFORE = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]


@pytest.mark.parametrize("after, claim, bound", [
    # the before side's interquartile range is 0.55
    ([b - 0.8 for b in BEFORE], True, True),           # wins 10 of 10 by more than it
    ([b - 0.5 for b in BEFORE], False, True),          # wins 10 of 10 by less
    ([b - 0.8 for b in BEFORE[:8]] + [3.0, 3.1], False, True),  # wins 8 of 10
    ([b + 0.9 for b in BEFORE], False, False),         # median beyond every bound
])
def test_summary_states_the_verdict(after, claim, bound):
    got = bench_pairs.summary(pairs(BEFORE, after))
    for m in bench_pairs.METRICS:
        assert (got[m]["claim_holds"], got[m]["within_bound"]) == (claim, bound), m


def test_within_bound_reads_each_metrics_bound():
    # BENCHMARK.json bounds the times by 0.25 and peak RSS by 0.1
    got = bench_pairs.summary(pairs(BEFORE, [b * 1.05 for b in BEFORE]))
    assert {m: got[m]["within_bound"] for m in bench_pairs.METRICS} == {
        "pass_s": True, "setup_s": True, "peak_rss_mb": True}
    got = bench_pairs.summary(pairs(BEFORE, [b * 1.2 for b in BEFORE]))
    assert {m: got[m]["within_bound"] for m in bench_pairs.METRICS} == {
        "pass_s": True, "setup_s": True, "peak_rss_mb": False}


ROOT = Path(__file__).resolve().parents[1]


def _tree(tmp_path, core_source):
    """A checkout root whose scottlab package holds only core_source as core.py."""
    package = tmp_path / "src" / "scottlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "core.py").write_text(core_source)
    return tmp_path


def test_outputs_run_both_ansatz_min_branches():
    # ansatz_min certifies A = 0 from the zero-field response; ansatz_min_ray lies
    # above kappa_c, so its sidecar and CSV cover the ray walk and its A != 0 traces;
    # ansatz_min_mesh_tiny certifies on sectors too small for ARPACK
    from scottlab import cli, pauli

    commands = dict(bench_pairs.OUTPUT_COMMANDS)
    for name, certified in (("ansatz_min", True), ("ansatz_min_ray", False),
                            ("ansatz_min_mesh_tiny", True)):
        args = cli.build_parser().parse_args(commands[name])
        n_rho, n_z = (int(v) for v in args.mesh.split())
        grid = pauli.PauliGrid.for_ball(args.R, n_rho=n_rho, n_z=n_z)
        res = pauli.minimize_scott(args.kappa, 0.5 / args.kappa, args.R, grid,
                                   n_modes=args.modes, budget=1)
        assert res.estimate.meta["certified"] == certified, name


def test_outputs_end_with_the_three_failing_commands():
    names = [name for name, _ in bench_pairs.OUTPUT_COMMANDS]
    assert names[-4:] == ["ansatz_min_mesh_tiny", "ansatz_min_mesh_one", "ansatz_min_mesh_odd",
                          "scott_cutoff_tiny"]


def test_radial_dstebz_reports_numpys_library():
    path = bench_pairs.radial_dstebz(ROOT)
    assert "numpy.libs" in path and "libscipy_openblas64_-" in path


@pytest.mark.parametrize("core_source, want", [
    # a tree whose finder finds no library falls back to scipy.linalg
    ("def numpy_openblas():\n    return None\n", "scipy.linalg"),
    # older trees: dstebz in scipy's bundled library, or scipy.linalg before the direct call
    ("class Lib:\n    _name = 'scipy.libs/libscipy_openblas-x.so'\n"
     "def scipy_openblas():\n    return Lib()\n", "scipy.libs/libscipy_openblas-x.so"),
    ("", "scipy.linalg"),
], ids=["numpy-finder-finds-none", "scipy-finder", "no-finder"])
def test_radial_dstebz_follows_each_trees_finder(tmp_path, core_source, want):
    assert bench_pairs.radial_dstebz(_tree(tmp_path, core_source)) == want


def _folder(root, name, files):
    folder = root / name
    folder.mkdir()
    (folder / "cache").mkdir()  # folders are not outputs
    for file, text in files.items():
        (folder / file).write_text(text)
    return folder


def test_compare_outputs_finds_the_first_differing_line(tmp_path):
    same = {"a.csv": "x,y\n1,2\n", "a.exit": "0\n"}
    runs = {"before": [_folder(tmp_path, "b0", {**same, "a.stdout": "t = 1\n"}),
                       _folder(tmp_path, "b1", {**same, "a.stdout": "t = 1\n"})],
            "after": [_folder(tmp_path, "a0", {**same, "a.stdout": "t = 1\nmore\n",
                                               "a.stderr": "warn\n"}),
                      _folder(tmp_path, "a1", {"a.csv": "x,y\n1,3\n", "a.exit": "0\n",
                                               "a.stdout": "t = 1\nmore\n", "a.stderr": "warn\n"})]}
    got = bench_pairs.compare_outputs(runs)
    assert got["commands"] == dict(bench_pairs.OUTPUT_COMMANDS)
    assert got["identical"] == {"trees": False, "before_repeat": True, "after_repeat": False}
    files = got["files"]
    assert list(files) == ["a.csv", "a.exit", "a.stderr", "a.stdout"]
    assert files["a.exit"] == dict.fromkeys(("trees", "before_repeat", "after_repeat"),
                                            "identical")
    assert files["a.csv"]["trees"] == "identical"
    assert files["a.csv"]["after_repeat"] == {"line": 2, "lines": ["1,2\n", "1,3\n"]}
    # a longer file differs on the first line past the shorter one's end
    assert files["a.stdout"]["trees"] == {"line": 2, "lines": [None, "more\n"]}
    # a file one run lacks is reported as missing there
    assert files["a.stderr"]["trees"] == {"exists": [False, True]}
    assert files["a.stderr"]["before_repeat"] == "identical"


def test_missing_file_differs_from_an_empty_one(tmp_path):
    # both used to read as no lines, and so as "identical"
    (tmp_path / "x.csv").write_text("")
    missing = tmp_path / "gone" / "x.csv"
    assert bench_pairs.first_difference(tmp_path / "x.csv", missing) == {"exists": [True, False]}
    assert bench_pairs.first_difference(missing, tmp_path / "x.csv") == {"exists": [False, True]}
    assert bench_pairs.first_difference(tmp_path / "x.csv", tmp_path / "x.csv") == "identical"


# the tail of a pytest -q run with a failure, a parametrized failure whose id
# holds " - ", a collection error, and captured output that looks like a summary
PYTEST_OUTPUT = """\
.F.F.E
=================================== FAILURES ===================================
___________________________________ test_bad ___________________________________
----------------------------- Captured stdout call -----------------------------
FAILED not/a/test.py::printed_by_a_test
=========================== short test summary info ============================
FAILED tests/test_x.py::test_bad - assert [1] == [2]
FAILED tests/test_x.py::test_p[Z = nan - x] - AssertionError: assert 'a - b' == 'c'
ERROR tests/test_y.py
2 failed, 285 passed, 3 warnings, 1 error in 21.30s
"""


@pytest.mark.parametrize("output, want", [
    (PYTEST_OUTPUT, {"passed": 285, "failed": ["tests/test_x.py::test_bad",
                                               "tests/test_x.py::test_p[Z = nan - x]"],
                     "errors": ["tests/test_y.py"]}),
    ("....\n4 passed in 0.50s\n", {"passed": 4, "failed": [], "errors": []}),
    ("", {"passed": 0, "failed": [], "errors": []}),
], ids=["failures", "all-passed", "no-output"])
def test_tier1_summary_reads_pytest_output(output, want):
    assert bench_pairs.tier1_summary(output, 21.304) == {**want, "seconds": 21.3}
