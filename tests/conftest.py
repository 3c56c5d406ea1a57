import os
import pathlib

import pytest
from hypothesis import settings

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# pytest puts src on its own sys.path only; subprocesses that import the
# package (the CLI, the demos) find it through PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])

# every property test draws the same examples on every run, untimed; a
# test's own @settings sets only its max_examples
settings.register_profile("airelm", derandomize=True, deadline=None)
settings.load_profile("airelm")


@pytest.fixture(scope="session")
def wbcd_csv(tmp_path_factory):
    """Breast-cancer diagnostic table written in the raw wdbc.data layout.

    Column 0 is a fake case id, column 1 the M/B label, then the 30
    real-valued features.  No header row.  Values come from sklearn's
    bundled copy of the same dataset.
    """
    sklearn = pytest.importorskip("sklearn.datasets")
    data = sklearn.load_breast_cancer()
    path = tmp_path_factory.mktemp("wbcd") / "wdbc.csv"
    lines = []
    for i in range(data.data.shape[0]):
        diag = "B" if data.target[i] == 1 else "M"
        cells = [str(842301 + i), diag] + [repr(float(v)) for v in data.data[i]]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def tiny_csv(tmp_path):
    """4x2 numeric table with a header and a binary label column."""
    path = tmp_path / "tiny.csv"
    path.write_text(
        "a,b,label\n"
        "1.0,2.0,1\n"
        "3.0,4.0,-1\n"
        "5.0,6.0,1\n"
        "7.0,8.0,-1\n"
    )
    return str(path)


@pytest.fixture()
def numpy_linalg(monkeypatch):
    """Run `min_norm_lstsq` as if numpy's LAPACK had no ILP64 dpotrf and
    dposv: the certificate runs `np.linalg.cholesky` and the Gram solve
    `np.linalg.solve`, and the manifest records no LAPACK routine."""
    from airelm import experiments, numkernel
    for module in (numkernel, experiments):
        monkeypatch.setattr(module, "lapack_cholesky", lambda: None)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running statistical checks")


def pytest_collection_modifyitems(config, items):
    """Fail a test under tests/ that leaves a file open.  CPython warns of
    the leak in a finalizer, so pytest reports the ResourceWarning as a
    PytestUnraisableExceptionWarning, which `error::ResourceWarning` does
    not make an error; this mark does."""
    leak = pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning")
    for item in items:
        if item.path.is_relative_to(REPO_ROOT / "tests"):
            item.add_marker(leak)
