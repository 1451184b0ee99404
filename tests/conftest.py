import time

import numpy as np
import pytest

from scedex import PanelSample


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """Every test keeps its parsed panels in its own, empty cache directory
    (subprocesses inherit it), never in the user's."""
    home = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home / "scedex"


def wait_for_clock(path):
    """Return once a file written now gets a later time than ``path`` last
    changed.  load_panel trusts a slot only when it was written after the
    file's last change, so a test that wants a hit waits for the tick in
    which it wrote the file to pass."""
    st = path.stat()
    changed = max(st.st_mtime_ns, st.st_ctime_ns)
    probe = path.with_name(path.name + ".tick")
    while True:
        probe.write_bytes(b"")
        if probe.stat().st_mtime_ns > changed:
            return
        time.sleep(0.001)


def make_panel(values, start="2001-01-01", missing=None, stations=None):
    """Panel from a 2-D array with consecutive daily labels; NaN is written
    under ``missing``."""
    values = np.array(values, dtype=float)
    n, m = values.shape
    if missing is not None:
        values[np.asarray(missing, dtype=bool)] = np.nan
    if stations is None:
        stations = tuple(f"S{j}" for j in range(m))
    return PanelSample(
        values=values,
        day_labels=np.datetime64(start) + np.arange(n),
        station_ids=stations,
    )


@pytest.fixture
def small_panel():
    """8 days, 2 stations, all values distinct (tie-free)."""
    vals = np.array(
        [
            [5.0, 0.1],
            [1.0, 7.0],
            [2.0, 0.3],
            [9.0, 0.4],
            [0.5, 3.0],
            [6.0, 0.2],
            [0.7, 8.0],
            [4.0, 0.9],
        ]
    )
    return make_panel(vals)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
