import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

SHM = "/dev/shm"
SHM_BASETEMP = pytest.StashKey[str]()  # the directory this conftest made, if it made one


def shm_root():
    """This user's directory for sessions' base temp directories on the tmpfs."""
    return os.path.join(SHM, f"pytest-samlab-{os.getuid()}")


def _running(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def remove_stale(root):
    """Remove each ``<pid>-*`` directory under ``root`` whose session's process has ended.

    A session removes its own directory at unconfigure; one that is killed
    leaves it behind, and the next session on this host removes it here.
    """
    for entry in os.scandir(root):
        pid = entry.name.partition("-")[0]
        if pid.isdigit() and int(pid) != os.getpid() and not _running(int(pid)):
            shutil.rmtree(entry.path, ignore_errors=True)


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    """Without ``--basetemp``, put the session's temporary directories on a writable tmpfs.

    A session writes about 1,800 files under its base temp directory. On a disk
    file system mounted with ``discard``, deleting an earlier session's files
    (pytest keeps the last three) can cost more than the tests themselves; on a
    tmpfs it costs nothing. ``_pytest.tmpdir``'s own ``pytest_configure`` reads
    ``--basetemp`` to build the session's ``TempPathFactory``; this hook runs
    before it. The directory is a fresh ``<pid>-*`` one under a fixed per-user
    root, removed at unconfigure, so concurrent sessions do not share one and a
    killed session's directory is removed by the next session.
    """
    if config.option.basetemp is not None or not (os.path.isdir(SHM) and os.access(SHM, os.W_OK)):
        return
    root = shm_root()
    try:
        os.makedirs(root, mode=0o700, exist_ok=True)
        st = os.lstat(root)
    except OSError:
        return
    if not os.path.isdir(root) or os.path.islink(root) or st.st_uid != os.getuid():
        return  # not a directory of this user's: keep pytest's default
    remove_stale(root)
    config.option.basetemp = config.stash[SHM_BASETEMP] = tempfile.mkdtemp(
        prefix=f"{os.getpid()}-", dir=root)


def pytest_unconfigure(config):
    if SHM_BASETEMP in config.stash:
        shutil.rmtree(config.stash[SHM_BASETEMP], ignore_errors=True)
