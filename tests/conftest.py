import pytest

from claes import _native, cipher


@pytest.fixture(autouse=True)
def empty_key_cache():
    """Every test starts with no cached cipher, so a test that forces the
    Python path never reuses keystream the kernel drew in an earlier one."""
    cipher.clear_key_cache()


@pytest.fixture(scope="session")
def kernel_cache(tmp_path_factory):
    """A fresh cache directory for kernel builds, so the tests do not depend
    on what the user's cache holds."""
    return tmp_path_factory.mktemp("cache")


@pytest.fixture(scope="session")
def kernel(kernel_cache):
    """The compiled kernel, built into ``kernel_cache`` and checked against
    every reference.  Tests that use it skip when no C compiler can build it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(kernel_cache))
        built = _native.load()
    if built is None:
        pytest.skip("no C compiler could build the kernel here")
    assert _native.kernel_matches_reference(built)
    return built
