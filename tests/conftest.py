import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# the same examples on every run, no timing failures on a slow machine, and
# no example database written into the checkout
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

# hypothesis still caches the constants it reads from local modules; keep
# that cache out of the checkout too
_home = tempfile.mkdtemp(prefix="hypothesis-")
atexit.register(shutil.rmtree, _home, ignore_errors=True)
set_hypothesis_home_dir(_home)
