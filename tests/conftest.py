import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches the constants of local modules in its home directory when
# it collects, even without a database; keep that cache out of the checkout
# for every test module.
HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(HYPOTHESIS_HOME.name)
