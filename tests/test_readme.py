"""The README's Library section names only what gosp defines, and its
reproducibility paragraph names every chunk-size test."""

import pkgutil
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
ESTIMATOR_TESTS = Path(__file__).resolve().parent / "test_estimators.py"


def test_readme_library_names_resolve():
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`(gosp(?:\.\w+)+)", library)
    assert len(names) >= 10
    missing = []
    for name in names:
        try:
            pkgutil.resolve_name(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert not missing, f"README names that gosp does not define: {missing}"


def test_readme_estimator_names_resolve():
    # the "Estimators:" bullet names them without the package prefix
    text = README.read_text(encoding="utf-8")
    bullet = text.split("\n- Estimators: ", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", bullet)
    assert len(names) >= 10
    missing = []
    for name in names:
        try:
            pkgutil.resolve_name(f"gosp.{name}")
        except (AttributeError, ImportError):
            missing.append(name)
    assert not missing, f"README estimators that gosp does not define: {missing}"


def test_readme_names_every_chunk_size_test():
    tests = re.findall(r"^def (test_\w*do_not_depend_on_chunk_size)\(",
                       ESTIMATOR_TESTS.read_text(encoding="utf-8"), re.M)
    assert len(tests) >= 3
    text = README.read_text(encoding="utf-8")
    missing = [name for name in tests if name not in text]
    assert not missing, f"chunk-size tests the README does not name: {missing}"
