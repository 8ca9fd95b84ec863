"""The README's Library section names only what gosp defines."""

import pkgutil
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
