"""Every module-qualified name that README.md writes in code, such as
``linalg.Basis`` or ``reps.hom_vectors``, resolves in ``tiltbench.<module>``,
so the README names no routine that is gone.  Wildcards such as
``algebra.el_*`` name a family, not one routine, and are skipped."""

import importlib
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = {
    name[:-3]
    for name in os.listdir(os.path.join(ROOT, "src", "tiltbench"))
    if name.endswith(".py") and name != "__init__.py"
}


def _readme_names():
    """(module, dotted name) of each module-qualified name in a code span
    of README.md, in order of first appearance, wildcards left out."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    names = []
    for span in re.findall(r"`([^`\n]+)`", text):
        for module, name, star in re.findall(r"(?<![\w.])([a-z_]+)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\*?)", span):
            if module in MODULES and not star and (module, name) not in names:
                names.append((module, name))
    return names


def test_every_module_qualified_name_in_the_readme_resolves():
    names = _readme_names()
    assert len(names) >= 25
    missing = []
    for module, name in names:
        obj = importlib.import_module(f"tiltbench.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{name}")
    assert not missing, missing
