"""Legacy shim so `pip install -e . --no-use-pep517` works offline.

The environment has setuptools but no `wheel`, which breaks PEP 517
editable installs; this file enables the classic `setup.py develop`
path and carries the dependency metadata.

numpy powers the batched frontier-step kernels (DESIGN.md D10).  It is
a declared dependency, but the runtime degrades gracefully without it:
`repro.local.batch` guards the import and every run falls back to the
reference loop (DESIGN.md D33), so an environment that cannot install numpy
still runs the pipeline (asserted by tests/test_batch_kernels.py) —
except the line-graph rows (matching, edge coloring), whose line graph
is built as arrays, and G(n, p), whose pairs are drawn from numpy; both
raise ParameterError naming numpy without it (DESIGN.md D23, D26).
"""

from setuptools import find_packages, setup

setup(
    name="repro-localized-local-algorithms",
    version="0.2.0",
    description=(
        "Reproduction of 'Toward more localized local algorithms: "
        "removing assumptions concerning global knowledge'"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[
        "networkx",
        "numpy",
    ],
)
