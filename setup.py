"""Package metadata, and a legacy shim for offline installs.

`pip install -e .` builds through PEP 517, which needs network access
for its isolated build environment.  Offline, with setuptools but no
`wheel` (pip 23.1 and later refuse `--no-use-pep517` without it),
`python setup.py develop --no-deps` installs the same package.

numpy is a required dependency (DESIGN.md D39): it powers the batched
frontier-step kernels (D10), the array-built line graph behind the
matching and edge-coloring rows (D23) and the G(n, p) generator (D26),
and every module imports it unconditionally.
tests/test_batch_kernels.py checks that `install_requires` lists it.
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
