"""Packaging for the repro library and the reprolint tool.

``pip install -e .`` installs both packages and the ``repro`` console
entry point; ``pip install -e .[lint]`` adds the static-analysis
toolchain (mypy) that the CI lint gate runs. reprolint itself is
dependency-free stdlib and ships from ``tools/``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-calimera-date2011",
    version="1.0.0",
    description=(
        "Reproduction of 'Partitioned Cache Architectures for Reduced "
        "NBTI-Induced Aging' (DATE 2011): bit-exact banked cache "
        "simulation, aging models, campaigns, and a repo-specific "
        "invariant linter"
    ),
    python_requires=">=3.10",
    package_dir={"": "src", "reprolint": "tools/reprolint"},
    packages=find_packages("src") + ["reprolint"],
    package_data={"repro": ["py.typed"], "repro.kernels": ["*.c"]},
    install_requires=["numpy"],
    extras_require={
        "lint": ["mypy>=1.8"],
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
            "reprolint = reprolint.cli:main",
        ]
    },
)
