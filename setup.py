"""Packaging for the TaskPoint reproduction.

``pip install -e .`` installs the ``repro`` package from ``src/`` and exposes
the ``repro`` console script (equivalent to ``python -m repro``).
"""

from setuptools import find_packages, setup

setup(
    name="taskpoint-repro",
    version="1.0.0",
    description=(
        "Reproduction of 'TaskPoint: Sampled simulation of task-based "
        "programs' (ISPASS 2016)"
    ),
    long_description=(
        "Trace-driven multi-core simulator with TaskPoint sampling, the "
        "paper's 19-benchmark evaluation, and a unified experiment "
        "orchestration layer (parallel execution backends and a persistent "
        "result store)."
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.__main__:run",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "License :: OSI Approved :: MIT License",
        "Topic :: System :: Emulators",
        "Intended Audience :: Science/Research",
    ],
)
