"""Seeded, download-free benchmark inputs: CSV + schema files.

Two shapes:

- ``write_adult_like``: the 15 UCI Adult columns in file order, header-less,
  6 numeric columns and 7 categorical ones with cardinalities
  7/16/7/14/6/5/41, so the Adult schema encodes it to d = 6 + 96 = 102.
  Every category appears in the first rows, so d is the same for every seed.
- ``write_census``: the large-n, d = 7 census shape of the synthetic trend
  test (three reward indicators lifted by the protected attribute, a skill
  feature, three nuisance features), with a header row.

Both are plain functions of (path, n, seed); nothing here is timed.  The
schema texts repeat ``schemas/adult.schema`` and the census generator repeats
``tests/synthdata.py`` on purpose: the benchmark's inputs must not move when
those files change.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

ADULT_N = 32_561
ADULT_D = 102
CENSUS_N = 100_000
CENSUS_D = 7

ADULT_COLUMNS = (
    "age", "workclass", "fnlwgt", "education", "education-num", "marital-status",
    "occupation", "relationship", "race", "sex", "capital-gain", "capital-loss",
    "hours-per-week", "native-country", "income",
)
ADULT_SCHEMA = f"""\
columns = {", ".join(ADULT_COLUMNS)}
label = income
label_positive = >50K
protected = sex
protected_positive = Male
numeric = age, fnlwgt, education-num, capital-gain, capital-loss, hours-per-week
categorical = workclass, education, marital-status, occupation, relationship, race, native-country
"""
CARDINALITY = {
    "workclass": 7, "education": 16, "marital-status": 7, "occupation": 14,
    "relationship": 6, "race": 5, "native-country": 41,
}

CENSUS_FEATURES = ("degree", "fulltime", "senior", "skill", "union", "urban", "tenure")
CENSUS_SCHEMA = f"""\
label = y
label_positive = 1
protected = group
protected_positive = 1
numeric = {", ".join(CENSUS_FEATURES)}
"""


def _categorical(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Category indices with a skewed (Zipf-like) frequency profile; rows
    0..k-1 hold every category once so the one-hot width never depends on
    the seed."""
    p = 1.0 / np.arange(1, k + 1) ** 1.2
    out = rng.choice(k, size=n, p=p / p.sum())
    out[:k] = rng.permutation(k)
    return out


def write_adult_like(path, n: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    male = rng.random(n) < 0.67
    age = np.clip(np.round(rng.gamma(6.0, 6.5, n) + 17), 17, 90).astype(int)
    fnlwgt = np.round(np.exp(rng.normal(12.0, 0.6, n))).astype(int)
    cats = {name: _categorical(rng, n, k) for name, k in CARDINALITY.items()}
    edu_num = 1 + cats["education"]  # one numeric level per education category
    hours = np.clip(np.round(rng.normal(40 + 4 * male, 11, n)), 1, 99).astype(int)
    gain = np.where(rng.random(n) < 0.08, np.round(rng.exponential(9000, n)), 0).astype(int)
    loss = np.where(rng.random(n) < 0.05, np.round(rng.normal(1900, 350, n)), 0).astype(int)
    score = (
        0.9 * male + 0.05 * (age - 38) + 0.25 * (edu_num - 8) + 0.04 * (hours - 40)
        + 1.5 * (gain > 0) + 0.8 * (cats["marital-status"] == 0)
        - 0.5 * (cats["occupation"] >= 7) - 2.3
    )
    rich = rng.random(n) < expit(score)

    cells = {
        "age": age.astype(str),
        "fnlwgt": fnlwgt.astype(str),
        "education-num": edu_num.astype(str),
        "sex": np.where(male, "Male", "Female"),
        "capital-gain": gain.astype(str),
        "capital-loss": loss.astype(str),
        "hours-per-week": hours.astype(str),
        "income": np.where(rich, ">50K", "<=50K"),
    }
    for name, idx in cats.items():
        cells[name] = np.array([f"{name[:4]}-{i}" for i in range(CARDINALITY[name])])[idx]
    columns = [cells[name] for name in ADULT_COLUMNS]
    with open(path, "w") as fh:
        for row in zip(*columns):
            fh.write(", ".join(row) + "\n")


def write_census(path, n: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < 0.45).astype(np.int64)
    degree = (rng.random(n) < 0.25 + 0.50 * z).astype(int)
    fulltime = (rng.random(n) < 0.35 + 0.40 * z).astype(int)
    senior = (rng.random(n) < 0.30 + 0.35 * z).astype(int)
    skill = rng.random(n)
    union = (rng.random(n) < 0.3).astype(int)
    urban = (rng.random(n) < 0.6).astype(int)
    tenure = rng.random(n)
    score = 1.8 * (2.2 * degree + 1.6 * fulltime + 1.2 * senior + 2.6 * skill - 3.6)
    y = (rng.random(n) < expit(score)).astype(int)
    with open(path, "w") as fh:
        fh.write(",".join(CENSUS_FEATURES + ("group", "y")) + "\n")
        columns = (degree, fulltime, senior, skill, union, urban, tenure, z, y)
        for row in zip(*(c.tolist() for c in columns)):
            fh.write(",".join(map(repr, row)) + "\n")
