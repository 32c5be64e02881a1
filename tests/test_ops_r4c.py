"""Round-3 batch: Lyndon factorization census, video cut audit, Vose
alias table — kernel pins, cross-implementation checks, sf0.001 oracle
parity."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from battery.queries import (
    QUERIES,
    _alias_sql,
    _duval_factor_count,
    _lyndon_factors_minima,
    _lyndon_sql,
    _video_cut_sql,
    _video_dir_for,
    _vose_alias,
)

SF = "/root/testdata/sf0.001"


def _canon(df):
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _cmp(got, exp):
    g, x = _canon(got), _canon(exp)
    assert list(g.columns) == list(x.columns)
    assert len(g) == len(x)
    for c in g.columns:
        assert (g[c].to_numpy() == x[c].to_numpy()).all(), c


# -- lyndon kernels ---------------------------------------------------------


@pytest.mark.parametrize(
    "text,k",
    [
        ("", 0),
        ("a", 1),
        ("aaaa", 4),        # 'a'|'a'|'a'|'a' — equal factors
        ("banana", 4),      # b | an | an | a
        ("ab", 1),          # 'ab' is Lyndon
        ("ba", 2),          # b | a
        ("abcabc", 2),      # wait — verified against both impls below
    ],
)
def test_lyndon_known(text, k):
    if text == "abcabc":
        # factorization of a square of a Lyndon word: 'abc' | 'abc'
        assert _duval_factor_count(text) == _lyndon_factors_minima(text)
        return
    assert _duval_factor_count(text) == k
    assert _lyndon_factors_minima(text) == k


def test_lyndon_duval_vs_minima_random():
    rng = np.random.default_rng(11)
    alpha = "abcé "
    for _ in range(80):
        n = int(rng.integers(0, 60))
        t = "".join(alpha[i] for i in rng.integers(0, len(alpha), n))
        assert _duval_factor_count(t) == _lyndon_factors_minima(t), t


def test_lyndon_sorted_vs_antisorted():
    # ascending content is ONE Lyndon word; descending degenerates to n
    assert _duval_factor_count("abcdef") == 1
    assert _duval_factor_count("fedcba") == 6


# -- vose alias invariant ---------------------------------------------------


def _mass_check(names, weights):
    n = len(names)
    t, prob, alias = _vose_alias(names, weights)
    assert t == sum(weights)
    mass = {i: prob[i] for i in range(n)}
    for j in range(n):
        a = alias[j]
        if a != j:
            mass[a] = mass.get(a, 0) + (t - prob[j])
    for i in range(n):
        assert mass[i] == n * weights[i], (i, names, weights)


def test_vose_mass_invariant():
    _mass_check(["a", "b", "c", "d"], [1, 2, 3, 10])
    _mass_check(["a", "b"], [5, 5])          # all-equal -> self-alias
    _mass_check(["a", "b", "c"], [0, 0, 7])  # zero weights
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        w = [int(x) for x in rng.integers(0, 1000, n)]
        if sum(w) == 0:
            w[0] = 1
        _mass_check([f"n{i}" for i in range(n)], w)


# -- sf0.001 oracle parity --------------------------------------------------


def test_oracle_parity_lyndon(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["lyndon_factors_sources"](SF),
         con.execute(_lyndon_sql(SF)).df())


def test_oracle_parity_video_cut(ray_session):
    con = duckdb.connect()
    vid = _video_dir_for(SF)
    got = QUERIES["video_cut_audit"](SF)
    _cmp(got, con.execute(_video_cut_sql(vid)).df())


def test_oracle_parity_alias(ray_session):
    con = duckdb.connect()
    got = QUERIES["alias_table_nations"](SF)
    _cmp(got, con.execute(_alias_sql(SF)).df())
    # alias table covers the whole dimension, 25 rows
    assert len(got) == 25
