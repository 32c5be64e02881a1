"""Round-3 session-4 ops vs in-process brute-force references on
adversarial random data: gaps-and-islands, CDC snapshot diff, global
row number, dataset profiling, FastSS fuzzy pairs, interval sweep-line."""

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _from_pandas(df):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))


class TestGroupedIslands:
    def _brute(self, df):
        out = []
        for k, g in df.groupby("k"):
            steps = sorted(set(g["s"]))
            islands = []
            start = prev = steps[0]
            for s in steps[1:]:
                if s != prev + 1:
                    islands.append((start, prev - start + 1))
                    start = s
                prev = s
            islands.append((start, prev - start + 1))
            longest = max(l for _, l in islands)
            out.append((k, len(islands), longest,
                        min(st for st, l in islands if l == longest),
                        len(steps)))
        return sorted(out)

    def test_matches_brute_force(self, ray_session):
        from battery.ops.relational import grouped_islands

        rng = np.random.default_rng(11)
        df = pd.DataFrame({
            "k": rng.integers(0, 25, 3000).astype(np.int64),
            # duplicates + gaps + negative steps
            "s": rng.integers(-40, 40, 3000).astype(np.int64),
        })
        got = grouped_islands(_from_pandas(df), "k", "s",
                              n_buckets=7).to_pandas()
        got_rows = sorted(map(tuple, got[["k", "n_islands", "longest",
                                          "longest_start",
                                          "n_active"]].to_numpy()))
        assert got_rows == self._brute(df)


class TestSnapshotDiff:
    def test_matches_brute_force(self, ray_session):
        from battery.ops.relational import snapshot_diff

        rng = np.random.default_rng(5)
        keys = rng.permutation(500).astype(np.int64)
        a = pd.DataFrame({"k": keys[:400],
                          "v": rng.integers(0, 5, 400).astype(np.int64)})
        b_keys = keys[100:]
        b = pd.DataFrame({"k": b_keys,
                          "v": rng.integers(0, 5, 400).astype(np.int64)})
        got = snapshot_diff(_from_pandas(a), _from_pandas(b), "k", "v",
                            n_buckets=5).to_pandas()
        av = dict(zip(a["k"], a["v"]))
        bv = dict(zip(b["k"], b["v"]))
        exp = []
        for k in set(av) | set(bv):
            if k not in bv:
                exp.append((k, "removed", av[k], -1))
            elif k not in av:
                exp.append((k, "added", -1, bv[k]))
            elif av[k] != bv[k]:
                exp.append((k, "changed", av[k], bv[k]))
        assert sorted(map(tuple, got.to_numpy())) == sorted(exp)

    def test_duplicate_key_contract(self, ray_session):
        from battery.ops.relational import snapshot_diff

        a = pd.DataFrame({"k": np.array([1, 1], np.int64),
                          "v": np.array([2, 3], np.int64)})
        b = pd.DataFrame({"k": np.array([1], np.int64),
                          "v": np.array([2], np.int64)})
        with pytest.raises(Exception):
            snapshot_diff(_from_pandas(a), _from_pandas(b), "k",
                          "v").to_pandas()


class TestGlobalRowNumber:
    @pytest.mark.parametrize("shift", [0, 3, 8])
    def test_matches_argsort(self, ray_session, shift):
        from battery.ops.relational import global_row_number

        rng = np.random.default_rng(3)
        df = pd.DataFrame({
            "v": rng.integers(0, 200, 1000).astype(np.int64),
            "tie": rng.permutation(1000).astype(np.int64),
        })
        got = global_row_number(_from_pandas(df), "v", "tie",
                                shift=shift).to_pandas()
        got = got.sort_values("idx").reset_index(drop=True)
        exp = df.sort_values(["v", "tie"], kind="stable").reset_index(
            drop=True)
        assert (got["idx"].to_numpy() == np.arange(1000)).all()
        assert (got["v"].to_numpy() == exp["v"].to_numpy()).all()
        assert (got["tie"].to_numpy() == exp["tie"].to_numpy()).all()


class TestProfileDataset:
    def test_exact_profile(self, ray_session):
        from battery.ops.profile import profile_dataset

        rng = np.random.default_rng(9)
        n = 2000
        df = pd.DataFrame({
            "i": rng.integers(0, 50, n).astype(np.int64),
            "p": np.round(rng.uniform(0, 99, n), 2),
            "s": rng.choice(["aa", "b", "zz", "m"], n),
        })
        got = profile_dataset(_from_pandas(df),
                              {"i": "int", "p": "cents", "s": "str"})
        cents = np.floor(df["p"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        exp = {
            "i": (0, df["i"].nunique(), str(df["i"].min()),
                  str(df["i"].max())),
            "p": (0, len(np.unique(cents)), str(cents.min()),
                  str(cents.max())),
            "s": (0, df["s"].nunique(), df["s"].min(), df["s"].max()),
        }
        for _, r in got.iterrows():
            assert (r["nulls"], r["n_distinct"], r["min_v"],
                    r["max_v"]) == exp[r["col"]], r["col"]


class TestFuzzyTokenPairs:
    def test_levenshtein_kernel(self):
        from battery.ops.fuzzy import levenshtein

        assert levenshtein("", "abc") == 3
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("flaw", "lawn") == 2
        assert levenshtein("a", "a") == 0

    def test_matches_brute_force(self, ray_session):
        from battery.ops.fuzzy import fuzzy_token_pairs, levenshtein

        rng = np.random.default_rng(2)
        vocab = ["spark", "spork", "sprk", "stark", "shark", "park",
                 "parka", "bark", "data", "date", "gate", "gaze", "x"]
        docs = pd.DataFrame({
            "text": [" ".join(rng.choice(vocab, 6)) for _ in range(80)],
        })
        got = fuzzy_token_pairs(_from_pandas(docs), max_d=2).to_pandas()
        toks = sorted({w for t in docs["text"] for w in t.split(" ")})
        counts = {}
        for t in docs["text"]:
            for w in t.split(" "):
                counts[w] = counts.get(w, 0) + 1
        exp = sorted(
            (a, b, levenshtein(a, b), counts[a], counts[b])
            for a, b in itertools.combinations(toks, 2)
            if levenshtein(a, b) <= 2
        )
        assert sorted(map(tuple, got[["tok_a", "tok_b", "dist", "n_a",
                                      "n_b"]].to_numpy())) == exp


class TestIntervalSweep:
    def _brute_max_cc(self, iv):
        times = sorted({t for a, b in iv for t in (a, b)})
        best, at = -1, None
        for t in times:
            cc = sum(1 for a, b in iv if a <= t <= b)
            if cc > best:
                best, at = cc, t
        return best, at

    @pytest.mark.parametrize("t_shift", [2, 6])
    def test_matches_brute_force(self, ray_session, t_shift):
        from battery.ops.relational import interval_max_concurrency

        rng = np.random.default_rng(4)
        a = rng.integers(0, 500, 300).astype(np.int64)
        b = a + rng.integers(0, 60, 300).astype(np.int64)
        iv = _from_pandas(pd.DataFrame({"a_us": a, "b_us": b}))
        got = interval_max_concurrency(iv, t_shift=t_shift)
        mx, at = self._brute_max_cc(list(zip(a, b)))
        assert int(got["max_cc"].iloc[0]) == mx
        assert int(got["t_at_max"].iloc[0]) == at
        assert int(got["n_intervals"].iloc[0]) == 300

    def test_session_intervals(self, ray_session):
        from battery.ops.relational import session_intervals

        rng = np.random.default_rng(6)
        n = 500
        df = pd.DataFrame({
            "user_id": rng.integers(0, 12, n).astype(np.int64),
            "ts": pd.to_datetime(
                rng.integers(0, 3_600_000, n), unit="us"),
        })
        got = session_intervals(_from_pandas(df), gap_us=10_000,
                                n_buckets=4).to_pandas()
        exp = []
        for k, g in df.groupby("user_id"):
            t = np.sort(g["ts"].to_numpy().astype("datetime64[us]")
                        .astype(np.int64))
            start = si = 0
            for i in range(1, len(t)):
                if t[i] - t[i - 1] > 10_000:
                    exp.append((k, t[si], t[i - 1], i - si))
                    si = i
            exp.append((k, t[si], t[-1], len(t) - si))
        assert sorted(map(tuple, got.to_numpy())) == sorted(exp)
