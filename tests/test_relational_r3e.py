"""Round-3 session-5 co-partition kernels vs in-process brute-force
references on adversarial random data (heavy ts ties, duplicate
values, single-event users): Spearman ranks, TWAP integrals, windowed
funnel joins, watermark lateness, last-touch attribution, TTL dedup,
key-space gaps and growth accounting all recomputed with plain Python
loops and compared row-for-row."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SEED = 20260818


@pytest.fixture(scope="module")
def rand_sf(tmp_path_factory):
    rng = np.random.default_rng(SEED)
    d = tmp_path_factory.mktemp("rand_sf")
    n = 400
    ts = np.sort(rng.integers(0, 30 * 86400, n)) * 1_000_000 \
        + 1_704_067_200_000_000
    # force heavy ties
    ts[1::7] = ts[::7][: len(ts[1::7])]
    ev = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": ts.astype("datetime64[us]"),
        "user_id": rng.integers(1, 13, n).astype(np.int64),
        "event_type": rng.choice(
            ["view", "click", "purchase", "signup", "error"], n),
        "value": np.round(rng.uniform(0.01, 400.0, n), 2),
        "props": ["{}"] * n,
    })
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   d / "events.parquet")
    keys = np.unique(rng.integers(0, 5000, 300)).astype(np.int64)
    orders = pd.DataFrame({
        "o_orderkey": keys,
        "o_custkey": rng.integers(1, 40, len(keys)).astype(np.int64),
        "o_orderstatus": rng.choice(["F", "O", "P"], len(keys)),
        "o_totalprice": np.round(rng.uniform(100, 9000, len(keys)), 2),
        "o_orderdate": (rng.integers(9000, 11000, len(keys))
                        * 86_400_000_000).astype("datetime64[us]"),
        "o_orderpriority": rng.choice(["1-URGENT", "2-HIGH"], len(keys)),
    })
    pq.write_table(pa.Table.from_pandas(orders, preserve_index=False),
                   d / "orders.parquet")
    return str(d)


def _events(rand_sf):
    df = pq.read_table(f"{rand_sf}/events.parquet").to_pandas()
    df["us"] = df["ts"].astype("datetime64[us]").astype(np.int64)
    df["cents"] = np.floor(df["value"].to_numpy() * 100.0).astype(np.int64)
    return df.sort_values(["user_id", "us", "event_id"]).reset_index(drop=True)


def _canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _cmp(got, exp):
    got, exp = _canon(pd.DataFrame(got)), _canon(pd.DataFrame(exp))
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp), (len(got), len(exp))
    for c in got.columns:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_spearman_matches_brute(ray_session, rand_sf):
    from battery.queries import QUERIES

    got = QUERIES["spearman_users"](rand_sf).to_pandas()
    ev = _events(rand_sf)
    rows = []
    for u, g in ev.groupby("user_id"):
        if len(g) < 2:
            continue
        rt = {e: i + 1 for i, e in enumerate(
            g.sort_values(["us", "event_id"])["event_id"])}
        rv = {e: i + 1 for i, e in enumerate(
            g.sort_values(["value", "us", "event_id"])["event_id"])}
        sd2 = sum((rt[e] - rv[e]) ** 2 for e in g["event_id"])
        n = len(g)
        den = n * (n * n - 1)
        rho = int(np.floor((den - 6 * sd2) * 1e6 / den + 0.5))
        rows.append({"user_id": u, "n": n, "sum_d2": sd2,
                     "rho_ppm": rho})
    _cmp(got, rows)


def test_twap_matches_brute(ray_session, rand_sf):
    from battery.queries import QUERIES

    got = QUERIES["twap_users"](rand_sf).to_pandas()
    ev = _events(rand_sf)
    rows = []
    for u, g in ev.groupby("user_id"):
        g = g.sort_values(["us", "event_id"])
        us, cents = g["us"].tolist(), g["cents"].tolist()
        dur = wsum = 0
        for i in range(len(us) - 1):
            dt = us[i + 1] - us[i]
            dur += dt
            wsum += cents[i] * dt
        rows.append({"user_id": u, "n": len(us), "dur_us": dur,
                     "wsum": wsum})
    _cmp(got, rows)


def test_funnel_windowed_matches_brute(ray_session, rand_sf):
    from battery.queries import QUERIES

    got = QUERIES["funnel_windowed_users"](rand_sf).to_pandas()
    ev = _events(rand_sf)
    W = 86_400_000_000
    rows = []
    for u, g in ev.groupby("user_id"):
        p = g[g.event_type == "purchase"]
        v = g[g.event_type == "view"]["us"].tolist()
        if len(p) == 0:
            continue
        hits = [sum(1 for x in v if pt - W <= x < pt)
                for pt in p["us"]]
        rows.append({"user_id": u, "n_purchases": len(p),
                     "n_converted": sum(1 for h in hits if h > 0),
                     "n_view_hits": sum(hits)})
    _cmp(got, rows)


def test_watermark_matches_brute(ray_session, rand_sf):
    from battery.queries import QUERIES

    got = QUERIES["watermark_late_events"](rand_sf).to_pandas()
    ev = pq.read_table(f"{rand_sf}/events.parquet").to_pandas()
    ev["us"] = ev["ts"].astype("datetime64[us]").astype(np.int64)
    ev["arr"] = (ev["event_id"].to_numpy().astype(np.uint64)
                 * np.uint64(2654435761)) % np.uint64(4294967296)
    ev = ev.sort_values(["arr", "event_id"])
    wm = None
    per_day: dict[int, list[int]] = {}
    for us in ev["us"]:
        day = us // 86_400_000_000
        n, late = per_day.get(day, [0, 0])
        n += 1
        if wm is not None and us < wm - 3_600_000_000:
            late += 1
        per_day[day] = [n, late]
        wm = us if wm is None else max(wm, us)
    rows = [{"day": d, "n_events": n, "n_late": l}
            for d, (n, l) in per_day.items()]
    _cmp(got, rows)


def test_attribution_matches_brute(ray_session, rand_sf):
    from battery.queries import QUERIES

    got = QUERIES["attribution_lasttouch"](rand_sf).to_pandas()
    ev = _events(rand_sf)
    counts: dict[str, int] = {}
    for u, g in ev.groupby("user_id"):
        g = g.sort_values(["us", "event_id"])
        last = None
        for ty in g["event_type"]:
            if ty == "purchase":
                key = last if last is not None else "none"
                counts[key] = counts.get(key, 0) + 1
            else:
                last = ty
    rows = [{"touch_type": k, "n_purchases": v}
            for k, v in counts.items()]
    _cmp(got, rows)


def test_stream_dedup_matches_brute(ray_session, rand_sf):
    from battery.queries import QUERIES

    got = QUERIES["stream_dedup_ttl"](rand_sf).to_pandas()
    ev = _events(rand_sf)
    per_day: dict[int, list[int]] = {}
    for (u, ty, c), g in ev.groupby(["user_id", "event_type", "cents"]):
        g = g.sort_values(["us", "event_id"])
        prev = None
        for us in g["us"]:
            day = us // 86_400_000_000
            n, drop = per_day.get(day, [0, 0])
            n += 1
            if prev is not None and us - prev <= 3_600_000_000:
                drop += 1
            per_day[day] = [n, drop]
            prev = us
    rows = [{"day": d, "n_events": n, "n_dropped": x}
            for d, (n, x) in per_day.items()]
    _cmp(got, rows)


def test_keyspace_gaps_matches_brute(ray_session, rand_sf):
    from battery.queries import QUERIES

    got = QUERIES["keyspace_gaps_orders"](rand_sf)
    o = pq.read_table(f"{rand_sf}/orders.parquet").to_pandas()
    k = sorted(o[o.o_orderstatus == "F"]["o_orderkey"])
    gaps = [b - a - 1 for a, b in zip(k, k[1:]) if b - a > 1]
    exp = {"n_keys": len(k), "n_gaps": len(gaps),
           "missing_total": sum(gaps),
           "max_gap": max(gaps) if gaps else 0}
    for c, v in exp.items():
        assert int(got[c].iloc[0]) == v, c


def test_growth_accounting_matches_brute(ray_session, rand_sf):
    from battery.queries import QUERIES

    got = QUERIES["growth_accounting_quarters"](rand_sf).to_pandas()
    o = pq.read_table(f"{rand_sf}/orders.parquet").to_pandas()
    day = o["o_orderdate"].astype("datetime64[us]").astype(np.int64) \
        // 86_400_000_000
    dt = pd.to_datetime(day * 86400, unit="s")
    q = (dt.dt.year * 4 + (dt.dt.month - 1) // 3).astype(np.int64)
    cq = sorted(set(zip(o["o_custkey"], q)))
    ledger: dict[int, list[int]] = {}
    prev: dict[int, int] = {}
    for c, qq in cq:
        row = ledger.setdefault(qq, [0, 0, 0])
        if c not in prev:
            row[0] += 1
        elif prev[c] == qq - 1:
            row[1] += 1
        else:
            row[2] += 1
        prev[c] = qq
    rows = [{"quarter": qq, "n_new": a, "n_retained": b,
             "n_resurrected": c} for qq, (a, b, c) in ledger.items()]
    _cmp(got, rows)
