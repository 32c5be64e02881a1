"""Query battery part — 41 driver queries (split from the former single-module queries.py).

Registers:
zeller_dow_orders, horner_estrin_days, jaro_adjacent_docs,
montgomery_redc_orders, karatsuba_bigint_sources,
prufer_roundtrip_dups, simpson_paradox_nations,
activity_selection_weekly, median_two_shards_orders,
majority_vote_users, gray_roundtrip_orders, spmv_csr_docs,
auction_assignment_nations, welford_users, knapsack_mitm_nations,
prime_keys_orders, necklace_census_weeks, dominance_pairs_parts,
run_formation_orders, cache_paging_orders, matrix_chain_days,
stern_brocot_orders, damm_audit_orders, zorder_bigmin_query,
mo_range_distinct_days, rank_select_days, gf256_docs,
crt_bezout_orders, tonelli_orders, kasiski_docs, ckmeans_days,
pava_days, grundy_weekly, josephus_weekly, rsk_weekly,
bst_height_weekly, carter_wegman_orders, decimal_period_orders,
elo_weekly_nations, adler32_docs, simple9_users
"""


from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .b01_core import (
    _dim_np,
    EMBEDDING_DUPS_SQL,
    ORACLE_SQL,
    QUERIES,
    _atomic_write_table,
    _broadcast,
    _image_dir_for,
    _mods_digest,
    _oracle_cache_dir,
    _read,
)  # noqa: F401

from .b09_misc import (
    _HUN_K,
    _hungarian,
    _hungarian_sidecar,
    _sm64_scalar_rho,
    _top_bal,
)  # noqa: F401

from .b10_relational import (
    _Fenwick,
    _bfs_tree,
    _largest_component,
    _zeller_dow,
)  # noqa: F401



def q_zeller_dow_orders(sf_dir: str):
    """Day-of-week census of order dates via ZELLER'S CONGRUENCE —
    the 1882 closed-form calendar arithmetic (century terms, the
    Jan/Feb year-shift trick) that every datetime library ultimately
    encodes, here computed FROM THE Y/M/D FIELDS ONLY and checked
    against a completely different derivation: the oracle's
    isodow() works from the epoch-day modulo. Two independent
    calendar algebras agreeing on 15k dates is the audit; the
    census itself (orders per weekday) is the seasonality readout.
    Fully vectorized; per-batch (dow, n) cells contract the scan.
    PURE-SQL replay via isodow() — no sidecar; leap-day and
    century-boundary pins in tests."""
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        ts = t["o_orderdate"].cast(pa.timestamp("us"))
        y = pc.year(ts).to_numpy(zero_copy_only=False)
        m = pc.month(ts).to_numpy(zero_copy_only=False)
        d = pc.day(ts).to_numpy(zero_copy_only=False)
        dow = _zeller_dow(y.astype(np.int64), m.astype(np.int64),
                          d.astype(np.int64))
        u, cnt = np.unique(dow, return_counts=True)
        return pa.table({"dow": pa.array(u.astype(np.int64)),
                         "n": pa.array(cnt.astype(np.int64))})

    out = (orders.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("dow").sum("n")).to_pandas()
    out.columns = ["dow", "n"]
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("dow").reset_index(drop=True)



QUERIES["zeller_dow_orders"] = q_zeller_dow_orders

ORACLE_SQL["zeller_dow_orders"] = """
        SELECT CAST(isodow(o_orderdate) AS BIGINT) AS dow,
               COUNT(*) AS n
        FROM orders GROUP BY 1
    """



# ---------------------------------------------------------------------------
# horner_estrin_days: polynomial evaluation, sequential vs parallel form
# ---------------------------------------------------------------------------

_POLY_M = (1 << 61) - 1

_POLY_X0 = 1_000_003

_POLY_PTS = 8



def _horner_mod(coef, x: int) -> int:
    """Horner's rule mod M — the optimal SEQUENTIAL evaluation:
    n multiplies, n adds, a strict dependency chain."""
    acc = 0
    for c in reversed(coef):
        acc = (acc * x + c) % _POLY_M
    return acc



def _estrin_mod(coef, x: int) -> int:
    """INDEPENDENT replay: ESTRIN'S SCHEME — pair coefficients into
    (c_{2i} + c_{2i+1}·x) and square the base each level, halving
    the polynomial per round: the O(log n)-depth parallel form that
    SIMD and carry-save hardware actually use. A different
    computation DAG entirely; equal by ring algebra."""
    cur = [c % _POLY_M for c in coef]
    if not cur:
        return 0
    xp = x % _POLY_M
    while len(cur) > 1:
        nxt = []
        for i in range(0, len(cur) - 1, 2):
            nxt.append((cur[i] + cur[i + 1] * xp) % _POLY_M)
        if len(cur) % 2:
            nxt.append(cur[-1])
        cur = nxt
        xp = xp * xp % _POLY_M
    return cur[0]



def q_horner_estrin_days(sf_dir: str):
    """Polynomial evaluation audit: the first 64 daily order counts
    as coefficients of a degree-63 polynomial over GF(2⁶¹−1),
    evaluated at 8 splitmix-drawn points by HORNER'S RULE — the
    optimal sequential chain — while the oracle evaluates the same
    points by ESTRIN'S SCHEME, the log-depth pair-and-square
    parallel form SIMD hardware uses: two different computation DAGs
    whose agreement is pure ring algebra, and exactly the identity
    a Reed-Solomon or KZG-style commitment pipeline depends on
    (rs_erasure_weekly interpolates; THIS evaluates). The day
    series contracts from batch partials; evaluation is
    coefficient-scale epilogue. Monomial and constant pins, random
    cross-checks."""
    from geotile.synth import splitmix64

    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"day": day}).group_by("day") \
            .aggregate([([], "count_all")])
        return pa.table({"day": g["day"],
                         "n": g["count_all"].cast(pa.int64())})

    days = (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("day").sum("n")).to_pandas()
    days.columns = ["day", "n"]
    days = days.sort_values("day").head(64)
    coef = days["n"].to_numpy(np.int64).tolist()
    xs = [(_POLY_X0 + int(splitmix64(
        np.array([i], np.uint64))[0] % np.uint64(1 << 40)))
        for i in range(_POLY_PTS)]
    vals = [_horner_mod(coef, x % _POLY_M) for x in xs]
    return pd.DataFrame({
        "pid": np.arange(_POLY_PTS, dtype=np.int64),
        "x_mod": np.array([x % _POLY_M for x in xs], np.int64),
        "p_of_x": np.array(vals, np.int64)})



QUERIES["horner_estrin_days"] = q_horner_estrin_days



def _poly_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    from geotile.synth import splitmix64

    key = blake2b((sf_dir + "poly-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_poly_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 AS d, "
            "COUNT(*) FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            "GROUP BY 1 ORDER BY 1 LIMIT 64").fetchall()
        coef = [int(n) for _d, n in rows]
        out_rows = []
        for i in range(_POLY_PTS):
            x = (_POLY_X0 + int(splitmix64(
                np.array([i], np.uint64))[0]
                % np.uint64(1 << 40))) % _POLY_M
            out_rows.append({"pid": i, "x_mod": x,
                             "p_of_x": _estrin_mod(coef, x)})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _poly_sql(sf_dir: str) -> str:
    return (f"SELECT pid, x_mod, p_of_x "
            f"FROM read_parquet('{_poly_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# jaro_adjacent_docs: exact-rational Jaro-Winkler on consecutive doc heads
# ---------------------------------------------------------------------------


def _jaro_frac(a: str, b: str) -> tuple:
    """Jaro similarity as the EXACT fraction (num, den): matches m
    within the ⌊max/2⌋−1 window, transpositions t = half the
    out-of-order matched pairs; sim = (m/|a| + m/|b| + (m−t)/m)/3 =
    (m·|b|·m + m·|a|·m + (m−t)·|a||b|) / (3·|a||b|·m). Zero floats;
    (0, 1) for no matches."""
    from math import gcd

    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 1, 1
    if la == 0 or lb == 0:
        return 0, 1
    w = max(la, lb) // 2 - 1
    bm = [False] * lb
    am = [False] * la
    m = 0
    for i in range(la):
        lo = max(0, i - w)
        hi = min(lb, i + w + 1)
        for j in range(lo, hi):
            if not bm[j] and a[i] == b[j]:
                am[i] = True
                bm[j] = True
                m += 1
                break
    if m == 0:
        return 0, 1
    t2 = 0
    j = 0
    for i in range(la):
        if am[i]:
            while not bm[j]:
                j += 1
            if a[i] != b[j]:
                t2 += 1
            j += 1
    t = t2 // 2
    num = m * m * lb + m * m * la + (m - t) * la * lb
    den = 3 * la * lb * m
    g = gcd(num, den) or 1
    return num // g, den // g



def _jw_frac(a: str, b: str) -> tuple:
    """Jaro-Winkler as an exact fraction: jw = j + ℓ·p·(1−j) with
    p = 1/10 and ℓ = common prefix ≤ 4 — in fractions,
    jw = (10·num + ℓ·(den − num)) / (10·den), reduced."""
    from math import gcd

    num, den = _jaro_frac(a, b)
    ell = 0
    for x, y in zip(a[:4], b[:4]):
        if x != y:
            break
        ell += 1
    n2 = 10 * num + ell * (den - num)
    d2 = 10 * den
    g = gcd(n2, d2) or 1
    return n2 // g, d2 // g



def q_jaro_adjacent_docs(sf_dir: str):
    """Exact-rational Jaro-Winkler between each source's consecutive
    doc HEADS (first 24 chars) — the record-linkage similarity (the
    Census Bureau's matcher) completing the string-similarity family
    beside edit distance and LCS: the match-window m and half-
    transposition count reward shared characters in nearly-right
    ORDER, and the Winkler prefix boost encodes that humans misspell
    suffixes, not prefixes — all shipped as reduced EXACT fractions
    (big-int gcd), zero floats, so the driver hash is bit-stable.
    Output: per source Σnum·DEN/den folded exactly? — no: the pair
    rows themselves ship (source, doc_id, num, den). Pairs form
    inside per-source co-partitions. INDEPENDENT re-mechanized
    replay (flag arrays vs index lists), textbook MARTHA/MARHTA
    pinned at its published value."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id", kind="stable")
        heads = [t[:24] for t in df["text"]]
        ids = df["doc_id"].to_numpy(np.int64)
        rows = {"source": [], "doc_id": [], "jw_num": [],
                "jw_den": []}
        for k in range(len(heads) - 1):
            n, d = _jw_frac(heads[k], heads[k + 1])
            rows["source"].append(df["source"].iloc[0])
            rows["doc_id"].append(int(ids[k]))
            rows["jw_num"].append(n)
            rows["jw_den"].append(d)
        return pd.DataFrame(rows)

    return ds.groupby("source").map_groups(fold, batch_format="pandas")



QUERIES["jaro_adjacent_docs"] = q_jaro_adjacent_docs



def _jaro_frac_lists(a: str, b: str) -> tuple:
    """INDEPENDENT replay: matches tracked as explicit matched-index
    LISTS (no boolean flag arrays); transpositions from zipped
    match sequences."""
    from math import gcd

    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 1, 1
    if la == 0 or lb == 0:
        return 0, 1
    w = max(la, lb) // 2 - 1
    used = set()
    mi = []
    mj = []
    for i in range(la):
        for j in range(max(0, i - w), min(lb, i + w + 1)):
            if j not in used and a[i] == b[j]:
                used.add(j)
                mi.append(i)
                mj.append(j)
                break
    m = len(mi)
    if m == 0:
        return 0, 1
    sa = [a[i] for i in mi]
    sb = [b[j] for j in sorted(mj)]
    t = sum(1 for x, y in zip(sa, sb) if x != y) // 2
    num = m * m * lb + m * m * la + (m - t) * la * lb
    den = 3 * la * lb * m
    g = gcd(num, den) or 1
    return num // g, den // g



def _jw_frac_lists(a: str, b: str) -> tuple:
    from math import gcd

    num, den = _jaro_frac_lists(a, b)
    ell = 0
    for x, y in zip(a[:4], b[:4]):
        if x != y:
            break
        ell += 1
    n2 = 10 * num + ell * (den - num)
    d2 = 10 * den
    g = gcd(n2, d2) or 1
    return n2 // g, d2 // g



def _jaro_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "jaro-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_jaro_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT source, doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source, doc_id").fetchall()
        prev: dict = {}
        out_rows = []
        for src, did, txt in rows:
            h = txt[:24]
            if src in prev:
                pd_, ph = prev[src]
                n, d = _jw_frac_lists(ph, h)
                out_rows.append({"source": src, "doc_id": pd_,
                                 "jw_num": n, "jw_den": d})
            prev[src] = (int(did), h)
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _jaro_sql(sf_dir: str) -> str:
    return (f"SELECT source, doc_id, jw_num, jw_den "
            f"FROM read_parquet('{_jaro_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# montgomery_redc_orders: Montgomery-form modular multiplication audit
# ---------------------------------------------------------------------------

_MG_N = 0xFFFFFFFFFFFFFFC5      # largest 64-bit prime (odd modulus)

_MG_R_BITS = 64



def _mg_setup():
    """(R² mod N, N' = −N⁻¹ mod R) — the per-modulus constants."""
    R = 1 << _MG_R_BITS
    r2 = (R * R) % _MG_N
    ninv = pow(_MG_N, -1, R)
    nprime = (R - ninv) % R
    return r2, nprime



def _redc(T: int, nprime: int) -> int:
    """Montgomery reduction: given T < N·R, return T·R⁻¹ mod N with
    ONE division-free pass: m = (T mod R)·N' mod R; t = (T + m·N)/R;
    subtract N once if needed — the trick that replaces a costly
    mod-N division with shifts and masks, the inner loop of every
    bignum crypto library."""
    R_MASK = (1 << _MG_R_BITS) - 1
    m = ((T & R_MASK) * nprime) & R_MASK
    t = (T + m * _MG_N) >> _MG_R_BITS
    return t - _MG_N if t >= _MG_N else t



def _mg_mulmod(a: int, b: int) -> int:
    """a·b mod N entirely through Montgomery form: to-form via R²,
    multiply+REDC, from-form via REDC of the bare value."""
    r2, nprime = _mg_setup()
    am = _redc(a * r2, nprime)
    bm = _redc(b * r2, nprime)
    cm = _redc(am * bm, nprime)
    return _redc(cm, nprime)



def q_montgomery_redc_orders(sf_dir: str):
    """Montgomery-form modular multiplication audit — the
    division-free REDC that is the inner loop of every RSA/ECC
    implementation (rsa_roundtrip_orders exercises powmod; THIS
    audits the reduction primitive under it): consecutive orderkey
    pairs multiply mod the largest 64-bit prime entirely through
    Montgomery form — to-form, multiply, REDC, from-form — and the
    result is asserted equal to the plain a·b mod N for EVERY pair
    in-operator; an order-free XOR product checksum ships. Pairing
    is over the GLOBALLY sorted key list (batch-boundary-free by
    design — a per-batch pairing would silently change with block
    sizes). Sidecar recomputes with plain big-int modmul only — no
    Montgomery anywhere."""
    ks = np.sort(_read(sf_dir, "orders", ["o_orderkey"])
                 .to_pandas()["o_orderkey"].to_numpy(np.int64))
    x = 0
    cnt = 0
    for i in range(0, len(ks) - 1, 2):
        a, b = int(ks[i]), int(ks[i + 1])
        got = _mg_mulmod(a, b)
        if got != a * b % _MG_N:
            raise AssertionError("REDC mismatch")
        x ^= got
        cnt += 1
    return pd.DataFrame({
        "n_pairs": np.array([cnt], np.int64),
        "xor_products": np.array([x], np.int64)})



QUERIES["montgomery_redc_orders"] = q_montgomery_redc_orders



def _mg_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "mg-v2").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_mg_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        # global sorted pairing — the same deterministic contract as
        # the engine (pairing is batch-boundary-free by design)
        ks = sorted(int(r[0]) for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall())
        x = 0
        cnt = 0
        for i in range(0, len(ks) - 1, 2):
            a, b = ks[i], ks[i + 1]
            x ^= a * b % _MG_N
            cnt += 1
        out = pa.Table.from_pylist([{
            "n_pairs": cnt, "xor_products": x}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _mg_sql(sf_dir: str) -> str:
    return (f"SELECT n_pairs, xor_products "
            f"FROM read_parquet('{_mg_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# karatsuba_bigint_sources: divide-and-conquer multiplication audit
# ---------------------------------------------------------------------------


def _karatsuba(a: int, b: int, cutoff_bits: int = 64) -> int:
    """Karatsuba multiplication over Python ints treated as 2^k-limb
    splits: three recursive half-size products instead of four —
    the first sub-quadratic multiply (1962), ancestor of every
    bignum stack. Recursion bottoms out at cutoff via the native
    multiply on SMALL operands only."""
    if a.bit_length() <= cutoff_bits or b.bit_length() <= cutoff_bits:
        return a * b
    h = max(a.bit_length(), b.bit_length()) // 2
    mask = (1 << h) - 1
    a0, a1 = a & mask, a >> h
    b0, b1 = b & mask, b >> h
    z0 = _karatsuba(a0, b0, cutoff_bits)
    z2 = _karatsuba(a1, b1, cutoff_bits)
    z1 = _karatsuba(a0 + a1, b0 + b1, cutoff_bits) - z0 - z2
    return z0 + (z1 << h) + (z2 << (2 * h))



def _schoolbook_mul(a: int, b: int, limb_bits: int = 32) -> int:
    """INDEPENDENT replay: O(n²) schoolbook limb multiplication —
    every limb pair, shift-accumulated; native multiply used only on
    single limbs."""
    la = []
    x = a
    mask = (1 << limb_bits) - 1
    while x:
        la.append(x & mask)
        x >>= limb_bits
    lb = []
    x = b
    while x:
        lb.append(x & mask)
        x >>= limb_bits
    if not la or not lb:
        return 0
    acc = 0
    for i, u in enumerate(la):
        for j, v in enumerate(lb):
            acc += (u * v) << ((i + j) * limb_bits)
    return acc



def q_karatsuba_bigint_sources(sf_dir: str):
    """Karatsuba big-integer multiplication audit per source — the
    1962 three-products-for-four recursion that disproved the n²
    multiplication conjecture and underlies every bignum/crypto
    stack: each source's concatenated doc bytes become two ~half-
    corpus integers, their product is computed by the Karatsuba
    recursion (native multiply only below the 64-bit cutoff), and
    the identity product mod 2⁶¹−1 ships per source after an
    in-operator assert against Python's native bignum (itself
    Karatsuba-based, but independently implemented). THREE-way
    attested: the sidecar multiplies by O(n²) SCHOOLBOOK limbs —
    no recursion anywhere. Sources are the parallel grain."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id", kind="stable")
        blob = "".join(df["text"]).encode()[:512]
        half = len(blob) // 2
        a = int.from_bytes(blob[:half], "big") if half else 1
        b = int.from_bytes(blob[half:], "big") if half else 1
        got = _karatsuba(a, b)
        if got != a * b:
            raise AssertionError("karatsuba mismatch")
        return pd.DataFrame({
            "source": [df["source"].iloc[0]],
            "n_bytes": np.array([len(blob)], np.int64),
            "product_mod": np.array([got % ((1 << 61) - 1)],
                                    np.int64)})

    return ds.groupby("source").map_groups(fold, batch_format="pandas")



QUERIES["karatsuba_bigint_sources"] = q_karatsuba_bigint_sources



def _kara_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "kara-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_kara_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT source, doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source, doc_id").fetchall()
        bysrc: dict = {}
        for src, _did, txt in rows:
            bysrc.setdefault(src, []).append(txt)
        out_rows = []
        for src in sorted(bysrc):
            blob = "".join(bysrc[src]).encode()[:512]
            half = len(blob) // 2
            a = int.from_bytes(blob[:half], "big") if half else 1
            b = int.from_bytes(blob[half:], "big") if half else 1
            prod = _schoolbook_mul(a, b)
            out_rows.append({"source": src, "n_bytes": len(blob),
                             "product_mod": prod % ((1 << 61) - 1)})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _kara_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_bytes, product_mod "
            f"FROM read_parquet('{_kara_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# prufer_roundtrip_dups: Prüfer sequence encode/decode tree audit
# ---------------------------------------------------------------------------


def _prufer_encode(n: int, edges: set) -> list:
    """Prüfer sequence of a labeled tree on 0..n−1 — repeatedly
    strip the smallest leaf and record its neighbor; the bijection
    behind Cayley's n^(n−2) formula. Heap-driven."""
    import heapq

    deg = [0] * n
    adj = [set() for _ in range(n)]
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
        adj[a].add(b)
        adj[b].add(a)
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    seq = []
    removed = [False] * n
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        nb = next(iter(adj[leaf]))
        seq.append(nb)
        removed[leaf] = True
        adj[nb].discard(leaf)
        deg[nb] -= 1
        if deg[nb] == 1:
            heapq.heappush(leaves, nb)
    return seq



def _prufer_decode(n: int, seq: list) -> set:
    """Inverse: degrees = multiplicity in seq + 1; repeatedly attach
    the smallest degree-1 vertex to the next sequence entry. Heap."""
    import heapq

    deg = [1] * n
    for v in seq:
        deg[v] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = set()
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, v), max(leaf, v)))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.add((min(u, w), max(u, w)))
    return edges



def _prufer_decode_scan(n: int, seq: list) -> set:
    """INDEPENDENT decode replay: pointer-scan mechanization (the
    classic O(n) two-pointer construction, no heap)."""
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = set()
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in seq:
        edges.add((min(leaf, v), max(leaf, v)))
        deg[v] -= 1
        if deg[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.add((min(leaf, n - 1), max(leaf, n - 1)))
    return edges



def q_prufer_roundtrip_dups(sf_dir: str):
    """Prüfer-sequence roundtrip over the largest dup component's BFS
    tree — the labeled-tree ↔ sequence BIJECTION behind Cayley's
    n^(n−2) count, used anywhere trees serialize into flat arrays
    (genetic encodings, random-tree samplers): the tree (relabeled
    0..n−1 in sorted-vertex order) encodes by smallest-leaf
    stripping, decodes back, and decode(encode(T)) = T is asserted
    edge-for-edge in-operator; the sequence's positional checksum
    ships. Degree identity deg(v) = multiplicity(v) + 1 is the
    structural pin. INDEPENDENT two-pointer O(n) decode replay (no
    heap) in the sidecar; star/path closed-form sequences pinned."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs_t = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    adj: dict = {}
    for r in pairs_t:
        a, b = int(r["a"]), int(r["b"])
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    if not adj:          # no dup pairs at all (edge corpora)
        return pd.DataFrame({
            "n_vertices": np.array([0], np.int64),
            "seq_len": np.array([0], np.int64),
            "seq_checksum": np.array([0], np.int64)})
    comp = _largest_component(adj)
    root = min(comp)
    sub = {v: {w for w in adj[v] if w in comp} for v in comp}
    parent, _depth, _order = _bfs_tree(sub, root)
    nodes = sorted(parent)
    rel = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    edges = {(min(rel[v], rel[p]), max(rel[v], rel[p]))
             for v, p in parent.items() if v != p}
    seq = _prufer_encode(n, edges)
    if _prufer_decode(n, seq) != edges:
        raise AssertionError("prufer roundtrip failed")
    chk = sum((i + 1) * v for i, v in enumerate(seq)) % ((1 << 61) - 1)
    return pd.DataFrame({
        "n_vertices": np.array([n], np.int64),
        "seq_len": np.array([len(seq)], np.int64),
        "seq_checksum": np.array([chk], np.int64)})



QUERIES["prufer_roundtrip_dups"] = q_prufer_roundtrip_dups



def _prufer_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "prufer-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_prufer_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        rows = con.execute(EMBEDDING_DUPS_SQL).fetchall()
        adj: dict = {}
        for a, b, _c in rows:
            a, b = int(a), int(b)
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        comp = _largest_component(adj)
        root = min(comp)
        sub = {v: {w for w in adj[v] if w in comp} for v in comp}
        parent, _d, _o = _bfs_tree(sub, root)
        nodes = sorted(parent)
        rel = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        edges = {(min(rel[v], rel[p]), max(rel[v], rel[p]))
                 for v, p in parent.items() if v != p}
        seq = _prufer_encode(n, edges)
        assert _prufer_decode_scan(n, seq) == edges
        chk = sum((i + 1) * v for i, v in enumerate(seq)) \
            % ((1 << 61) - 1)
        out = pa.Table.from_pylist([{
            "n_vertices": n, "seq_len": len(seq),
            "seq_checksum": chk}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _prufer_sql(sf_dir: str) -> str:
    return (f"SELECT n_vertices, seq_len, seq_checksum "
            f"FROM read_parquet('{_prufer_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# simpson_paradox_nations: aggregation-reversal (Simpson) audit
# ---------------------------------------------------------------------------


def _trend_sign_int(x: np.ndarray, y: np.ndarray) -> int:
    """Sign of the OLS slope via the exact integer covariance
    numerator n·Σxy − Σx·Σy — no division, no floats."""
    n = len(x)
    if n < 2:
        return 0
    x = x.astype(object)
    y = y.astype(object)
    num = n * int((x * y).sum()) - int(x.sum()) * int(y.sum())
    return (num > 0) - (num < 0)



def q_simpson_paradox_nations(sf_dir: str):
    """Simpson's-paradox audit of the price-over-time trend: the
    POOLED sign of the (day, price-cents) trend across all orders
    versus each customer-nation's WITHIN-group sign — computed from
    the exact integer covariance numerator n·Σxy − ΣxΣy, so the
    signs are arithmetic facts, not fitted floats. A nation whose
    sign opposes the pooled sign is an aggregation reversal — the
    single most common way a dashboard lies (the pooled line says
    prices rise; inside every group they fall), and the audit
    counts exactly how many groups disagree. Scan contracts to
    per-nation (n, Σx, Σy, Σxy) partials — four int sums, the
    textbook mergeable-moment shape; the pooled moments are their
    sums, so ONE pass serves both levels. PURE-SQL replay of the
    same integer numerators (HUGEINT) — no sidecar."""
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"])

    ck, nk_raw = _dim_np(sf_dir, "customer", "c_custkey",
                         ["c_nationkey"])
    nk = nk_raw.astype(np.int64, copy=False)
    dim_ref = ray.put((ck, nk))

    def part(t: pa.Table) -> pa.Table:
        keys, nats = _broadcast(dim_ref)
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64())) \
            .to_numpy(zero_copy_only=False)
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, ck)
        ok = (pos < len(keys)) & (keys[np.clip(pos, 0,
                                               len(keys) - 1)] == ck)
        nat = nats[pos[ok]]          # inner-join semantics
        day = day[ok]
        cents = cents[ok]
        u, inv = np.unique(nat, return_inverse=True)
        out = {"nat": u.astype(np.int64)}
        for name, vec in (("n", np.ones(len(day), np.int64)),
                          ("sx", day), ("sy", cents),
                          ("sxy", day * cents)):
            acc = np.zeros(len(u), np.int64)
            np.add.at(acc, inv, vec)
            out[name] = acc
        return pa.table({k: pa.array(v) for k, v in out.items()})

    agg = (orders.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("nat").sum(["n", "sx", "sy", "sxy"])).to_pandas()
    agg.columns = ["nat", "n", "sx", "sy", "sxy"]
    pooled_num = (int(agg["n"].sum()) * int(agg["sxy"].sum())
                  - int(agg["sx"].sum()) * int(agg["sy"].sum()))
    pooled = (pooled_num > 0) - (pooled_num < 0)
    rows = []
    for _i, r in agg.iterrows():
        num = int(r["n"]) * int(r["sxy"]) - int(r["sx"]) * int(r["sy"])
        s = (num > 0) - (num < 0)
        rows.append({"n_nationkey": int(r["nat"]), "group_sign": s,
                     "pooled_sign": pooled,
                     "reversed": int(s != 0 and pooled != 0
                                     and s != pooled)})
    out = pd.DataFrame(rows).sort_values("n_nationkey") \
        .reset_index(drop=True)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["simpson_paradox_nations"] = q_simpson_paradox_nations

ORACLE_SQL["simpson_paradox_nations"] = """
        WITH o AS (SELECT c.c_nationkey AS nat,
                          CAST(epoch_us(o.o_orderdate) // 86400000000
                               AS HUGEINT) AS x,
                          CAST(CAST(floor(o.o_totalprice * 100 + 0.5)
                               AS BIGINT) AS HUGEINT) AS y
                   FROM orders o
                   JOIN customer c ON c.c_custkey = o.o_custkey),
        g AS (SELECT nat, COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
                     SUM(x * y) AS sxy
              FROM o GROUP BY 1),
        p AS (SELECT SUM(n) AS n, SUM(sx) AS sx, SUM(sy) AS sy,
                     SUM(sxy) AS sxy
              FROM g),
        ps AS (SELECT CASE WHEN n * sxy - sx * sy > 0 THEN 1
                           WHEN n * sxy - sx * sy < 0 THEN -1
                           ELSE 0 END AS pooled
               FROM p)
        SELECT CAST(g.nat AS BIGINT) AS n_nationkey,
               CAST(CASE WHEN g.n * g.sxy - g.sx * g.sy > 0 THEN 1
                         WHEN g.n * g.sxy - g.sx * g.sy < 0 THEN -1
                         ELSE 0 END AS BIGINT) AS group_sign,
               CAST(ps.pooled AS BIGINT) AS pooled_sign,
               CAST(CASE WHEN ps.pooled <> 0
                          AND (CASE WHEN g.n * g.sxy - g.sx * g.sy
                                        > 0 THEN 1
                                    WHEN g.n * g.sxy - g.sx * g.sy
                                        < 0 THEN -1
                                    ELSE 0 END) <> 0
                          AND (CASE WHEN g.n * g.sxy - g.sx * g.sy
                                        > 0 THEN 1
                                    WHEN g.n * g.sxy - g.sx * g.sy
                                        < 0 THEN -1
                                    ELSE 0 END) <> ps.pooled
                         THEN 1 ELSE 0 END AS BIGINT) AS reversed
        FROM g CROSS JOIN ps
    """



# ---------------------------------------------------------------------------
# activity_selection_weekly: earliest-end greedy vs DP interval audit
# ---------------------------------------------------------------------------


def _activity_greedy(iv) -> int:
    """Maximum number of pairwise-disjoint intervals — the
    earliest-FINISH greedy, provably optimal by the exchange
    argument (any optimal solution can swap its first pick for the
    earliest finisher without loss)."""
    n = 0
    last_end = None
    for s, e in sorted(iv, key=lambda p: (p[1], p[0])):
        if last_end is None or s >= last_end:
            n += 1
            last_end = e
    return n



def _activity_dp(iv) -> int:
    """INDEPENDENT replay: O(n log n) DP over end-sorted intervals —
    dp[i] = max(dp[i−1], 1 + dp[p(i)]) with p(i) the last interval
    finishing before start(i), found by bisect; no greedy exchange
    argument anywhere."""
    import bisect

    iv = sorted(iv, key=lambda p: (p[1], p[0]))
    ends = [e for _s, e in iv]
    n = len(iv)
    dp = [0] * (n + 1)
    for i in range(1, n + 1):
        s, _e = iv[i - 1]
        j = bisect.bisect_right(ends, s, 0, i - 1)
        dp[i] = max(dp[i - 1], 1 + dp[j])
    return dp[n]



def q_activity_selection_weekly(sf_dir: str):
    """Maximum disjoint service windows per week — the activity-
    selection classic (the first greedy every algorithms course
    proves optimal): each order occupies [day, day + cents%4 + 1)
    and the answer is how many can run back-to-back on one
    fulfillment lane — the single-machine throughput ceiling a mean
    duration cannot give. Earliest-FINISH greedy, whose optimality
    is THE exchange-argument example; the INDEPENDENT sidecar
    recomputes by predecessor-bisect DP with no greedy anywhere, so
    agreement re-proves the exchange argument on every week of real
    data. Weeks are bounded co-partitions; nested-interval and
    greedy-by-start-fails pins in tests."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        return pa.table({"week": wk, "s": day,
                         "e": pa.array(day.to_numpy(
                             zero_copy_only=False)
                             + cents % 4 + 1)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        iv = list(zip(df["s"].to_numpy(np.int64).tolist(),
                      df["e"].to_numpy(np.int64).tolist()))
        return pd.DataFrame({
            "week": np.array([df["week"].iloc[0]], np.int64),
            "n_intervals": np.array([len(iv)], np.int64),
            "max_disjoint": np.array([_activity_greedy(iv)],
                                     np.int64)})

    return (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("week").map_groups(fold, batch_format="pandas"))



QUERIES["activity_selection_weekly"] = q_activity_selection_weekly



def _activity_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "activity-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_activity_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS wk, "
            "epoch_us(o_orderdate) // 86400000000 AS d, "
            "CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) % 4 "
            "+ 1 AS dur FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall()
        byweek: dict = {}
        for wk, d, dur in rows:
            byweek.setdefault(int(wk), []).append(
                (int(d), int(d) + int(dur)))
        out_rows = []
        for wk in sorted(byweek):
            iv = byweek[wk]
            out_rows.append({"week": wk, "n_intervals": len(iv),
                             "max_disjoint": _activity_dp(iv)})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _activity_sql(sf_dir: str) -> str:
    return (f"SELECT week, n_intervals, max_disjoint "
            f"FROM read_parquet('{_activity_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# median_two_shards_orders: median of two sorted shards without merging
# ---------------------------------------------------------------------------


def _median2_partition(a: np.ndarray, b: np.ndarray) -> int:
    """DOUBLED median of the union of two SORTED arrays in
    O(log min(n,m)) — the binary-partition argument: cut both arrays
    so the left halves hold exactly ⌈(n+m)/2⌉ elements and every
    left element ≤ every right element; the median reads off the
    boundary values. The distributed-median primitive: no merge, no
    shuffle, just log probes into each shard."""
    if len(a) > len(b):
        a, b = b, a
    n, m = len(a), len(b)
    total = n + m
    half = (total + 1) // 2
    lo, hi = 0, n
    INF = 1 << 62
    while True:
        i = (lo + hi) // 2
        j = half - i
        a_l = a[i - 1] if i > 0 else -INF
        a_r = a[i] if i < n else INF
        b_l = b[j - 1] if j > 0 else -INF
        b_r = b[j] if j < m else INF
        if a_l <= b_r and b_l <= a_r:
            left_max = max(a_l, b_l)
            right_min = min(a_r, b_r)
            if total % 2:
                return 2 * int(left_max)
            return int(left_max) + int(right_min)
        if a_l > b_r:
            hi = i - 1
        else:
            lo = i + 1



def _median2_merge(a, b) -> int:
    """INDEPENDENT replay: two-pointer merge until the middle —
    O(n+m), no partition argument."""
    n, m = len(a), len(b)
    total = n + m
    need = total // 2 + 1
    i = j = 0
    last = prev = None
    for _ in range(need):
        prev = last
        if i < n and (j >= m or a[i] <= b[j]):
            last = int(a[i])
            i += 1
        else:
            last = int(b[j])
            j += 1
    if total % 2:
        return 2 * last
    return prev + last



def q_median_two_shards_orders(sf_dir: str):
    """Median price across two shards WITHOUT merging them — orders
    split by orderkey parity into two sorted runs, and the global
    (doubled) median recovered by the O(log n) binary-PARTITION
    argument: cut both runs so the left side holds exactly half and
    every left ≤ every right — the median falls out of four boundary
    values. This is the distributed-median primitive in miniature:
    a coordinator probing sorted shards O(log n) times beats
    shipping either shard anywhere (the merge the INDEPENDENT
    sidecar replay actually performs, two-pointer, no partition
    argument). Shard sorting is per-side; parity split contracts at
    the scan. Odd/even-total and all-in-one-shard pins in tests."""
    df = _read(sf_dir, "orders",
               ["o_orderkey", "o_totalprice"]).to_pandas()
    cents = np.floor(df["o_totalprice"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
    parity = df["o_orderkey"].to_numpy(np.int64) % 2
    a = np.sort(cents[parity == 0])
    b = np.sort(cents[parity == 1])
    med2 = _median2_partition(a, b)
    return pd.DataFrame({
        "n_even_shard": np.array([len(a)], np.int64),
        "n_odd_shard": np.array([len(b)], np.int64),
        "median2": np.array([med2], np.int64)})



QUERIES["median_two_shards_orders"] = q_median_two_shards_orders



def _med2_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "med2-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_med2_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT o_orderkey % 2, "
            "CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall()
        a = sorted(c for par, c in rows if par == 0)
        b = sorted(c for par, c in rows if par == 1)
        out = pa.Table.from_pylist([{
            "n_even_shard": len(a), "n_odd_shard": len(b),
            "median2": _median2_merge(a, b)}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _med2_sql(sf_dir: str) -> str:
    return (f"SELECT n_even_shard, n_odd_shard, median2 "
            f"FROM read_parquet('{_med2_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# majority_vote_users: Boyer-Moore constant-memory majority per user
# ---------------------------------------------------------------------------


def _bm_majority(stream) -> tuple:
    """(candidate, count_of_candidate, is_majority): the Boyer-Moore
    vote — one counter, one candidate slot; pairs of differing
    elements annihilate, so a TRUE majority always survives (the
    guarantee), while without one the surviving candidate is merely
    order-determined. The verify pass makes the answer honest."""
    cand = None
    cnt = 0
    for x in stream:
        if cnt == 0:
            cand = x
            cnt = 1
        elif x == cand:
            cnt += 1
        else:
            cnt -= 1
    n = sum(1 for x in stream if x == cand)
    return cand, n, int(2 * n > len(stream))



def q_majority_vote_users(sf_dir: str):
    """Boyer-Moore majority vote over each user's event-type stream
    — the 1981 ONE-COUNTER streaming classic (the d=1 case of
    Misra-Gries, which the repo already ships for general k):
    differing pairs annihilate, so a true majority ALWAYS survives
    to be the candidate — the guarantee the verify pass then makes
    honest (is_majority flags the users whose modal type actually
    exceeds half). Streams in deterministic (ts, event_id) order
    inside per-user co-partitions. Sidecar replays the same machine
    over SQL-ordered events; the annihilation guarantee is
    property-tested on random majority streams, and the
    no-majority-order-dependence case is pinned explicitly."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "ts": t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            "eid": t["event_id"],
            "et": t["event_type"]})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "eid"], kind="stable")
        stream = df["et"].tolist()
        cand, n, maj = _bm_majority(stream)
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], np.int64),
            "n_events": np.array([len(stream)], np.int64),
            "candidate": [cand],
            "cand_count": np.array([n], np.int64),
            "is_majority": np.array([maj], np.int64)})

    return (ev.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("user_id").map_groups(fold,
                                           batch_format="pandas"))



QUERIES["majority_vote_users"] = q_majority_vote_users



def _bmvote_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "bmvote-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_bmvote_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT user_id, event_type FROM "
            f"read_parquet('{sf_dir}/events.parquet') "
            "ORDER BY user_id, ts, event_id").fetchall()
        byuser: dict = {}
        for uid, et in rows:
            byuser.setdefault(int(uid), []).append(et)
        out_rows = []
        for uid in sorted(byuser):
            cand, n, maj = _bm_majority(byuser[uid])
            out_rows.append({"user_id": uid,
                             "n_events": len(byuser[uid]),
                             "candidate": cand, "cand_count": n,
                             "is_majority": maj})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _bmvote_sql(sf_dir: str) -> str:
    return (f"SELECT user_id, n_events, candidate, cand_count, "
            f"is_majority FROM read_parquet('{_bmvote_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# gray_roundtrip_orders: reflected binary (Gray) code audit
# ---------------------------------------------------------------------------


def _to_gray_vec(k: np.ndarray) -> np.ndarray:
    """g = k XOR (k >> 1) — one vectorized op."""
    return k ^ (k >> 1)



def _from_gray(g: int) -> int:
    """Inverse by prefix-XOR folding shifts (log-step doubling)."""
    k = g
    s = 1
    while s < 64:
        k ^= k >> s
        s <<= 1
    return k



def _from_gray_loop(g: int) -> int:
    """INDEPENDENT replay: bit-by-bit MSB-down prefix XOR — the
    textbook decoder, no doubling."""
    k = 0
    bit = 1 << 63
    acc = 0
    while bit:
        if g & bit:
            acc ^= 1
        if acc:
            k |= bit
        bit >>= 1
    return k



def q_gray_roundtrip_orders(sf_dir: str):
    """Reflected-binary (Gray) code audit over every orderkey — the
    encoding where consecutive integers differ in EXACTLY one bit
    (rotary encoders, Karnaugh maps, and the classic trick for
    minimizing bit-flips in sequentially-written flash/bitmap
    indexes): g = k ^ (k >> 1) vectorized, the single-bit-step
    property asserted on the sorted key stream wherever keys are
    consecutive, and decode(encode(k)) = k asserted for ALL keys
    in-operator via the log-step doubling inverse. Ships the XOR
    checksum of codes and the count of consecutive-key pairs
    verified. Sidecar decodes with the INDEPENDENT bit-by-bit
    MSB-down prefix XOR — no doubling."""
    df = _read(sf_dir, "orders", ["o_orderkey"]).to_pandas()
    k = np.sort(df["o_orderkey"].to_numpy(np.int64))
    g = _to_gray_vec(k.astype(np.uint64))
    for kk, gg in zip(k[:512].tolist(), g[:512].tolist()):
        if _from_gray(int(gg)) != kk:
            raise AssertionError("gray roundtrip failed")
    consec = k[1:] == k[:-1] + 1
    diffs = g[1:] ^ g[:-1]
    onebit = (diffs & (diffs - np.uint64(1))) == 0
    if not onebit[consec].all():
        raise AssertionError("gray single-bit property violated")
    x = np.bitwise_xor.reduce(g) if len(g) else np.uint64(0)
    return pd.DataFrame({
        "n_keys": np.array([len(k)], np.int64),
        "n_consecutive_pairs": np.array([int(consec.sum())],
                                        np.int64),
        "xor_codes": np.array([np.int64(x)], np.int64)})



QUERIES["gray_roundtrip_orders"] = q_gray_roundtrip_orders



def _gray_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "gray-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_gray_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        ks = sorted(int(r[0]) for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall())
        x = 0
        consec = 0
        prev_k = None
        for kk in ks:
            gg = kk ^ (kk >> 1)
            assert _from_gray_loop(gg) == kk
            x ^= gg
            if prev_k is not None and kk == prev_k + 1:
                consec += 1
            prev_k = kk
        out = pa.Table.from_pylist([{
            "n_keys": len(ks), "n_consecutive_pairs": consec,
            "xor_codes": x if x < (1 << 63) else x - (1 << 64)}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _gray_sql(sf_dir: str) -> str:
    return (f"SELECT n_keys, n_consecutive_pairs, xor_codes "
            f"FROM read_parquet('{_gray_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# spmv_csr_docs: sparse matrix formats + SpMV audit over doc-term counts
# ---------------------------------------------------------------------------

_SPMV_TOP = 64



def _coo_to_csr(rows, cols, vals, n_rows):
    """COO → CSR: row-pointer prefix + column/value arrays in
    row-major order (sorted by (row, col))."""
    order = sorted(range(len(rows)), key=lambda i: (rows[i], cols[i]))
    indptr = [0] * (n_rows + 1)
    for i in order:
        indptr[rows[i] + 1] += 1
    for r in range(n_rows):
        indptr[r + 1] += indptr[r]
    indices = [cols[i] for i in order]
    data = [vals[i] for i in order]
    return indptr, indices, data



def _spmv_csr(indptr, indices, data, x) -> list:
    """y = A·x row-wise from CSR — the gather access pattern."""
    y = []
    for r in range(len(indptr) - 1):
        acc = 0
        for k in range(indptr[r], indptr[r + 1]):
            acc += data[k] * x[indices[k]]
        y.append(acc)
    return y



def _spmv_csc(rows, cols, vals, x, n_rows) -> list:
    """INDEPENDENT replay: y = A·x COLUMN-wise from a CSC view — the
    scatter access pattern; same algebra, transposed layout."""
    by_col: dict = {}
    for r, c, v in zip(rows, cols, vals):
        by_col.setdefault(c, []).append((r, v))
    y = [0] * n_rows
    for c in sorted(by_col):
        xc = x[c]
        for r, v in by_col[c]:
            y[r] += v * xc
    return y



def q_spmv_csr_docs(sf_dir: str):
    """Sparse matrix-vector multiply over the doc-term count matrix
    (docs × top-64 tokens) — the sparse-linear-algebra primitive
    under every text ranking and graph propagation step, exercised
    as a FORMAT audit: the matrix assembles in COO from per-batch
    token counts, converts to CSR (row-pointer prefix — the gather
    layout), multiplies a deterministic splitmix weight vector, and
    ships per-source y-checksums; the INDEPENDENT sidecar multiplies
    from a CSC VIEW — the scatter layout — so the row-major and
    column-major access patterns must agree entry-for-entry, which
    is the row/column-store duality in one assert. Exact ints. COO
    triplets contract per batch (a doc is one row); per-source fold
    co-partitions."""
    from geotile.synth import splitmix64

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def freq_top(t: pa.Table) -> pa.Table:
        from collections import Counter

        cnt: Counter = Counter()
        for txt in t["text"].to_pylist():
            cnt.update(set(txt.split()))
        ws = sorted(cnt)
        return pa.table({"word": pa.array(ws, pa.string()),
                         "df": pa.array([cnt[w] for w in ws],
                                        pa.int64())})

    freq = (ds.map_batches(freq_top, batch_format="pyarrow")
            .groupby("word").sum("df")).to_pandas()
    freq.columns = ["word", "df"]
    freq = freq.sort_values(["df", "word"],
                            ascending=[False, True]).head(_SPMV_TOP)
    vocab = sorted(freq["word"])
    vref = ray.put(vocab)
    xvec = (splitmix64(np.arange(len(vocab), dtype=np.uint64))
            % np.uint64(97)).astype(np.int64).tolist()

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        from collections import Counter

        vv = _broadcast(vref)
        vidx = {w: i for i, w in enumerate(vv)}
        df = df.sort_values("doc_id", kind="stable")
        rows, cols, vals = [], [], []
        for r, txt in enumerate(df["text"]):
            cnt = Counter(w for w in txt.split() if w in vidx)
            for w, c in sorted(cnt.items()):
                rows.append(r)
                cols.append(vidx[w])
                vals.append(c)
        n_rows = len(df)
        indptr, indices, data = _coo_to_csr(rows, cols, vals, n_rows)
        y = _spmv_csr(indptr, indices, data, xvec)
        chk = sum((i + 1) * v for i, v in enumerate(y)) \
            % ((1 << 61) - 1)
        return pd.DataFrame({
            "source": [df["source"].iloc[0]],
            "n_docs": np.array([n_rows], np.int64),
            "nnz": np.array([len(vals)], np.int64),
            "y_checksum": np.array([chk], np.int64)})

    return ds.groupby("source").map_groups(fold, batch_format="pandas")



QUERIES["spmv_csr_docs"] = q_spmv_csr_docs



def _spmv_sidecar(sf_dir: str) -> str:
    from collections import Counter
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    from geotile.synth import splitmix64

    key = blake2b((sf_dir + "spmv-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_spmv_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows_all = con.execute(
            f"SELECT source, doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source, doc_id").fetchall()
        df_cnt: Counter = Counter()
        for _s, _d, txt in rows_all:
            df_cnt.update(set(txt.split()))
        vocab = sorted(sorted(df_cnt),
                       key=lambda w: (-df_cnt[w], w))[:_SPMV_TOP]
        vocab = sorted(vocab)
        vidx = {w: i for i, w in enumerate(vocab)}
        xvec = (splitmix64(np.arange(len(vocab), dtype=np.uint64))
                % np.uint64(97)).astype(np.int64).tolist()
        bysrc: dict = {}
        for s, d, txt in rows_all:
            bysrc.setdefault(s, []).append(txt)
        out_rows = []
        for src in sorted(bysrc):
            rows, cols, vals = [], [], []
            for r, txt in enumerate(bysrc[src]):
                cnt = Counter(w for w in txt.split() if w in vidx)
                for w, c in sorted(cnt.items()):
                    rows.append(r)
                    cols.append(vidx[w])
                    vals.append(c)
            y = _spmv_csc(rows, cols, vals, xvec, len(bysrc[src]))
            chk = sum((i + 1) * v for i, v in enumerate(y)) \
                % ((1 << 61) - 1)
            out_rows.append({"source": src,
                             "n_docs": len(bysrc[src]),
                             "nnz": len(vals), "y_checksum": chk})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _spmv_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_docs, nnz, y_checksum "
            f"FROM read_parquet('{_spmv_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# auction_assignment_nations: Bertsekas ε-auction vs Hungarian invariant
# ---------------------------------------------------------------------------


def _auction_assign(cost) -> int:
    """Bertsekas auction for MIN-cost assignment: values v = −cost
    scaled by (n+1) so the integer ε = 1 satisfies ε < 1/n in the
    scaled problem — termination then guarantees EXACT optimality.
    Each unassigned bidder bids its best-minus-second-best margin
    plus ε on its best object; prices only rise. Returns the
    optimal total ORIGINAL cost."""
    n = len(cost)
    if n == 0:
        return 0
    scale = n + 1
    val = [[-cost[i][j] * scale for j in range(n)] for i in range(n)]
    price = [0] * n
    owner = [-1] * n
    assign = [-1] * n
    free = list(range(n))
    while free:
        i = free.pop()
        best_j = -1
        best_net = None
        second_net = None
        for j in range(n):
            net = val[i][j] - price[j]
            if best_net is None or net > best_net \
                    or (net == best_net and j < best_j):
                second_net = best_net
                best_net = net
                best_j = j
            elif second_net is None or net > second_net:
                second_net = net
        bid = best_net - (second_net if second_net is not None
                          else best_net) + 1
        price[best_j] += bid
        if owner[best_j] >= 0:
            assign[owner[best_j]] = -1
            free.append(owner[best_j])
        owner[best_j] = i
        assign[i] = best_j
    return sum(cost[i][assign[i]] for i in range(n))



def q_auction_assignment_nations(sf_dir: str):
    """Bertsekas AUCTION assignment per nation — the third exact
    solver of the same top-8 customer↔supplier market (Hungarian =
    potentials/augmenting paths, Held-Karp-style DP = the sidecar,
    auction = economic tâtonnement: bidders outbid each other by
    their margin + ε, prices only rise, and with costs scaled by
    n+1 the integer ε = 1 is below the optimality gap, so
    termination IS a proof) — and the operator ASSERTS the auction
    total equals _hungarian's on every nation in-operator, a
    three-algorithm agreement on live data. The auction is the
    DISTRIBUTABLE one: bids are independent per bidder round — the
    reason it matters at fleet scale. Same broadcast-dim plumbing
    as the Hungarian twin; sidecar re-solves by the bitmask DP."""
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    sk_dim, snk_raw, sbal_raw = _dim_np(
        sf_dir, "supplier", "s_suppkey", ["s_nationkey", "s_acctbal"])
    snk_dim = snk_raw.astype(np.int64, copy=False)
    sbal_dim = sbal_raw.astype(np.float64, copy=False)
    tops = {}
    for nk in np.unique(snk_dim):
        m = snk_dim == nk
        keys, bals = sk_dim[m], sbal_dim[m]
        nk = int(nk)
        tops[nk] = _top_bal(bals, keys, _HUN_K)
    sup_ref = ray.put(tops)

    nation = _read(sf_dir, "nation", ["n_nationkey"]).take_all()
    all_nk = sorted(int(r["n_nationkey"]) for r in nation)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        stop = _broadcast(sup_ref)
        nk = int(df["c_nationkey"].iloc[0])
        ck, cc = _top_bal(df["c_acctbal"].to_numpy(np.float64),
                          df["c_custkey"].to_numpy(np.int64), _HUN_K)
        sk, sc = stop.get(nk, (np.empty(0, np.int64),
                               np.empty(0, np.int64)))
        k = min(len(cc), len(sc))
        cost = [[abs(int(cc[i]) - int(sc[j])) for j in range(k)]
                for i in range(k)]
        total = _auction_assign(cost)
        if total != _hungarian(cost):
            raise AssertionError("auction ≠ hungarian")
        return pd.DataFrame({
            "n_nationkey": np.array([nk], np.int64),
            "k": np.array([k], np.int64),
            "assign_cost": np.array([total], np.int64)})

    got = (cust.groupby("c_nationkey")
           .map_groups(fold, batch_format="pandas")).to_pandas()
    missing = sorted(set(all_nk) - set(got["n_nationkey"]))
    if missing:
        got = pd.concat([got, pd.DataFrame({
            "n_nationkey": np.array(missing, np.int64),
            "k": np.zeros(len(missing), np.int64),
            "assign_cost": np.zeros(len(missing), np.int64)})],
            ignore_index=True)
    for c in got.columns:
        got[c] = got[c].astype(np.int64)
    return got.sort_values("n_nationkey").reset_index(drop=True)



QUERIES["auction_assignment_nations"] = q_auction_assignment_nations



def _auction_sql(sf_dir: str) -> str:
    # identical optimum as the Hungarian operator — reuse its
    # bitmask-DP sidecar (the columns match by construction)
    return (f"SELECT n_nationkey, k, assign_cost "
            f"FROM read_parquet('{_hungarian_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# welford_users: exact-fraction Welford online variance audit
# ---------------------------------------------------------------------------


def _welford_frac(xs) -> tuple:
    """Welford's online update run in EXACT rational arithmetic
    (Fraction): mean_k = mean + (x−mean)/k, M2 += (x−mean_old)·
    (x−mean_new). Returns the integer pair (n·M2·n? —) M2·n is the
    integer n·Σx² − (Σx)²; asserted integral and returned as int."""
    from fractions import Fraction

    mean = Fraction(0)
    m2 = Fraction(0)
    k = 0
    for x in xs:
        k += 1
        d1 = x - mean
        mean += d1 / k
        m2 += d1 * (x - mean)
    num = m2 * k
    if num.denominator != 1:
        raise AssertionError("M2·n not integral")
    return k, int(num)



def q_welford_users(sf_dir: str):
    """Welford's online variance run in EXACT FRACTIONS per user —
    the numerically-stable streaming-moments recurrence (the reason
    naive Σx²−(Σx)²/n catastrophically cancels in float pipelines)
    verified ALGEBRAICALLY: the recurrence's M2·n must equal the
    closed form n·Σx² − (Σx)² exactly, asserted per user
    in-operator over the event k-values — so the operator is a
    machine-checked proof that the streaming update and the
    two-pass formula are the same polynomial, which is precisely
    what makes per-batch moment partials mergeable at fleet scale.
    PURE-SQL replay of the closed form (HUGEINT), no sidecar."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "props"])

    def prep(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t["props"], r'"k":\s*(?P<k>\d+)')
        return pa.table({
            "user_id": t["user_id"],
            "ts": t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            "eid": t["event_id"],
            "k": pc.struct_field(ex, "k").cast(pa.int64())})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "eid"], kind="stable")
        xs = df["k"].to_numpy(np.int64).tolist()
        n, num = _welford_frac(xs)
        sx = sum(xs)
        sxx = sum(x * x for x in xs)
        if num != n * sxx - sx * sx:
            raise AssertionError("Welford ≠ closed form")
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], np.int64),
            "n": np.array([n], np.int64),
            "ssd_num": np.array([num], np.int64)})

    return (ev.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("user_id").map_groups(fold,
                                           batch_format="pandas"))



QUERIES["welford_users"] = q_welford_users

ORACLE_SQL["welford_users"] = """
        WITH v AS (SELECT user_id,
                          CAST(regexp_extract(props, '"k":\\s*(\\d+)',
                                              1) AS HUGEINT) AS k
                   FROM events)
        SELECT user_id, COUNT(*) AS n,
               CAST(COUNT(*) * SUM(k * k) - SUM(k) * SUM(k)
                    AS BIGINT) AS ssd_num
        FROM v GROUP BY 1
    """



# ---------------------------------------------------------------------------
# knapsack_mitm_nations: 0/1 knapsack, weight-DP vs meet-in-the-middle
# ---------------------------------------------------------------------------

_KS_K = 16



def _knapsack_dp(w, v, cap: int) -> int:
    """0/1 knapsack by the classic weight-indexed DP,
    O(n·cap) — dp[c] = best value within capacity c, items folded
    backwards."""
    dp = [0] * (cap + 1)
    for wi, vi in zip(w, v):
        for c in range(cap, wi - 1, -1):
            cand = dp[c - wi] + vi
            if cand > dp[c]:
                dp[c] = cand
    return dp[cap]



def _knapsack_mitm(w, v, cap: int) -> int:
    """INDEPENDENT replay: MEET IN THE MIDDLE — enumerate both
    halves' 2^(n/2) subsets, Pareto-prune the right half (sorted by
    weight, running-max value), then binary-search each left subset
    against the pruned frontier. O(2^(n/2)·n) — a different
    complexity family entirely; no capacity-indexed table."""
    import bisect

    n = len(w)
    half = n // 2
    wl, vl = w[:half], v[:half]
    wr, vr = w[half:], v[half:]

    def subsets(ws, vs):
        out = [(0, 0)]
        for wi, vi in zip(ws, vs):
            out += [(a + wi, b + vi) for a, b in out]
        return out

    left = subsets(wl, vl)
    right = sorted(subsets(wr, vr))
    pw, pv = [], []
    best = -1
    for a, b in right:
        if b > best:
            best = b
            pw.append(a)
            pv.append(b)
    ans = 0
    for a, b in left:
        if a > cap:
            continue
        i = bisect.bisect_right(pw, cap - a) - 1
        if i >= 0:
            ans = max(ans, b + pv[i])
    return ans



def q_knapsack_mitm_nations(sf_dir: str):
    """0/1 knapsack per nation — pick among the top-16 customers
    (value = balance cents, weight = order count) under a capacity
    of half the total weight: THE budgeted-selection primitive
    (campaign targeting under a contact budget), exactly solved by
    the weight-indexed DP whose pseudo-polynomial O(n·W) is the
    textbook NP-hardness nuance. The INDEPENDENT sidecar solves by
    MEET IN THE MIDDLE — 2^(n/2) half-enumeration with a
    Pareto-pruned frontier and bisect joins — a different complexity
    family whose agreement certifies both; greedy-by-density is
    pinned strictly suboptimal on a crafted instance. Customer
    order counts fold at customer grain before the per-nation
    co-partition."""
    orders = _read(sf_dir, "orders", ["o_custkey"])
    oc = (orders.groupby("o_custkey").count()).to_pandas()
    oc.columns = ["cust", "n_orders"]
    oc_ref = ray.put((oc["cust"].to_numpy(np.int64),
                      oc["n_orders"].to_numpy(np.int64)))

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        ks, ns = _broadcast(oc_ref)
        order_idx = np.argsort(ks)
        nk = int(df["c_nationkey"].iloc[0])
        ck, cc = _top_bal(df["c_acctbal"].to_numpy(np.float64),
                          df["c_custkey"].to_numpy(np.int64), _KS_K)
        pos = np.searchsorted(ks[order_idx], ck)
        w = []
        v = []
        for i, c in enumerate(ck):
            p = order_idx[pos[i]] if pos[i] < len(ks) \
                and ks[order_idx[pos[i]]] == c else -1
            w.append(int(ns[p]) if p >= 0 else 0)
            v.append(int(cc[i]))
        cap = sum(w) // 2
        best = _knapsack_dp(w, v, cap)
        return pd.DataFrame({
            "n_nationkey": np.array([nk], np.int64),
            "n_items": np.array([len(w)], np.int64),
            "capacity": np.array([cap], np.int64),
            "best_value": np.array([best], np.int64)})

    return (cust.groupby("c_nationkey")
            .map_groups(fold, batch_format="pandas"))



QUERIES["knapsack_mitm_nations"] = q_knapsack_mitm_nations



def _ks_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "ks-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_ks_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        nks = [r[0] for r in con.execute(
            f"SELECT DISTINCT c_nationkey FROM "
            f"read_parquet('{sf_dir}/customer.parquet') ORDER BY 1"
        ).fetchall()]
        out_rows = []
        for nk in nks:
            rows = con.execute(f"""
                SELECT CAST(floor(c.c_acctbal * 100 + 0.5) AS BIGINT),
                       COALESCE(o.n, 0)
                FROM read_parquet('{sf_dir}/customer.parquet') c
                LEFT JOIN (SELECT o_custkey, COUNT(*) AS n
                           FROM read_parquet(
                               '{sf_dir}/orders.parquet')
                           GROUP BY 1) o
                  ON o.o_custkey = c.c_custkey
                WHERE c.c_nationkey = {nk}
                ORDER BY c.c_acctbal DESC, c.c_custkey
                LIMIT {_KS_K}""").fetchall()
            v = [int(a) for a, _b in rows]
            w = [int(b) for _a, b in rows]
            cap = sum(w) // 2
            out_rows.append({"n_nationkey": int(nk),
                             "n_items": len(w), "capacity": cap,
                             "best_value": _knapsack_mitm(w, v, cap)})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _ks_sql(sf_dir: str) -> str:
    return (f"SELECT n_nationkey, n_items, capacity, best_value "
            f"FROM read_parquet('{_ks_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# prime_keys_orders: primality census, sieve vs Miller-Rabin
# ---------------------------------------------------------------------------


def _sieve_primes(limit: int) -> np.ndarray:
    """Boolean is-prime array up to limit — the Sieve of
    Eratosthenes, vectorized slice-striding."""
    s = np.ones(limit + 1, bool)
    s[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if s[p]:
            s[p * p::p] = False
    return s



def _miller_rabin(n: int) -> bool:
    """INDEPENDENT replay: DETERMINISTIC Miller-Rabin — the witness
    set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} is proven
    exact for every n < 3.3·10²⁴; a completely different primality
    argument (Fermat/strong-pseudoprime) than trial sieving."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True



def q_prime_keys_orders(sf_dir: str):
    """Primality census of orderkeys per priority — π(x) over the
    live keyspace, computed by the SIEVE OF ERATOSTHENES (one
    vectorized strided pass over the whole key range, then O(1)
    lookups — the batch-offline way), while the oracle tests every
    key with DETERMINISTIC MILLER-RABIN (witnesses exact below
    3.3·10²⁴ — the per-item online way): trial sieving and
    strong-pseudoprime testing are different mathematics whose
    agreement on 15k keys is the audit. Useful as a key-structure
    probe (sequential-ish keyspaces have predictable prime density
    ~1/ln N; a generator that avoids or favors primes shows here).
    The sieve is built once (keyspace-scale) and broadcast; counts
    contract per batch."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderpriority"])
    mx = int(orders.to_pandas()["o_orderkey"].max())
    sieve_ref = ray.put(_sieve_primes(mx))
    df = _read(sf_dir, "orders",
               ["o_orderkey", "o_orderpriority"]).to_pandas()
    s = ray.get(sieve_ref)
    k = df["o_orderkey"].to_numpy(np.int64)
    isp = s[k]
    out = pd.DataFrame({"priority": df["o_orderpriority"],
                        "p": isp.astype(np.int64)})
    g = out.groupby("priority", as_index=False).agg(
        n_keys=("p", "size"), n_prime=("p", "sum"))
    for c in ("n_keys", "n_prime"):
        g[c] = g[c].astype(np.int64)
    return g.sort_values("priority").reset_index(drop=True)



QUERIES["prime_keys_orders"] = q_prime_keys_orders



def _prime_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "prime-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_prime_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT o_orderpriority, o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall()
        agg: dict = {}
        for pr, k in rows:
            a = agg.setdefault(pr, [0, 0])
            a[0] += 1
            if _miller_rabin(int(k)):
                a[1] += 1
        out = pa.Table.from_pylist(
            [{"priority": pr, "n_keys": v[0], "n_prime": v[1]}
             for pr, v in sorted(agg.items())])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _prime_sql(sf_dir: str) -> str:
    return (f"SELECT priority, n_keys, n_prime "
            f"FROM read_parquet('{_prime_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# necklace_census_weeks: rotational-equivalence classes of weekly patterns
# ---------------------------------------------------------------------------


def _necklace_canon(bits: tuple) -> tuple:
    """Canonical representative: the lexicographically smallest
    rotation (Booth's problem solved by brute rotation here — n=7)."""
    n = len(bits)
    return min(tuple(bits[(i + r) % n] for i in range(n))
               for r in range(n))



def _burnside_necklaces(n: int, k: int = 2) -> int:
    """Number of k-ary necklaces of length n by BURNSIDE:
    (1/n)·Σ_d gcd-fixed-point counts = (1/n)·Σ_{r} k^gcd(n,r)."""
    import math

    return sum(k ** math.gcd(n, r) for r in range(n)) // n



def q_necklace_census_weeks(sf_dir: str):
    """Rotational-equivalence census of weekly open/closed patterns
    — each week's 7-bit 'had orders on weekday i' pattern reduced to
    its NECKLACE (lexicographically smallest rotation): the
    Burnside/Pólya counting setup on live data, with the theorem's
    bound pinned — for n=7, k=2 there are exactly (2⁷+6·2)/7 = 20
    necklaces, so the observed distinct count must be ≤ 20
    (asserted in-operator, Burnside computed from gcd sums). A
    rotation-invariant weekly-shape fingerprint (shifting which day
    a market opens does not change its necklace). Weekly bit
    patterns contract from (week, dow) cells. Sidecar replays
    canonicalization over SQL-derived patterns."""
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64())) \
            .to_numpy(zero_copy_only=False)
        wk = day // 7
        dow = day % 7
        key = wk * 7 + dow
        u = np.unique(key)
        return pa.table({"k": pa.array(u.astype(np.int64))})

    keys = np.unique(np.concatenate(
        [t["k"].to_numpy(zero_copy_only=False) for t in
         orders.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True)
         .iter_batches(batch_size=None, batch_format="pyarrow")]))
    byweek: dict = {}
    for k in keys.tolist():
        byweek.setdefault(k // 7, set()).add(k % 7)
    counts: dict = {}
    for wk, dows in byweek.items():
        bits = tuple(1 if i in dows else 0 for i in range(7))
        canon = _necklace_canon(bits)
        counts[canon] = counts.get(canon, 0) + 1
    bound = _burnside_necklaces(7, 2)
    if len(counts) > bound:
        raise AssertionError("Burnside bound violated")
    rows = []
    for canon in sorted(counts):
        code = sum(b << i for i, b in enumerate(canon))
        rows.append({"necklace_code": code,
                     "n_weeks": counts[canon]})
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["necklace_census_weeks"] = q_necklace_census_weeks



def _necklace_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "necklace-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_necklace_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT DISTINCT epoch_us(o_orderdate) // 86400000000 "
            "// 7 AS wk, epoch_us(o_orderdate) // 86400000000 % 7 "
            "AS dow FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall()
        byweek: dict = {}
        for wk, dow in rows:
            byweek.setdefault(int(wk), set()).add(int(dow))
        counts: dict = {}
        for wk, dows in byweek.items():
            bits = tuple(1 if i in dows else 0 for i in range(7))
            canon = _necklace_canon(bits)
            counts[canon] = counts.get(canon, 0) + 1
        out = pa.Table.from_pylist(
            [{"necklace_code": sum(b << i for i, b in enumerate(c)),
              "n_weeks": n} for c, n in sorted(counts.items())])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _necklace_sql(sf_dir: str) -> str:
    return (f"SELECT necklace_code, n_weeks "
            f"FROM read_parquet('{_necklace_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# dominance_pairs_parts: 2-D dominance counting, BIT sweep vs CDQ merge
# ---------------------------------------------------------------------------


def _dominance_bit(xs, ys) -> int:
    """#pairs with x_i < x_j AND y_i < y_j — sort by (x, y), sweep
    with a Fenwick tree over compressed y counting strictly-smaller
    predecessors; x-ties are held out of the tree until their whole
    tie-group is counted (strictness on BOTH axes)."""
    n = len(xs)
    order = sorted(range(n), key=lambda i: (xs[i], ys[i]))
    ally = sorted(set(ys))
    comp = {v: i + 1 for i, v in enumerate(ally)}
    ft = _Fenwick(len(ally))
    total = 0
    i = 0
    while i < n:
        j = i
        while j < n and xs[order[j]] == xs[order[i]]:
            j += 1
        for t in range(i, j):
            total += ft.prefix(comp[ys[order[t]]] - 1)
        for t in range(i, j):
            ft.add(comp[ys[order[t]]])
        i = j
    return total



def _dominance_cdq(xs, ys) -> int:
    """INDEPENDENT replay: CDQ divide and conquer — sort by x
    (stable), then a merge-sort over y counts cross-half pairs whose
    left x is strictly smaller; x-ties handled by tagging equal-x
    runs with group ids and subtracting same-group y-sorted pairs.
    No Fenwick tree."""
    n = len(xs)
    order = sorted(range(n), key=lambda i: (xs[i], ys[i]))
    gx = [xs[i] for i in order]
    gy = [ys[i] for i in order]
    # group id per equal-x run
    gid = [0] * n
    g = 0
    for i in range(1, n):
        if gx[i] != gx[i - 1]:
            g += 1
        gid[i] = g

    def count_pairs(items):
        # items: list of (y, gid); counts pairs i<j (list order) with
        # y_i < y_j via merge sort
        if len(items) <= 1:
            return items, 0
        mid = len(items) // 2
        left, cl = count_pairs(items[:mid])
        right, cr = count_pairs(items[mid:])
        merged = []
        cnt = cl + cr
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i][0] < right[j][0]:
                merged.append(left[i])
                i += 1
            else:
                cnt += i
                merged.append(right[j])
                j += 1
        while j < len(right):
            cnt += i
            merged.append(right[j])
            j += 1
        merged += left[i:]
        return merged, cnt

    _m, all_pairs = count_pairs([(y, g) for y, g in zip(gy, gid)])
    # subtract pairs inside equal-x groups (x not strictly smaller)
    sub = 0
    i = 0
    while i < n:
        j = i
        while j < n and gid[j] == gid[i]:
            j += 1
        _m2, c = count_pairs([(gy[t], 0) for t in range(i, j)])
        sub += c
        i = j
    return all_pairs - sub



def q_dominance_pairs_parts(sf_dir: str):
    """2-D dominance pair count over parts (price, size): pairs
    strictly dominated on BOTH axes — the concordance mass behind
    Kendall's tau and the workload of every Pareto/skyline engine
    (skyline_parts ships the frontier; THIS counts the dominance
    relation's size). Sort-by-x + Fenwick-sweep-over-y with exact
    both-axes strictness (tie groups held out of the tree until
    counted). INDEPENDENT CDQ merge-sort replay — divide and
    conquer, no tree — with equal-x runs subtracted by group; PURE
    SQL self-join COUNT as the driver oracle, so three counting
    procedures agree. Cents lattice exact."""
    parts = _read(sf_dir, "part", ["p_retailprice", "p_size"])
    df = parts.to_pandas()
    xs = np.floor(df["p_retailprice"].to_numpy(np.float64)
                  * 100.0 + 0.5).astype(np.int64).tolist()
    ys = df["p_size"].to_numpy(np.int64).tolist()
    return pd.DataFrame({
        "n_parts": np.array([len(xs)], np.int64),
        "dominated_pairs": np.array([_dominance_bit(xs, ys)],
                                    np.int64)})



QUERIES["dominance_pairs_parts"] = q_dominance_pairs_parts

ORACLE_SQL["dominance_pairs_parts"] = """
        WITH p AS (SELECT CAST(floor(p_retailprice * 100 + 0.5)
                               AS BIGINT) AS x,
                          CAST(p_size AS BIGINT) AS y
                   FROM part)
        SELECT (SELECT COUNT(*) FROM p) AS n_parts,
               (SELECT COUNT(*) FROM p a JOIN p b
                ON a.x < b.x AND a.y < b.y) AS dominated_pairs
    """



# ---------------------------------------------------------------------------
# run_formation_orders: replacement-selection external-sort run audit
# ---------------------------------------------------------------------------

_RS_MEM = 64



def _replacement_selection(stream, mem: int) -> list:
    """Run lengths produced by REPLACEMENT SELECTION with a memory-M
    min-heap: pop-min always emits a key ≥ the last emitted (the
    heap invariant makes every resident eligible), incoming keys
    below the frontier freeze for the NEXT run. Knuth's snowplow
    argument gives expected run length 2M on random input — the
    reason external sorts halve their merge passes over naive
    M-sized runs."""
    import heapq

    it = iter(stream)
    heap = []
    for x in it:
        heap.append(x)
        if len(heap) == mem:
            break
    heapq.heapify(heap)
    frozen = []
    runs = []
    run_len = 0
    exhausted = False
    while heap:
        last = heapq.heappop(heap)
        run_len += 1
        if not exhausted:
            x = next(it, None)
            if x is None:
                exhausted = True
            elif x >= last:
                heapq.heappush(heap, x)
            else:
                frozen.append(x)
        if not heap:
            runs.append(run_len)
            run_len = 0
            heap = frozen
            heapq.heapify(heap)
            frozen = []
    if run_len:
        runs.append(run_len)
    return runs


def _replacement_selection_bisect(stream, mem: int) -> list:
    """INDEPENDENT replay: the equivalent SELECTION-TREE view — one
    sorted buffer, each step emits the smallest resident ≥ the last
    emitted (bisect); when none exists the run closes. No heap, no
    explicit freezing; equivalence to the heap+frozen machine is
    the classic run-number argument."""
    import bisect

    it = iter(stream)
    buf = []
    for x in it:
        bisect.insort(buf, x)
        if len(buf) == mem:
            break
    runs = []
    run_len = 0
    last = None
    exhausted = False
    while buf:
        i = 0 if last is None else bisect.bisect_left(buf, last)
        if i == len(buf):
            runs.append(run_len)
            run_len = 0
            last = None
            continue
        last = buf.pop(i)
        run_len += 1
        if not exhausted:
            x = next(it, None)
            if x is None:
                exhausted = True
            else:
                bisect.insort(buf, x)
    if run_len:
        runs.append(run_len)
    return runs



def q_run_formation_orders(sf_dir: str):
    """External-sort run formation by replacement selection over the
    price stream in (day, orderkey) arrival order with a 64-slot
    memory — the step every external merge sort runs first, and the
    site of Knuth's SNOWPLOW THEOREM: expected run length 2M on
    random input (bracket-asserted in-operator at 1.5M–3M for the
    interior runs), which halves merge passes versus naive M-sized
    runs — the difference between 3 and 4 passes over 100 TB.
    Ships run count, total (= n, conservation), max and first run
    lengths. INDEPENDENT selection-tree replay — one sorted buffer
    with bisect emits the smallest resident ≥ last, no heap, no
    explicit freeze list — equal by the run-number argument;
    sorted-input-one-run and reverse-input-M-runs pins in tests."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_totalprice"])
    df = orders.to_pandas()
    day = (df["o_orderdate"].to_numpy("datetime64[us]")
           .astype(np.int64) // 86_400_000_000)
    order = np.lexsort((df["o_orderkey"].to_numpy(np.int64), day))
    cents = np.floor(df["o_totalprice"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)[order]
    runs = _replacement_selection(cents.tolist(), _RS_MEM)
    if sum(runs) != len(cents):
        raise AssertionError("run conservation violated")
    interior = runs[1:-1] if len(runs) > 2 else []
    if len(cents) >= 5000 and interior:
        mean = sum(interior) / len(interior)
        if not (1.2 * _RS_MEM < mean < 3.5 * _RS_MEM):
            raise AssertionError("snowplow bracket violated")
    return pd.DataFrame({
        "n_keys": np.array([len(cents)], np.int64),
        "mem": np.array([_RS_MEM], np.int64),
        "n_runs": np.array([len(runs)], np.int64),
        "first_run": np.array([runs[0] if runs else 0], np.int64),
        "max_run": np.array([max(runs) if runs else 0], np.int64)})



QUERIES["run_formation_orders"] = q_run_formation_orders



def _runs_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "runs-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_runs_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) "
            f"FROM read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY epoch_us(o_orderdate) // 86400000000, "
            "o_orderkey").fetchall()
        stream = [int(r[0]) for r in rows]
        runs = _replacement_selection_bisect(stream, _RS_MEM)
        out = pa.Table.from_pylist([{
            "n_keys": len(stream), "mem": _RS_MEM,
            "n_runs": len(runs),
            "first_run": runs[0] if runs else 0,
            "max_run": max(runs) if runs else 0}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _runs_sql(sf_dir: str) -> str:
    return (f"SELECT n_keys, mem, n_runs, first_run, max_run "
            f"FROM read_parquet('{_runs_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# cache_paging_orders: FIFO vs LRU vs Belady-OPT miss audit
# ---------------------------------------------------------------------------

_PAGE_CAP = 32



def _misses_fifo(stream, cap: int) -> int:
    from collections import deque

    q: deque = deque()
    inset: set = set()
    miss = 0
    for x in stream:
        if x in inset:
            continue
        miss += 1
        if len(q) == cap:
            inset.discard(q.popleft())
        q.append(x)
        inset.add(x)
    return miss



def _misses_lru(stream, cap: int) -> int:
    from collections import OrderedDict

    od: dict = OrderedDict()
    miss = 0
    for x in stream:
        if x in od:
            od.move_to_end(x)
            continue
        miss += 1
        if len(od) == cap:
            od.popitem(last=False)
        od[x] = True
    return miss



def _misses_belady(stream, cap: int) -> int:
    """Belady's OPT — evict the page whose next use is farthest in
    the future (clairvoyant, offline-computable, provably minimal);
    ties (both never used again) evict the smallest page id for
    determinism."""
    import heapq

    nxt: dict = {}
    future: dict = {}
    for i in range(len(stream) - 1, -1, -1):
        future.setdefault(stream[i], []).append(i)
    INF = 1 << 60
    cache: set = set()
    heap: list = []          # (-next_use, page), lazy
    miss = 0
    for i, x in enumerate(stream):
        lst = future[x]
        lst.pop()            # consume occurrence i
        nu = lst[-1] if lst else INF + x   # tie → smaller id first?
        if x in cache:
            heapq.heappush(heap, (-nu, x))
            nxt[x] = nu
            continue
        miss += 1
        if len(cache) == cap:
            while True:
                negu, y = heapq.heappop(heap)
                if y in cache and nxt.get(y) == -negu:
                    cache.discard(y)
                    break
        cache.add(x)
        nxt[x] = nu
        heapq.heappush(heap, (-nu, x))
    return miss



def q_cache_paging_orders(sf_dir: str):
    """Paging-policy audit over the customer-key reference stream of
    the order log (cache of 32 entries): misses under FIFO, LRU and
    BELADY'S OPT — the clairvoyant farthest-next-use rule that is
    offline-computable and provably minimal, which the operator
    ASSERTS (opt ≤ fifo, opt ≤ lru) on the live stream: competitive
    analysis with the actual competitive gap measured, the number
    every cache-sizing discussion needs (and Belady's anomaly —
    FIFO worsening with MORE cache — is pinned on the textbook
    stream in tests). Deterministic (day, orderkey) reference
    order. Sidecar replays all three policies re-mechanized over
    SQL-ordered keys."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_custkey"])
    df = orders.to_pandas()
    day = (df["o_orderdate"].to_numpy("datetime64[us]")
           .astype(np.int64) // 86_400_000_000)
    order = np.lexsort((df["o_orderkey"].to_numpy(np.int64), day))
    stream = df["o_custkey"].to_numpy(np.int64)[order].tolist()
    f = _misses_fifo(stream, _PAGE_CAP)
    l = _misses_lru(stream, _PAGE_CAP)
    b = _misses_belady(stream, _PAGE_CAP)
    if not (b <= f and b <= l):
        raise AssertionError("OPT minimality violated")
    return pd.DataFrame({
        "n_refs": np.array([len(stream)], np.int64),
        "cache_size": np.array([_PAGE_CAP], np.int64),
        "miss_fifo": np.array([f], np.int64),
        "miss_lru": np.array([l], np.int64),
        "miss_opt": np.array([b], np.int64)})



QUERIES["cache_paging_orders"] = q_cache_paging_orders



def _misses_fifo_list(stream, cap):
    q = []
    miss = 0
    for x in stream:
        if x in q:
            continue
        miss += 1
        if len(q) == cap:
            q.pop(0)
        q.append(x)
    return miss



def _misses_lru_list(stream, cap):
    q = []
    miss = 0
    for x in stream:
        if x in q:
            q.remove(x)
            q.append(x)
            continue
        miss += 1
        if len(q) == cap:
            q.pop(0)
        q.append(x)
    return miss



def _misses_belady_scan(stream, cap):
    """Replay OPT with occurrence-list BISECT lookups per eviction
    (no lazy heap): each cached page's next use after i is found by
    bisecting its precomputed position list — same farthest-future
    rule, same smallest-id tie for never-used-again pages."""
    import bisect

    occ: dict = {}
    for i, x in enumerate(stream):
        occ.setdefault(x, []).append(i)
    cache: list = []
    miss = 0
    for i, x in enumerate(stream):
        if x in cache:
            continue
        miss += 1
        if len(cache) == cap:
            best = None
            for y in cache:
                lst = occ[y]
                j = bisect.bisect_right(lst, i)
                nu = lst[j] if j < len(lst) else (1 << 60) + y
                key = (-nu, y)
                if best is None or key < best:
                    best = key
            cache.remove(best[1])
        cache.append(x)
    return miss



def _paging_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "paging-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_paging_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT o_custkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY epoch_us(o_orderdate) // 86400000000, "
            "o_orderkey").fetchall()
        stream = [int(r[0]) for r in rows]
        out = pa.Table.from_pylist([{
            "n_refs": len(stream), "cache_size": _PAGE_CAP,
            "miss_fifo": _misses_fifo_list(stream, _PAGE_CAP),
            "miss_lru": _misses_lru_list(stream, _PAGE_CAP),
            "miss_opt": _misses_belady_scan(stream, _PAGE_CAP)}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _paging_sql(sf_dir: str) -> str:
    return (f"SELECT n_refs, cache_size, miss_fifo, miss_lru, "
            f"miss_opt FROM read_parquet('{_paging_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# matrix_chain_days: optimal parenthesization of a matrix chain
# ---------------------------------------------------------------------------

_MCM_K = 12



def _mcm_dp(dims) -> int:
    """Minimum scalar multiplications to evaluate the chain —
    the classic interval DP m[i][j] = min_k m[i][k] + m[k+1][j] +
    d_i·d_{k+1}·d_{j+1}, O(n³). NOTE: Knuth's quadrangle speedup is
    famously INVALID here (MCM violates the QI) — the full k-scan
    is the honest form."""
    n = len(dims) - 1
    if n <= 0:
        return 0
    INF = 1 << 62
    m = [[0] * n for _ in range(n)]
    for ln in range(2, n + 1):
        for i in range(n - ln + 1):
            j = i + ln - 1
            best = INF
            for k in range(i, j):
                c = m[i][k] + m[k + 1][j] \
                    + dims[i] * dims[k + 1] * dims[j + 1]
                if c < best:
                    best = c
            m[i][j] = best
    return m[0][n - 1]



def _mcm_memo(dims) -> int:
    """INDEPENDENT replay: top-down memoized recursion (the other DP
    direction); brute Catalan enumeration cross-checks both in
    tests."""
    import functools

    n = len(dims) - 1
    if n <= 0:
        return 0

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == j:
            return 0
        return min(go(i, k) + go(k + 1, j)
                   + dims[i] * dims[k + 1] * dims[j + 1]
                   for k in range(i, j))

    r = go(0, n - 1)
    go.cache_clear()
    return r



def q_matrix_chain_days(sf_dir: str):
    """Optimal matrix-chain parenthesization over dimensions drawn
    from the first 13 daily order counts (+1 so no dimension is 0) —
    the classic interval DP that every tensor-contraction planner
    and einsum optimizer solves, with a negative result worth
    shipping: Knuth's quadrangle-inequality speedup is INVALID for
    MCM (the cost violates the QI), so the honest O(n³) full k-scan
    runs — and the naive left-to-right evaluation cost ships beside
    the optimum so the planning win is visible. Exact ints; the day
    series contracts from batch partials, the 12-matrix DP is
    epilogue arithmetic. INDEPENDENT top-down memoized replay;
    brute enumeration over all Catalan parenthesizations
    cross-checks both in tests."""
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"day": day}).group_by("day") \
            .aggregate([([], "count_all")])
        return pa.table({"day": g["day"],
                         "n": g["count_all"].cast(pa.int64())})

    days = (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("day").sum("n")).to_pandas()
    days.columns = ["day", "n"]
    days = days.sort_values("day").head(_MCM_K + 1)
    dims = (days["n"].to_numpy(np.int64) + 1).tolist()
    opt = _mcm_dp(dims)
    naive = 0
    rows_ = dims[0]
    for i in range(1, len(dims) - 1):
        naive += rows_ * dims[i] * dims[i + 1]
    return pd.DataFrame({
        "n_matrices": np.array([len(dims) - 1], np.int64),
        "opt_cost": np.array([opt], np.int64),
        "naive_left_cost": np.array([naive], np.int64)})



QUERIES["matrix_chain_days"] = q_matrix_chain_days



def _mcm_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "mcm-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_mcm_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 AS d, "
            "COUNT(*) + 1 FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            f"GROUP BY 1 ORDER BY 1 LIMIT {_MCM_K + 1}").fetchall()
        dims = [int(n) for _d, n in rows]
        naive = 0
        r0 = dims[0]
        for i in range(1, len(dims) - 1):
            naive += r0 * dims[i] * dims[i + 1]
        out = pa.Table.from_pylist([{
            "n_matrices": len(dims) - 1,
            "opt_cost": _mcm_memo(dims),
            "naive_left_cost": naive}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _mcm_sql(sf_dir: str) -> str:
    return (f"SELECT n_matrices, opt_cost, naive_left_cost "
            f"FROM read_parquet('{_mcm_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# stern_brocot_orders: best rational approximation, two constructions
# ---------------------------------------------------------------------------


def _sb_best_rational(p: int, q: int, qmax: int) -> tuple:
    """Best rational approximation to p/q with denominator ≤ qmax by
    STERN-BROCOT DESCENT: walk the tree from 0/1, 1/0 by mediants,
    stepping toward the target; among visited fractions with
    denominator ≤ qmax, keep the one minimizing |p/q − a/b| exactly
    (cross-multiplied comparison, ties to smaller b then smaller a).
    Run-length accelerated so pathological targets stay O(log)."""
    from math import gcd

    g = gcd(p, q) or 1
    p //= g
    q //= g
    if q <= qmax:
        return p, q
    la, lb = 0, 1
    ra, rb = 1, 0
    best = None

    def consider(a, b):
        nonlocal best
        if b == 0 or b > qmax:
            return
        # |p/q − a/b| = |p·b − a·q| / (q·b)
        num = abs(p * b - a * q)
        if best is None:
            best = (num, b, a)
            return
        bn, bb, ba = best
        # num/(q·b) < bn/(q·bb)  ⇔  num·bb < bn·b
        if num * bb < bn * b or (num * bb == bn * b
                                 and (b, a) < (bb, ba)):
            best = (num, b, a)

    consider(la, lb)
    while True:
        ma, mb = la + ra, lb + rb
        if mb > qmax:
            break
        # how many steps in the same direction? batch them
        if ma * q < p * mb:          # mediant < target: go right
            # k = max steps: (la + k·ra)/(lb + k·rb) still < target
            if ra * q - p * rb == 0:
                k = (qmax - lb) // rb if rb else 1
            else:
                k = 1
                if p * rb - ra * q != 0:
                    kk = (p * lb - la * q) // (ra * q - p * rb) \
                        if (ra * q - p * rb) > 0 else 1
                    k = max(1, kk)
            k = max(1, min(k, (qmax - lb) // rb if rb else k))
            la, lb = la + k * ra, lb + k * rb
            consider(la, lb)
        elif ma * q > p * mb:        # go left
            if la * q - p * lb == 0:
                k = (qmax - rb) // lb if lb else 1
            else:
                k = 1
                if p * lb - la * q != 0:
                    kk = (ra * q - p * rb) // (p * lb - la * q) \
                        if (p * lb - la * q) > 0 else 1
                    k = max(1, kk)
            k = max(1, min(k, (qmax - rb) // lb if lb else k))
            ra, rb = ra + k * la, rb + k * lb
            consider(ra, rb)
        else:
            consider(ma, mb)
            break
    return best[2], best[1]



def _cf_best_rational(p: int, q: int, qmax: int) -> tuple:
    """INDEPENDENT replay: CONTINUED-FRACTION convergents and
    semiconvergents — the classical best-approximation theorem says
    every best rational is a (semi)convergent; enumerate them up to
    qmax and take the exact argmin with the same tie rule."""
    from math import gcd

    g = gcd(p, q) or 1
    p //= g
    q //= g
    if q <= qmax:
        return p, q
    a, b = p, q
    h0, h1 = 1, 0       # numerators (h1 = previous)
    k0, k1 = 0, 1       # denominators
    cands = []
    while b:
        ai = a // b
        a, b = b, a - ai * b
        # semiconvergents: (h1 + t·h0… careful with ordering
        for t in range(1, ai + 1):
            hn = t * h0 + h1
            kn = t * k0 + k1
            if kn <= qmax:
                cands.append((hn, kn))
        h1, h0 = h0, ai * h0 + h1
        k1, k0 = k0, ai * k0 + k1
        if k0 <= qmax:
            cands.append((h0, k0))   # the full convergent itself
        if k0 > qmax and k1 > qmax:
            break
    best = None
    for hn, kn in cands:
        num = abs(p * kn - hn * q)
        if best is None:
            best = (num, kn, hn)
            continue
        bn, bb, ba = best
        if num * bb < bn * kn or (num * bb == bn * kn
                                  and (kn, hn) < (bb, ba)):
            best = (num, kn, hn)
    return best[2], best[1]



def q_stern_brocot_orders(sf_dir: str):
    """Best rational approximation of the mean order price (total
    cents / n) at denominators ≤ 8, 64 and 512 — by STERN-BROCOT
    mediant descent, the binary-search tree over ALL positive
    rationals (gear-train design, calendar leap rules, float→ratio
    conversion): every visited fraction is automatically in lowest
    terms, and the best approximant with bounded denominator lies
    on the search path. All comparisons cross-multiplied in big
    ints — zero floats. The INDEPENDENT sidecar enumerates
    CONTINUED-FRACTION convergents and semiconvergents instead —
    agreement is the classical best-approximation theorem checked
    on live data. π ≈ 355/113 pinned in tests."""
    df = _read(sf_dir, "orders", ["o_totalprice"]).to_pandas()
    cents = np.floor(df["o_totalprice"].to_numpy(np.float64)
                     * 100.0 + 0.5).astype(np.int64)
    p = int(cents.sum())
    q = len(cents)
    rows = []
    for qmax in (8, 64, 512):
        a, b = _sb_best_rational(p, q, qmax)
        rows.append({"qmax": qmax, "num": a, "den": b})
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["stern_brocot_orders"] = q_stern_brocot_orders



def _sb_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "sb-v1").encode(),
                  digest_size=8).hexdigest()
    p_ = _oracle_cache_dir() / (
        f"oracle_sb_{Path(sf_dir).name}_{key}.parquet")
    if not p_.exists():
        con = duckdb.connect()
        p, q = con.execute(
            "SELECT CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5) "
            "AS BIGINT)) AS BIGINT), COUNT(*) FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchone()
        rows = []
        for qmax in (8, 64, 512):
            a, b = _cf_best_rational(int(p), int(q), qmax)
            rows.append({"qmax": qmax, "num": a, "den": b})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p_)
    return str(p_)



def _sb_sql(sf_dir: str) -> str:
    return (f"SELECT qmax, num, den "
            f"FROM read_parquet('{_sb_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# damm_audit_orders: Damm quasigroup check digit census
# ---------------------------------------------------------------------------

_DAMM_TABLE = (
    (0, 3, 1, 7, 5, 9, 8, 6, 4, 2),
    (7, 0, 9, 2, 1, 5, 4, 8, 6, 3),
    (4, 2, 0, 6, 8, 7, 1, 3, 5, 9),
    (1, 7, 5, 0, 9, 8, 3, 4, 2, 6),
    (6, 1, 2, 3, 0, 4, 5, 9, 7, 8),
    (3, 6, 7, 4, 2, 0, 9, 5, 8, 1),
    (5, 8, 6, 9, 7, 2, 0, 1, 3, 4),
    (8, 9, 4, 5, 3, 6, 2, 0, 1, 7),
    (9, 4, 3, 8, 6, 1, 7, 2, 0, 5),
    (2, 5, 8, 1, 4, 3, 6, 7, 9, 0),
)



def _damm_digit(n: int) -> int:
    """Damm check digit: fold the decimal digits (MSB first) through
    the published order-10 totally anti-symmetric quasigroup; the
    interim value after the full walk IS the check digit (a number
    with appended digit re-folds to 0)."""
    interim = 0
    for ch in str(n):
        interim = _DAMM_TABLE[interim][ord(ch) - 48]
    return interim



def q_damm_audit_orders(sf_dir: str):
    """Damm check-digit census over every orderkey — the 2004
    quasigroup scheme that closes Luhn's famous gap: a totally
    anti-symmetric quasigroup catches ALL single-digit errors AND
    ALL adjacent transpositions (Luhn misses 09↔90 — the contrast
    is pinned in tests against the repo's own Luhn operator's
    kernel, and both guarantees are verified EXHAUSTIVELY over
    every digit position of a reference number). Per check digit
    0-9: key count and how many keys are already Damm-valid
    (appended-digit refold = 0, the scheme's defining identity,
    also pinned). The digit walk is table-driven per key; (digit,
    valid) cells contract per batch. Sidecar replays the same
    published table with a different accumulation."""
    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def part(t: pa.Table) -> pa.Table:
        ks = t["o_orderkey"].to_numpy(zero_copy_only=False)
        chks = np.empty(len(ks), np.int64)
        valid = np.empty(len(ks), np.int64)
        for i, k in enumerate(ks.tolist()):
            k = int(k)
            dpre = _damm_digit(k // 10)
            chks[i] = dpre
            # valid ⇔ the FULL fold lands on 0 ⇔ one more table step
            # from the prefix digit with the last digit hits 0
            valid[i] = int(_DAMM_TABLE[dpre][k % 10] == 0)
        g = pa.table({"chk": pa.array(chks),
                      "valid": pa.array(valid)}) \
            .group_by("chk").aggregate([("valid", "sum"),
                                        ([], "count_all")])
        return pa.table({"check_digit": g["chk"],
                         "n_valid": g["valid_sum"].cast(pa.int64()),
                         "n": g["count_all"].cast(pa.int64())})

    out = (orders.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("check_digit").sum(["n_valid", "n"])).to_pandas()
    out.columns = ["check_digit", "n_valid", "n"]
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("check_digit").reset_index(drop=True)



QUERIES["damm_audit_orders"] = q_damm_audit_orders



def _damm_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "damm-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_damm_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        ks = [int(r[0]) for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall()]
        agg: dict = {}
        for k in ks:
            # different mechanization: digits extracted by divmod
            # into a list, prefix folded, then the last step
            digits = []
            x = k // 10
            while x:
                digits.append(x % 10)
                x //= 10
            interim = 0
            for d in reversed(digits):
                interim = _DAMM_TABLE[interim][d]
            chk = interim
            ok = int(_DAMM_TABLE[interim][k % 10] == 0)
            a = agg.setdefault(chk, [0, 0])
            a[0] += ok
            a[1] += 1
        out = pa.Table.from_pylist(
            [{"check_digit": c, "n_valid": v[0], "n": v[1]}
             for c, v in sorted(agg.items())])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _fold_damm_prefix(k: int) -> int:
    """valid iff folding ALL digits of k (prefix + last) lands on 0."""
    interim = 0
    for ch in str(k):
        interim = _DAMM_TABLE[interim][ord(ch) - 48]
    return int(interim == 0)



def _damm_sql(sf_dir: str) -> str:
    return (f"SELECT check_digit, n_valid, n "
            f"FROM read_parquet('{_damm_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# zorder_bigmin_query: Tropf-Herzog BIGMIN Morton range splitting
# ---------------------------------------------------------------------------

_ZB_BITS = 10     # per-axis bits of the query grid



def _morton2(x: int, y: int) -> int:
    z = 0
    for b in range(_ZB_BITS):
        z |= ((x >> b) & 1) << (2 * b)
        z |= ((y >> b) & 1) << (2 * b + 1)
    return z



def _demorton2(z: int) -> tuple:
    x = y = 0
    for b in range(_ZB_BITS):
        x |= ((z >> (2 * b)) & 1) << b
        y |= ((z >> (2 * b + 1)) & 1) << b
    return x, y



def _in_rect(z: int, rect) -> bool:
    x, y = _demorton2(z)
    x0, y0, x1, y1 = rect
    return x0 <= x <= x1 and y0 <= y <= y1



def _bigmin(zcur: int, zmin: int, zmax: int) -> int:
    """Tropf-Herzog BIGMIN: the smallest Morton code > zcur that
    lies inside the query rectangle [zmin, zmax] (codes of the
    rect's corners) — the bit-surgical skip that turns a Z-range
    scan with gaps into O(ranges) contiguous runs. Walks bits MSB →
    LSB maintaining candidate min/max with the LOAD(10…/01…)
    patterns from the original 1981 paper."""
    def load(ones: bool, bit: int, val: int, dim_mask: int) -> int:
        # set bit-pattern 10…0 (ones=True) or 01…1 (ones=False) on
        # the dimension's bits at and below `bit`
        mask = 0
        b = bit
        while b >= 0:
            mask |= 1 << b
            b -= 2
        if ones:
            val = (val | (1 << bit)) & ~(mask ^ (1 << bit))
        else:
            val = (val & ~(1 << bit)) | (mask ^ (1 << bit))
        return val

    bigmin = None
    for bit in range(2 * _ZB_BITS - 1, -1, -1):
        zb = (zcur >> bit) & 1
        mnb = (zmin >> bit) & 1
        mxb = (zmax >> bit) & 1
        if zb == 0 and mnb == 0 and mxb == 1:
            bigmin = load(True, bit, zmin, bit & 1)
            zmax = load(False, bit, zmax, bit & 1)
        elif zb == 0 and mnb == 1 and mxb == 1:
            return zmin
        elif zb == 1 and mnb == 0 and mxb == 0:
            return bigmin
        elif zb == 1 and mnb == 0 and mxb == 1:
            zmin = load(True, bit, zmin, bit & 1)
        elif mnb != mxb:
            raise AssertionError("unreachable BIGMIN state")
    return bigmin



def _zscan_bigmin(rect) -> tuple:
    """(cells, jumps): enumerate the rect's cells in Morton order
    using BIGMIN to leap over out-of-rect gaps; jumps counts the
    leaps (the saved work vs a naive [zmin, zmax] scan)."""
    x0, y0, x1, y1 = rect
    zmin = _morton2(x0, y0)
    zmax = _morton2(x1, y1)
    cells = []
    z = zmin
    jumps = 0
    while z is not None and z <= zmax:
        if _in_rect(z, rect):
            cells.append(z)
            z += 1
        else:
            z = _bigmin(z, zmin, zmax)
            jumps += 1
    return cells, jumps



def q_zorder_bigmin_query(sf_dir: str):
    """Tropf-Herzog BIGMIN over the tile grid — THE Z-order range-
    query algorithm (1981) every Morton-indexed store needs: a query
    rectangle's cells are scattered across [zmin, zmax] with gaps,
    and BIGMIN computes, by pure bit surgery, the next in-rect code
    after any gap — turning the scan from O(zmax−zmin) into
    O(cells + jumps). Run for a deterministic query rect over the
    image-tile quantized grid: the enumerated cell set is asserted
    EQUAL to the brute rectangle enumeration (correctness), and the
    jump count + naive span ship so the savings are visible
    (span ≫ cells). The INDEPENDENT sidecar enumerates the
    rectangle directly and Morton-sorts — no BIGMIN anywhere."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])

    def prep(t: pa.Table) -> pa.Table:
        x = t["lon"].to_numpy(zero_copy_only=False)
        y = t["lat"].to_numpy(zero_copy_only=False)
        gx = np.floor((x + 123.0) * 800.0).astype(np.int64)
        gy = np.floor((y - 36.8) * 800.0).astype(np.int64)
        return pa.table({
            "gx": pa.array(np.clip(gx, 0, (1 << _ZB_BITS) - 1)),
            "gy": pa.array(np.clip(gy, 0, (1 << _ZB_BITS) - 1))})

    g = (ds.map_batches(prep, batch_format="pyarrow")
         .to_pandas())
    cx = int(np.median(g["gx"]))
    cy = int(np.median(g["gy"]))
    rect = (max(cx - 13, 0), max(cy - 6, 0),
            min(cx + 14, (1 << _ZB_BITS) - 1),
            min(cy + 9, (1 << _ZB_BITS) - 1))
    cells, jumps = _zscan_bigmin(rect)
    expect = sorted(_morton2(x, y)
                    for x in range(rect[0], rect[2] + 1)
                    for y in range(rect[1], rect[3] + 1))
    if cells != expect:
        raise AssertionError("BIGMIN enumeration diverged")
    span = _morton2(rect[2], rect[3]) - _morton2(rect[0], rect[1]) + 1
    chk = sum((i + 1) * z for i, z in enumerate(cells)) \
        % ((1 << 61) - 1)
    return pd.DataFrame({
        "n_cells": np.array([len(cells)], np.int64),
        "n_jumps": np.array([jumps], np.int64),
        "naive_span": np.array([span], np.int64),
        "cell_checksum": np.array([chk], np.int64)})



QUERIES["zorder_bigmin_query"] = q_zorder_bigmin_query



def _zb_sidecar(img: str) -> str:
    from pathlib import Path

    import glob

    import duckdb

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_zb_{Path(img).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        con = duckdb.connect()
        files = sorted(glob.glob(f"{img}/part-*.parquet"))
        cx, cy = con.execute(f"""
            SELECT CAST(median(LEAST(GREATEST(
                       CAST(floor((lon + 123.0) * 800.0) AS BIGINT),
                       0), {(1 << _ZB_BITS) - 1})) AS BIGINT),
                   CAST(median(LEAST(GREATEST(
                       CAST(floor((lat - 36.8) * 800.0) AS BIGINT),
                       0), {(1 << _ZB_BITS) - 1})) AS BIGINT)
            FROM read_parquet({files!r})""").fetchone()
        cx, cy = int(cx), int(cy)
        rect = (max(cx - 13, 0), max(cy - 6, 0),
                min(cx + 14, (1 << _ZB_BITS) - 1),
                min(cy + 9, (1 << _ZB_BITS) - 1))
        cells = sorted(_morton2(x, y)
                       for x in range(rect[0], rect[2] + 1)
                       for y in range(rect[1], rect[3] + 1))
        # jumps replayed by re-running the scan identity: a jump
        # happens at each maximal run boundary — runs = count of
        # non-contiguous steps in the sorted cell list, plus the
        # possible leading gap from zmin
        zmin = _morton2(rect[0], rect[1])
        runs = 1 + sum(1 for a, b in zip(cells, cells[1:])
                       if b != a + 1)
        jumps = runs - (1 if cells and cells[0] == zmin else 0)
        span = _morton2(rect[2], rect[3]) - zmin + 1
        chk = sum((i + 1) * z for i, z in enumerate(cells)) \
            % ((1 << 61) - 1)
        out = pa.Table.from_pylist([{
            "n_cells": len(cells), "n_jumps": jumps,
            "naive_span": span, "cell_checksum": chk}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _zb_sql(img: str) -> str:
    return (f"SELECT n_cells, n_jumps, naive_span, cell_checksum "
            f"FROM read_parquet('{_zb_sidecar(img)}')")



# ---------------------------------------------------------------------------
# mo_range_distinct_days: offline range-distinct, Mo's vs BIT offline
# ---------------------------------------------------------------------------

_MO_Q = 64



def _mo_distinct(vals: list, queries: list) -> list:
    """Answers distinct-count range queries OFFLINE by MO'S
    ALGORITHM: sort queries into √n blocks by (left-block, right),
    then slide the [l, r] window with O(1) add/remove updates —
    O((n + q)·√n) total pointer movement, the offline-query
    scheduling trick square-root decomposition is famous for."""
    import math

    n = len(vals)
    block = max(1, int(math.sqrt(n)))
    order = sorted(range(len(queries)),
                   key=lambda i: (queries[i][0] // block,
                                  queries[i][1]))
    cnt: dict = {}
    distinct = 0
    l, r = 0, -1
    out = [0] * len(queries)

    def add(v):
        nonlocal distinct
        c = cnt.get(v, 0)
        if c == 0:
            distinct += 1
        cnt[v] = c + 1

    def rem(v):
        nonlocal distinct
        c = cnt[v]
        if c == 1:
            distinct -= 1
        cnt[v] = c - 1

    for qi in order:
        ql, qr = queries[qi]
        while r < qr:
            r += 1
            add(vals[r])
        while l > ql:
            l -= 1
            add(vals[l])
        while r > qr:
            rem(vals[r])
            r -= 1
        while l < ql:
            rem(vals[l])
            l += 1
        out[qi] = distinct
    return out



def _offline_distinct_bit(vals: list, queries: list) -> list:
    """INDEPENDENT replay: the OTHER offline classic — sort queries
    by right endpoint, sweep r keeping a Fenwick tree where only the
    LAST occurrence of each value holds a 1; distinct(l, r) =
    prefix(r) − prefix(l−1). No window sliding."""
    n = len(vals)
    order = sorted(range(len(queries)), key=lambda i: queries[i][1])
    ft = _Fenwick(n)
    last: dict = {}
    out = [0] * len(queries)
    r = -1
    for qi in order:
        ql, qr = queries[qi]
        while r < qr:
            r += 1
            v = vals[r]
            if v in last:
                # remove the old last-occurrence marker
                i = last[v]
                # Fenwick subtract: add via negative loop
                j = i + 1
                while j <= n:
                    ft.t[j] -= 1
                    j += j & -j
            last[v] = r
            ft.add(r + 1)
        out[qi] = ft.prefix(qr + 1) - ft.prefix(ql)
    return out



def q_mo_range_distinct_days(sf_dir: str):
    """Offline range-distinct queries over the daily order-count
    series — 'how many DISTINCT daily volumes occurred in this date
    range' for 64 drawn ranges, answered by MO'S ALGORITHM: sort the
    queries into √n blocks and slide one [l, r] window through all
    of them with O(1) add/remove — O((n+q)√n) total movement, the
    offline scheduling trick that makes un-indexable aggregate
    queries batchable (exactly the shape of an analytics backfill).
    The INDEPENDENT sidecar answers the same queries by the OTHER
    offline classic — right-endpoint sweep with a Fenwick tree over
    LAST OCCURRENCES — no window anywhere; agreement certifies
    both schedulers. Reuses the RMQ operator's drawn ranges
    discipline (sidecar ships ranges, answers recomputed)."""
    from geotile.synth import splitmix64

    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"day": day}).group_by("day") \
            .aggregate([([], "count_all")])
        return pa.table({"day": g["day"],
                         "n": g["count_all"].cast(pa.int64())})

    days = (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("day").sum("n")).to_pandas()
    days.columns = ["day", "n"]
    days = days.sort_values("day").reset_index(drop=True)
    vals = days["n"].to_numpy(np.int64).tolist()
    D = len(vals)
    qa = (splitmix64(np.arange(_MO_Q, dtype=np.uint64)
                     + np.uint64(777)) % np.uint64(D)).astype(np.int64)
    qb = (splitmix64(np.arange(_MO_Q, dtype=np.uint64)
                     + np.uint64(888)) % np.uint64(D)).astype(np.int64)
    ql = np.minimum(qa, qb)
    qr = np.maximum(qa, qb)
    queries = list(zip(ql.tolist(), qr.tolist()))
    ans = _mo_distinct(vals, queries)
    d = days["day"].to_numpy(np.int64)
    return pd.DataFrame({
        "qid": np.arange(_MO_Q, dtype=np.int64),
        "lo_day": d[ql], "hi_day": d[qr],
        "n_distinct": np.array(ans, np.int64)})



QUERIES["mo_range_distinct_days"] = q_mo_range_distinct_days



def _mo_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    from geotile.synth import splitmix64

    key = blake2b((sf_dir + "mo-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_mo_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 AS d, "
            "COUNT(*) FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            "GROUP BY 1 ORDER BY 1").fetchall()
        vals = [int(n) for _d, n in rows]
        dlist = [int(dd) for dd, _n in rows]
        D = len(vals)
        qa = (splitmix64(np.arange(_MO_Q, dtype=np.uint64)
                         + np.uint64(777))
              % np.uint64(D)).astype(np.int64)
        qb = (splitmix64(np.arange(_MO_Q, dtype=np.uint64)
                         + np.uint64(888))
              % np.uint64(D)).astype(np.int64)
        ql = np.minimum(qa, qb)
        qr = np.maximum(qa, qb)
        queries = list(zip(ql.tolist(), qr.tolist()))
        ans = _offline_distinct_bit(vals, queries)
        out = pa.Table.from_pylist([
            {"qid": i, "lo_day": dlist[int(ql[i])],
             "hi_day": dlist[int(qr[i])],
             "n_distinct": ans[i]} for i in range(_MO_Q)])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _mo_sql(sf_dir: str) -> str:
    return (f"SELECT qid, lo_day, hi_day, n_distinct "
            f"FROM read_parquet('{_mo_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# rank_select_days: succinct bitvector rank/select audit
# ---------------------------------------------------------------------------

_RSV_BLOCK = 64



def _rsv_build(bits: np.ndarray):
    """Block-rank directory: cumulative popcounts every 64 bits —
    the two-level structure (here one level) behind every succinct
    index (FM-index, wavelet trees): rank in O(1) via directory +
    word popcount, select by binary search over ranks."""
    n = len(bits)
    words = []
    for w0 in range(0, n, _RSV_BLOCK):
        w = 0
        for i, b in enumerate(bits[w0:w0 + _RSV_BLOCK]):
            if b:
                w |= 1 << i
        words.append(w)
    dirs = [0]
    for w in words:
        dirs.append(dirs[-1] + bin(w).count("1"))
    return words, dirs



def _rsv_rank1(words, dirs, i: int) -> int:
    """# of 1s in bits[0..i] (inclusive)."""
    wi = (i + 1) // _RSV_BLOCK
    rem = (i + 1) % _RSV_BLOCK
    r = dirs[wi]
    if rem:
        r += bin(words[wi] & ((1 << rem) - 1)).count("1")
    return r



def _rsv_select1(words, dirs, k: int) -> int:
    """Position of the k-th 1 (1-indexed) — binary search the block
    directory, then scan the word."""
    import bisect

    wi = bisect.bisect_left(dirs, k) - 1
    rem = k - dirs[wi]
    w = words[wi]
    pos = wi * _RSV_BLOCK
    while rem:
        if w & 1:
            rem -= 1
            if rem == 0:
                return pos
        w >>= 1
        pos += 1
    return pos



def q_rank_select_days(sf_dir: str):
    """Succinct rank/select over the 'day had orders' bitmap — the
    two primitive queries under every FM-index, wavelet tree and
    compressed bitmap: rank₁(i) (active days up to i) answered from
    a 64-bit block directory + word popcount, select₁(k) (the k-th
    active day) by binary search over the directory — o(n) extra
    space, O(1)/O(log) per query, where the naive answer rescans
    the prefix. 64 drawn rank probes and 32 select probes ship,
    with the inverse identities rank(select(k)) = k and
    select(rank(i)) ≤ i asserted in-operator. INDEPENDENT replay
    answers every probe by naive prefix scans over the raw bitmap —
    no directory, no popcount words."""
    from geotile.synth import splitmix64

    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"day": day}).group_by("day") \
            .aggregate([([], "count_all")])
        return pa.table({"day": g["day"]})

    days = (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("day").count()).to_pandas()
    active = np.sort(days["day"].to_numpy(np.int64))
    lo, hi = int(active[0]), int(active[-1])
    n = hi - lo + 1
    bits = np.zeros(n, np.int8)
    bits[active - lo] = 1
    words, dirs = _rsv_build(bits)
    total = int(bits.sum())
    ri = (splitmix64(np.arange(_MO_Q, dtype=np.uint64)
                     + np.uint64(31)) % np.uint64(n)).astype(np.int64)
    rows = []
    for q in range(_MO_Q):
        i = int(ri[q])
        r = _rsv_rank1(words, dirs, i)
        rows.append({"qid": q, "kind": 0, "arg": i, "answer": r})
        if r > 0:
            s = _rsv_select1(words, dirs, r)
            if s > i or _rsv_rank1(words, dirs, s) != r:
                raise AssertionError("rank/select identity broken")
    si = (splitmix64(np.arange(32, dtype=np.uint64)
                     + np.uint64(63))
          % np.uint64(total)).astype(np.int64) + 1
    for q in range(32):
        k = int(si[q])
        s = _rsv_select1(words, dirs, k)
        if _rsv_rank1(words, dirs, s) != k:
            raise AssertionError("select/rank identity broken")
        rows.append({"qid": _MO_Q + q, "kind": 1, "arg": k,
                     "answer": s + lo})
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["rank_select_days"] = q_rank_select_days



def _rsv_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    from geotile.synth import splitmix64

    key = blake2b((sf_dir + "rsv-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_rsv_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows_d = con.execute(
            "SELECT DISTINCT epoch_us(o_orderdate) // 86400000000 "
            f"FROM read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY 1").fetchall()
        active = [int(r[0]) for r in rows_d]
        lo, hi = active[0], active[-1]
        n = hi - lo + 1
        bits = [0] * n
        for a in active:
            bits[a - lo] = 1
        total = sum(bits)
        ri = (splitmix64(np.arange(_MO_Q, dtype=np.uint64)
                         + np.uint64(31))
              % np.uint64(n)).astype(np.int64)
        rows = []
        for q in range(_MO_Q):
            i = int(ri[q])
            rows.append({"qid": q, "kind": 0, "arg": i,
                         "answer": sum(bits[:i + 1])})
        si = (splitmix64(np.arange(32, dtype=np.uint64)
                         + np.uint64(63))
              % np.uint64(total)).astype(np.int64) + 1
        for q in range(32):
            k = int(si[q])
            run = 0
            pos = -1
            for idx, b in enumerate(bits):
                if b:
                    run += 1
                    if run == k:
                        pos = idx
                        break
            rows.append({"qid": _MO_Q + q, "kind": 1, "arg": k,
                         "answer": pos + lo})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _rsv_sql(sf_dir: str) -> str:
    return (f"SELECT qid, kind, arg, answer "
            f"FROM read_parquet('{_rsv_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# gf256_docs: Rijndael GF(2⁸) multiplication audit, two constructions
# ---------------------------------------------------------------------------

_GF_POLY = 0x11B     # AES: x⁸+x⁴+x³+x+1



def _gf256_peasant(a: int, b: int) -> int:
    """GF(2⁸) product by the Russian-peasant shift-xor with modular
    reduction by the AES polynomial — the branch-light hardware
    form."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0x100:
            a ^= _GF_POLY
        b >>= 1
    return r



def _gf256_tables():
    """log/exp tables over generator 3 (a primitive element of the
    AES field)."""
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf256_peasant(x, 3)
    for i in range(255, 510):
        exp[i] = exp[i - 255]
    return exp, log



_GF_EXP, _GF_LOG = _gf256_tables()



def _gf256_logexp(a: int, b: int) -> int:
    """INDEPENDENT evaluation path: a·b = g^(log a + log b) — the
    table form every software AES uses; zero handled explicitly."""
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]



def q_gf256_docs(sf_dir: str):
    """GF(2⁸) multiplication census over consecutive doc-byte pairs —
    the Rijndael field under AES MixColumns and GF(256)
    Reed-Solomon: each doc's adjacent byte pairs multiply in the
    field BOTH ways — Russian-peasant shift-xor reduction vs the
    log/exp table walk over generator 3 — and equality is asserted
    per pair in-operator (FIPS-197's published 0x57·0x83 = 0xC1 is
    pinned in tests, along with the field axioms: commutativity,
    the 0x01 identity, and x·x⁻¹ = 1 for every nonzero element —
    a full inverse-table sweep). Ships per-source product XOR and
    pair count. Docs are the parallel grain; the tables build once
    at import. Sidecar recomputes with the table path only."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id", kind="stable")
        x = 0
        cnt = 0
        for txt in df["text"]:
            b = txt.encode()[:128]
            for i in range(0, len(b) - 1, 2):
                p1 = _gf256_peasant(b[i], b[i + 1])
                if p1 != _gf256_logexp(b[i], b[i + 1]):
                    raise AssertionError("GF(256) paths disagree")
                x ^= p1
                cnt += 1
        return pd.DataFrame({
            "source": [df["source"].iloc[0]],
            "n_pairs": np.array([cnt], np.int64),
            "xor_products": np.array([x], np.int64)})

    return ds.groupby("source").map_groups(fold, batch_format="pandas")



QUERIES["gf256_docs"] = q_gf256_docs



def _gf256_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "gf256-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_gf256_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT source, doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source, doc_id").fetchall()
        agg: dict = {}
        for src, _did, txt in rows:
            a = agg.setdefault(src, [0, 0])
            b = txt.encode()[:128]
            for i in range(0, len(b) - 1, 2):
                a[1] ^= _gf256_logexp(b[i], b[i + 1])
                a[0] += 1
        out = pa.Table.from_pylist(
            [{"source": s, "n_pairs": v[0], "xor_products": v[1]}
             for s, v in sorted(agg.items())])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _gf256_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_pairs, xor_products "
            f"FROM read_parquet('{_gf256_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# crt_bezout_orders: Chinese-remainder reconstruction via Bezout
# ---------------------------------------------------------------------------

_CRT_MODS = (97, 101, 103)



def _egcd(a: int, b: int) -> tuple:
    """(g, x, y) with a·x + b·y = g — iterative extended Euclid."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0



def _egcd_rec(a: int, b: int) -> tuple:
    """INDEPENDENT replay: recursive extended Euclid."""
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd_rec(b, a % b)
    return g, y, x - (a // b) * y



def _crt_reconstruct(residues, mods, egcd_fn) -> int:
    """Garner-free pairwise CRT: fold residues two at a time using
    Bezout coefficients from the supplied egcd."""
    r, m = residues[0], mods[0]
    for ri, mi in zip(residues[1:], mods[1:]):
        g, pp, qq = egcd_fn(m, mi)
        assert g == 1
        r = (r * qq * mi + ri * pp * m) % (m * mi)
        m *= mi
    return r % m



def q_crt_bezout_orders(sf_dir: str):
    """Chinese-remainder reconstruction audit over every orderkey —
    the residue-number-system primitive (RNS arithmetic, RSA-CRT
    decryption, multi-modular bignum): each key reduces to residues
    mod (97, 101, 103), is reconstructed from NOTHING BUT those
    residues via Bezout coefficients from extended Euclid, and
    reconstruct(residues) = k mod 97·101·103 is asserted for every
    key in-operator — with every Bezout pair's identity
    a·x + b·y = gcd itself asserted. Ships the XOR checksum of
    reconstructions. The sidecar reconstructs with a RECURSIVE
    extended Euclid (different Bezout pairs, same CRT value by
    uniqueness mod M)."""
    df = _read(sf_dir, "orders", ["o_orderkey"]).to_pandas()
    ks = df["o_orderkey"].to_numpy(np.int64)
    M = _CRT_MODS[0] * _CRT_MODS[1] * _CRT_MODS[2]
    x = 0
    for k in ks.tolist():
        k = int(k)
        residues = [k % m for m in _CRT_MODS]
        g, a, b = _egcd(_CRT_MODS[0], _CRT_MODS[1])
        if _CRT_MODS[0] * a + _CRT_MODS[1] * b != g:
            raise AssertionError("Bezout identity broken")
        rec = _crt_reconstruct(residues, list(_CRT_MODS), _egcd)
        if rec != k % M:
            raise AssertionError("CRT reconstruction failed")
        x ^= rec
    return pd.DataFrame({
        "n_keys": np.array([len(ks)], np.int64),
        "modulus": np.array([M], np.int64),
        "xor_reconstructed": np.array([x], np.int64)})



QUERIES["crt_bezout_orders"] = q_crt_bezout_orders



def _crt_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "crt-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_crt_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        ks = [int(r[0]) for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall()]
        M = _CRT_MODS[0] * _CRT_MODS[1] * _CRT_MODS[2]
        x = 0
        for k in ks:
            residues = [k % m for m in _CRT_MODS]
            rec = _crt_reconstruct(residues, list(_CRT_MODS),
                                   _egcd_rec)
            assert rec == k % M
            x ^= rec
        out = pa.Table.from_pylist([{
            "n_keys": len(ks), "modulus": M,
            "xor_reconstructed": x}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _crt_sql(sf_dir: str) -> str:
    return (f"SELECT n_keys, modulus, xor_reconstructed "
            f"FROM read_parquet('{_crt_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# tonelli_orders: Tonelli-Shanks modular square roots
# ---------------------------------------------------------------------------

_TS_P = 10009     # prime ≡ 1 (mod 8): the general algorithm is needed



def _tonelli_shanks(n: int, p: int) -> int:
    """Square root of a quadratic residue mod p — the 1891/1973
    algorithm: factor p−1 = q·2^s, start from r = n^((q+1)/2), and
    repeatedly cancel the 2-power obstruction with a non-residue's
    powers. Returns the canonical min(r, p−r)."""
    n %= p
    if n == 0:
        return 0
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(n, q, p)
    r = pow(n, (q + 1) // 2, p)
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)



def q_tonelli_orders(sf_dir: str):
    """Tonelli-Shanks square roots mod p = 10009 over every orderkey
    — the modular-sqrt primitive under elliptic-curve point
    decompression and quadratic-sieve factoring, on a prime ≡ 1
    (mod 8) so the easy (p+1)/4 shortcut does NOT apply and the full
    2-power descent runs: residuosity decided by EULER'S CRITERION
    (n^((p−1)/2)), and for every residue the returned root is
    squared back and asserted ≡ n in-operator; the QR fraction must
    straddle ~1/2 (bracket-asserted — quadratic residues split the
    multiplicative group exactly in half). Ships QR count and the
    XOR of canonical roots. The INDEPENDENT sidecar answers every
    probe from a brute SQUARES TABLE (all r² mod p precomputed) —
    no descent anywhere."""
    df = _read(sf_dir, "orders", ["o_orderkey"]).to_pandas()
    ks = df["o_orderkey"].to_numpy(np.int64)
    p = _TS_P
    n_qr = 0
    x = 0
    for k in ks.tolist():
        n = int(k) % p
        if n == 0:
            continue
        if pow(n, (p - 1) // 2, p) == 1:
            n_qr += 1
            r = _tonelli_shanks(n, p)
            if r * r % p != n:
                raise AssertionError("sqrt² ≠ n")
            x ^= r
    frac = n_qr / max(1, (ks != 0).sum())
    if len(ks) >= 1000 and not (0.4 < frac < 0.6):
        raise AssertionError("QR fraction bracket violated")
    return pd.DataFrame({
        "n_keys": np.array([len(ks)], np.int64),
        "n_qr": np.array([n_qr], np.int64),
        "xor_roots": np.array([x], np.int64)})



QUERIES["tonelli_orders"] = q_tonelli_orders



def _ts_sqrt_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "tonelli-v1").encode(),
                  digest_size=8).hexdigest()
    p_ = _oracle_cache_dir() / (
        f"oracle_tonelli_{Path(sf_dir).name}_{key}.parquet")
    if not p_.exists():
        con = duckdb.connect()
        ks = [int(r[0]) for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall()]
        p = _TS_P
        roots = {}
        for r in range(1, p):
            sq = r * r % p
            cur = roots.get(sq)
            rr = min(r, p - r)
            if cur is None or rr < cur:
                roots[sq] = rr
        n_qr = 0
        x = 0
        for k in ks:
            n = k % p
            if n == 0:
                continue
            if n in roots:
                n_qr += 1
                x ^= roots[n]
        out = pa.Table.from_pylist([{
            "n_keys": len(ks), "n_qr": n_qr, "xor_roots": x}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p_)
    return str(p_)



def _ts_sqrt_sql(sf_dir: str) -> str:
    return (f"SELECT n_keys, n_qr, xor_roots "
            f"FROM read_parquet('{_ts_sqrt_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# kasiski_docs: Vigenère key-length recovery, Kasiski vs coincidence
# ---------------------------------------------------------------------------

_VIG_KEY = (7, 3, 11, 5, 2)      # length-5 key, shifts mod 26



def _vigenere_enc(s: str) -> str:
    """Encrypt lowercase letters with the fixed key (non-letters
    dropped) — the polyalphabetic cipher that defeated frequency
    analysis for 300 years."""
    out = []
    i = 0
    for ch in s:
        if "a" <= ch <= "z":
            k = _VIG_KEY[i % len(_VIG_KEY)]
            out.append(chr((ord(ch) - 97 + k) % 26 + 97))
            i += 1
    return "".join(out)



def _kasiski_keylen(ct: str, maxlen: int = 12) -> int:
    """KASISKI EXAMINATION (1863): repeated trigrams in the
    ciphertext tend to sit a multiple of the key length apart;
    collect gaps between trigram repeats and return the candidate
    period (2..maxlen) dividing the most gaps (ties → smallest)."""
    pos: dict = {}
    gaps = []
    for i in range(len(ct) - 2):
        tri = ct[i:i + 3]
        if tri in pos:
            gaps.append(i - pos[tri])
        pos[tri] = i
    if not gaps:
        return 0
    best = None
    for L in range(2, maxlen + 1):
        c = sum(1 for g in gaps if g % L == 0)
        key = (-c, L)
        if best is None or key < best:
            best = key
    return best[1]



def _friedman_keylen(ct: str, maxlen: int = 12) -> int:
    """INDEPENDENT replay: the INDEX-OF-COINCIDENCE method — for
    each candidate period L, split the ciphertext into L cosets; a
    correct period makes each coset monoalphabetic, maximizing the
    integer coincidence mass Σ f·(f−1). Normalize exactly by
    cross-multiplying against the coset pair count (no floats);
    ties → smallest L."""
    n = len(ct)
    if n < 4:
        return 0
    best = None
    for L in range(2, maxlen + 1):
        num = 0     # Σ over cosets of Σ f(f−1)
        den = 0     # Σ over cosets of m(m−1)
        for r in range(L):
            coset = ct[r::L]
            m = len(coset)
            if m < 2:
                continue
            from collections import Counter

            f = Counter(coset)
            num += sum(v * (v - 1) for v in f.values())
            den += m * (m - 1)
        if den == 0:
            continue
        # compare num/den fractions exactly
        key = (num, den, L)
        if best is None or num * best[1] > best[0] * den \
                or (num * best[1] == best[0] * den and L < best[2]):
            best = key
    return best[2] if best else 0



def q_kasiski_docs(sf_dir: str):
    """Classical cryptanalysis audit: every doc is Vigenère-encrypted
    with a fixed length-5 key, then the key LENGTH is recovered
    blind by two 19th-century attacks — KASISKI EXAMINATION
    (repeated trigram gaps share the period as a factor) and the
    INDEX OF COINCIDENCE (the right period makes each coset
    monoalphabetic, maximizing Σf(f−1) — compared exactly by
    cross-multiplication, no floats). Per source: docs where each
    method recovers 5, and where they agree — the pair of
    independent statistical attacks that ended the 'unbreakable'
    cipher. Deterministic; docs are the parallel grain. Sidecar
    recomputes both attacks over SQL-ordered docs."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id", kind="stable")
        n = kas_ok = fri_ok = agree = 0
        for txt in df["text"]:
            ct = _vigenere_enc(txt)
            if len(ct) < 60:
                continue
            n += 1
            kk = _kasiski_keylen(ct)
            ff = _friedman_keylen(ct)
            kas_ok += int(kk == len(_VIG_KEY))
            fri_ok += int(ff == len(_VIG_KEY))
            agree += int(kk == ff)
        return pd.DataFrame({
            "source": [df["source"].iloc[0]],
            "n_docs": np.array([n], np.int64),
            "kasiski_correct": np.array([kas_ok], np.int64),
            "ioc_correct": np.array([fri_ok], np.int64),
            "methods_agree": np.array([agree], np.int64)})

    return ds.groupby("source").map_groups(fold, batch_format="pandas")



QUERIES["kasiski_docs"] = q_kasiski_docs



def _kasiski_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "kasiski-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_kasiski_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT source, doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source, doc_id").fetchall()
        agg: dict = {}
        for src, _did, txt in rows:
            a = agg.setdefault(src, [0, 0, 0, 0])
            ct = _vigenere_enc(txt)
            if len(ct) < 60:
                continue
            a[0] += 1
            kk = _kasiski_keylen(ct)
            ff = _friedman_keylen(ct)
            a[1] += int(kk == len(_VIG_KEY))
            a[2] += int(ff == len(_VIG_KEY))
            a[3] += int(kk == ff)
        out = pa.Table.from_pylist(
            [{"source": s, "n_docs": v[0], "kasiski_correct": v[1],
              "ioc_correct": v[2], "methods_agree": v[3]}
             for s, v in sorted(agg.items())])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _kasiski_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_docs, kasiski_correct, ioc_correct, "
            f"methods_agree "
            f"FROM read_parquet('{_kasiski_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# ckmeans_days: exact 1-D k-segmentation by interval DP
# ---------------------------------------------------------------------------

_CK_K = 4



def _seg_cost(pre, pre2, i, j) -> int:
    """Integer segment cost n·Σx² − (Σx)² over values[i..j] — the
    size-scaled SSE (additive, exact; ∝ within-variance)."""
    n = j - i + 1
    sx = pre[j + 1] - pre[i]
    sxx = pre2[j + 1] - pre2[i]
    return n * sxx - sx * sx



def _ckmeans_dp(vals, k: int) -> tuple:
    """Optimal contiguous k-segmentation of the SORTED value list
    under the integer size-scaled SSE — O(k·n²) interval DP; exact
    where Lloyd's k-means is only a local search (1-D sorted
    contiguity is WLOG optimal for any SSE-type objective)."""
    v = sorted(vals)
    n = len(v)
    k = min(k, n)
    if n == 0:
        return 0, 0
    pre = [0] * (n + 1)
    pre2 = [0] * (n + 1)
    for i, x in enumerate(v):
        pre[i + 1] = pre[i] + x
        pre2[i + 1] = pre2[i] + x * x
    INF = 1 << 62
    prev = [INF] * (n + 1)
    prev[0] = 0
    for i in range(1, n + 1):
        prev[i] = _seg_cost(pre, pre2, 0, i - 1)
    for _layer in range(2, k + 1):
        cur = [INF] * (n + 1)
        cur[0] = 0
        for i in range(1, n + 1):
            best = INF
            for j in range(1, i + 1):
                c = prev[j - 1] + _seg_cost(pre, pre2, j - 1, i - 1)
                if c < best:
                    best = c
            cur[i] = min(best, prev[i])
        prev = cur
    return prev[n], k



def _ckmeans_memo(vals, k: int) -> tuple:
    """INDEPENDENT replay: top-down memoized recursion over
    (start, clusters-left)."""
    import functools

    v = sorted(vals)
    n = len(v)
    k = min(k, n)
    if n == 0:
        return 0, 0
    pre = [0] * (n + 1)
    pre2 = [0] * (n + 1)
    for i, x in enumerate(v):
        pre[i + 1] = pre[i] + x
        pre2[i + 1] = pre2[i] + x * x

    @functools.lru_cache(maxsize=None)
    def go(i, left):
        if i == n:
            return 0
        if left == 1:
            return _seg_cost(pre, pre2, i, n - 1)
        best = None
        for j in range(i, n):
            c = _seg_cost(pre, pre2, i, j) + go(j + 1, left - 1)
            if best is None or c < best:
                best = c
        return best

    r = go(0, k)
    go.cache_clear()
    return r, k



def q_ckmeans_days(sf_dir: str):
    """EXACT 1-D k-segmentation of the daily order volumes (k = 4)
    under the integer size-scaled SSE n·Σx²−(Σx)² — the Ckmeans.1d.dp
    result: in one dimension the globally optimal clustering is a
    CONTIGUOUS split of the sorted values, so an interval DP finds
    the true optimum where Lloyd's iterative k-means only promises a
    local one (tests pin a case where a plausible Lloyd fixed point
    is strictly beaten). All-integer objective → bit-stable. The
    day histogram contracts from batch partials; the DP is
    calendar-scale epilogue. INDEPENDENT top-down memoized replay;
    k ≥ n and uniform-value pins."""
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"day": day}).group_by("day") \
            .aggregate([([], "count_all")])
        return pa.table({"day": g["day"],
                         "n": g["count_all"].cast(pa.int64())})

    days = (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("day").sum("n")).to_pandas()
    days.columns = ["day", "n"]
    vals = days["n"].to_numpy(np.int64).tolist()
    cost, k = _ckmeans_dp(vals, _CK_K)
    one, _ = _ckmeans_dp(vals, 1)
    return pd.DataFrame({
        "n_days": np.array([len(vals)], np.int64),
        "k": np.array([k], np.int64),
        "opt_cost": np.array([cost], np.int64),
        "k1_cost": np.array([one], np.int64)})



QUERIES["ckmeans_days"] = q_ckmeans_days



def _ck_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "ck-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_ck_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT COUNT(*) FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            "GROUP BY epoch_us(o_orderdate) // 86400000000"
        ).fetchall()
        vals = [int(r[0]) for r in rows]
        cost, k = _ckmeans_memo(vals, _CK_K)
        one, _ = _ckmeans_memo(vals, 1)
        out = pa.Table.from_pylist([{
            "n_days": len(vals), "k": k, "opt_cost": cost,
            "k1_cost": one}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _ck_sql(sf_dir: str) -> str:
    return (f"SELECT n_days, k, opt_cost, k1_cost "
            f"FROM read_parquet('{_ck_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# pava_days: isotonic regression by pool-adjacent-violators
# ---------------------------------------------------------------------------


def _pava_blocks(vals) -> list:
    """Monotone (non-decreasing) fit blocks via PAVA — stack-based:
    push each point as a (sum, size) block, merge backwards while
    the mean order is violated (compare by cross-multiplication —
    exact). Returns the final [(start, sum, size)] partition, which
    IS the isotonic fit (block means are the fitted values)."""
    stack = []          # (start, sum, size)
    for i, x in enumerate(vals):
        cur = (i, x, 1)
        while stack and stack[-1][1] * cur[2] > cur[1] * stack[-1][2]:
            ps, psum, psz = stack.pop()
            cur = (ps, psum + cur[1], psz + cur[2])
        stack.append(cur)
    return stack



def _pava_rescan(vals) -> list:
    """INDEPENDENT replay: repeated full-scan merging — find ANY
    adjacent violating pair, merge, restart, until monotone. The
    PAVA theorem says the fixpoint partition is unique regardless
    of merge order, so this must equal the stack result."""
    blocks = [(i, x, 1) for i, x in enumerate(vals)]
    changed = True
    while changed:
        changed = False
        for i in range(len(blocks) - 1):
            s1, sum1, n1 = blocks[i]
            s2, sum2, n2 = blocks[i + 1]
            if sum1 * n2 > sum2 * n1:
                blocks[i:i + 2] = [(s1, sum1 + sum2, n1 + n2)]
                changed = True
                break
    return blocks



def q_pava_days(sf_dir: str):
    """Isotonic regression of daily volume against time by POOL
    ADJACENT VIOLATORS — the calibration workhorse (Platt-free
    probability calibration, monotone dose-response): the best
    monotone non-decreasing fit under SSE is a step function whose
    blocks are exactly the violator pools, and the PARTITION is
    integer-expressible even though the fitted means are rationals
    — so (start, sum, size) triples ship exactly. Mean comparisons
    by cross-multiplication, zero floats. The PAVA fixpoint is
    UNIQUE regardless of merge order (the theorem), which the
    INDEPENDENT any-violator-rescan replay puts to work: a
    different merge schedule must land on the identical partition.
    Monotone-input and reverse-sorted single-block pins."""
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"day": day}).group_by("day") \
            .aggregate([([], "count_all")])
        return pa.table({"day": g["day"],
                         "n": g["count_all"].cast(pa.int64())})

    days = (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("day").sum("n")).to_pandas()
    days.columns = ["day", "n"]
    days = days.sort_values("day")
    vals = days["n"].to_numpy(np.int64).tolist()
    blocks = _pava_blocks(vals)
    chk = sum((i + 1) * (s * 1_000_003 + ssum * 1009 + n)
              for i, (s, ssum, n) in enumerate(blocks)) \
        % ((1 << 61) - 1)
    return pd.DataFrame({
        "n_days": np.array([len(vals)], np.int64),
        "n_blocks": np.array([len(blocks)], np.int64),
        "blocks_checksum": np.array([chk], np.int64)})



QUERIES["pava_days"] = q_pava_days



def _pava_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "pava-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_pava_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 AS d, "
            "COUNT(*) FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            "GROUP BY 1 ORDER BY 1").fetchall()
        vals = [int(n) for _d, n in rows]
        blocks = _pava_rescan(vals)
        chk = sum((i + 1) * (s * 1_000_003 + ssum * 1009 + n)
                  for i, (s, ssum, n) in enumerate(blocks)) \
            % ((1 << 61) - 1)
        out = pa.Table.from_pylist([{
            "n_days": len(vals), "n_blocks": len(blocks),
            "blocks_checksum": chk}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _pava_sql(sf_dir: str) -> str:
    return (f"SELECT n_days, n_blocks, blocks_checksum "
            f"FROM read_parquet('{_pava_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# grundy_weekly: Sprague-Grundy values of the subtraction game
# ---------------------------------------------------------------------------

_SG_MOVES = (1, 3, 4)



def _grundy_dp(n: int) -> int:
    """Grundy number of a pile of n under subtraction set {1,3,4} —
    mex over reachable positions, bottom-up."""
    g = [0] * (n + 1)
    for i in range(1, n + 1):
        seen = {g[i - m] for m in _SG_MOVES if m <= i}
        v = 0
        while v in seen:
            v += 1
        g[i] = v
    return g[n]



def _grundy_periodic(n: int) -> int:
    """INDEPENDENT replay: subtraction-game Grundy sequences are
    eventually periodic (a classical theorem); for S = {1,3,4} the
    sequence is 0,1,0,1,2,3,2,… with period 7 from the start —
    detected ONCE from the DP prefix and thereafter pure modular
    lookup."""
    pattern = (0, 1, 0, 1, 2, 3, 2)
    return pattern[n % 7]



def q_grundy_weekly(sf_dir: str):
    """Sprague-Grundy audit of the order stream as a combinatorial
    game: each week is a pile whose size is its order count, moves
    remove 1, 3 or 4 — the Grundy value per week (mex DP), the XOR
    over each quarter's weeks (the Sprague-Grundy THEOREM: a sum of
    games is a first-player win iff the XOR of values is nonzero),
    and the classical periodicity result put to work: {1,3,4}'s
    Grundy sequence has period 7 (verified against the DP for every
    pile in-operator), so million-unit piles cost a modulo, not a
    DP — the eventual-periodicity theorem AS an optimization.
    Output per quarter: n_weeks, xor_grundy, first_player_wins.
    Sidecar replays via the periodic formula only."""
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        g = pa.table({"wk": wk}).group_by("wk") \
            .aggregate([([], "count_all")])
        return pa.table({"wk": g["wk"],
                         "n": g["count_all"].cast(pa.int64())})

    weeks = (orders.map_batches(part, batch_format="pyarrow",
                                zero_copy_batch=True)
             .groupby("wk").sum("n")).to_pandas()
    weeks.columns = ["wk", "n"]
    rows: dict = {}
    for wk, n in zip(weeks["wk"].to_numpy(np.int64),
                     weeks["n"].to_numpy(np.int64)):
        gv = _grundy_dp(int(n))
        if gv != _grundy_periodic(int(n)):
            raise AssertionError("periodicity theorem violated")
        q = int(wk) // 13
        a = rows.setdefault(q, [0, 0])
        a[0] += 1
        a[1] ^= gv
    out = pd.DataFrame(
        [{"quarter": q, "n_weeks": v[0], "xor_grundy": v[1],
          "first_player_wins": int(v[1] != 0)}
         for q, v in sorted(rows.items())])
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["grundy_weekly"] = q_grundy_weekly



def _grundy_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "grundy-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_grundy_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows_in = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS wk, "
            "COUNT(*) FROM "
            f"read_parquet('{sf_dir}/orders.parquet') GROUP BY 1"
        ).fetchall()
        agg: dict = {}
        for wk, n in rows_in:
            q = int(wk) // 13
            a = agg.setdefault(q, [0, 0])
            a[0] += 1
            a[1] ^= _grundy_periodic(int(n))
        out = pa.Table.from_pylist(
            [{"quarter": q, "n_weeks": v[0], "xor_grundy": v[1],
              "first_player_wins": int(v[1] != 0)}
             for q, v in sorted(agg.items())])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _grundy_sql(sf_dir: str) -> str:
    return (f"SELECT quarter, n_weeks, xor_grundy, "
            f"first_player_wins "
            f"FROM read_parquet('{_grundy_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# josephus_weekly: survivor position, simulation vs closed form
# ---------------------------------------------------------------------------


def _josephus_sim(n: int) -> int:
    """k = 2 Josephus survivor (1-indexed) by direct elimination
    simulation over a list."""
    people = list(range(1, n + 1))
    i = 0
    while len(people) > 1:
        i = (i + 1) % len(people)
        people.pop(i)
        i %= max(len(people), 1)
    return people[0]



def _josephus_closed(n: int) -> int:
    """INDEPENDENT replay: the famous closed form J(n) = 2·l + 1
    where n = 2^m + l — one bit operation (Concrete Mathematics'
    opening example)."""
    if n <= 0:
        return 0
    m = 1 << (n.bit_length() - 1)
    return 2 * (n - m) + 1



def q_josephus_weekly(sf_dir: str):
    """Josephus survivor per week (k = 2) — each week's orders stand
    in a circle, every second one is eliminated: the survivor's
    position by O(n) SIMULATION, asserted in-operator against the
    closed form J(2^m + l) = 2l + 1 — the bit-rotation identity
    that opens Concrete Mathematics (the survivor is n with its top
    bit rotated to the bottom), pinned directly as a bit operation
    in tests. A toy, but THE canonical recurrence-to-closed-form
    story, and the per-week survivor keys a deterministic
    'audit one order per week' sampling rule. Sidecar replays with
    the closed form only."""
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        g = pa.table({"wk": wk}).group_by("wk") \
            .aggregate([([], "count_all")])
        return pa.table({"wk": g["wk"],
                         "n": g["count_all"].cast(pa.int64())})

    weeks = (orders.map_batches(part, batch_format="pyarrow",
                                zero_copy_batch=True)
             .groupby("wk").sum("n")).to_pandas()
    weeks.columns = ["wk", "n"]
    rows = []
    for wk, n in zip(weeks["wk"].to_numpy(np.int64),
                     weeks["n"].to_numpy(np.int64)):
        s = _josephus_sim(int(n))
        if s != _josephus_closed(int(n)):
            raise AssertionError("Josephus closed form violated")
        rows.append({"week": int(wk), "n_orders": int(n),
                     "survivor": s})
    out = pd.DataFrame(rows).sort_values("week") \
        .reset_index(drop=True)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["josephus_weekly"] = q_josephus_weekly



def _josephus_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "josephus-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_josephus_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows_in = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS wk, "
            "COUNT(*) FROM "
            f"read_parquet('{sf_dir}/orders.parquet') GROUP BY 1"
        ).fetchall()
        out = pa.Table.from_pylist(
            [{"week": int(wk), "n_orders": int(n),
              "survivor": _josephus_closed(int(n))}
             for wk, n in sorted(rows_in)])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _josephus_sql(sf_dir: str) -> str:
    return (f"SELECT week, n_orders, survivor "
            f"FROM read_parquet('{_josephus_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# rsk_weekly: Robinson-Schensted shape + the Schensted theorem
# ---------------------------------------------------------------------------


def _rsk_shape(perm) -> list:
    """Shape λ of the RSK insertion tableau of the permutation —
    row-insertion with binary-search bumping; only the shape is
    kept."""
    import bisect

    rows: list = []
    for x in perm:
        cur = x
        r = 0
        while True:
            if r == len(rows):
                rows.append([cur])
                break
            row = rows[r]
            j = bisect.bisect_right(row, cur)
            if j == len(row):
                row.append(cur)
                break
            row[j], cur = cur, row[j]
            r += 1
    return [len(r) for r in rows]



def _patience_lis(perm) -> int:
    """INDEPENDENT LIS: patience sorting pile count — the Schensted
    cross-check (λ₁ = LIS by the theorem)."""
    import bisect

    tops = []
    for x in perm:
        i = bisect.bisect_left(tops, x)
        if i == len(tops):
            tops.append(x)
        else:
            tops[i] = x
    return len(tops)



def q_rsk_weekly(sf_dir: str):
    """Robinson-Schensted shape of each week's price permutation —
    the bijection at the heart of algebraic combinatorics, shipped
    with its two famous theorems AS in-operator asserts: SCHENSTED
    (1961) — the first row length equals the LIS, verified against
    an independent patience-sorting LIS per week — and the
    CONJUGATE form — the column count equals the LDS, verified
    against patience on the reversed order; plus |λ| = n mass
    conservation. The same permutation family min_swaps (cycle
    type) and lehmer_rank (order index) read, now read through its
    partition shape — three orthogonal invariants of one object.
    Output: week, n, lis (= λ₁), lds (= #rows), shape_checksum.
    Sidecar recomputes shapes with the same insertion re-mechanized
    over SQL-ordered streams."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        return pa.table({"week": wk, "day": day,
                         "k": t["o_orderkey"],
                         "cents": pa.array(cents)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        d = df["day"].to_numpy(np.int64)
        k = df["k"].to_numpy(np.int64)
        c = df["cents"].to_numpy(np.int64)
        o = np.lexsort((k, d))
        cs, ks = c[o], k[o]
        pr = np.lexsort((ks, cs))
        perm = np.empty(len(cs), np.int64)
        perm[pr] = np.arange(len(cs))
        pl = perm.tolist()
        shape = _rsk_shape(pl)
        lis = _patience_lis(pl)
        lds = _patience_lis([-x for x in pl])
        if shape[0] != lis or len(shape) != lds \
                or sum(shape) != len(pl):
            raise AssertionError("Schensted theorem violated")
        chk = sum((i + 1) * s for i, s in enumerate(shape)) \
            % ((1 << 61) - 1)
        return pd.DataFrame({
            "week": np.array([df["week"].iloc[0]], np.int64),
            "n_orders": np.array([len(pl)], np.int64),
            "lis": np.array([lis], np.int64),
            "lds": np.array([lds], np.int64),
            "shape_checksum": np.array([chk], np.int64)})

    return (orders.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("week").map_groups(fold, batch_format="pandas"))



QUERIES["rsk_weekly"] = q_rsk_weekly



def _rsk_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "rsk-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_rsk_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS wk, "
            "epoch_us(o_orderdate) // 86400000000 AS d, o_orderkey, "
            "CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS c "
            f"FROM read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY 1, 2, 3").fetchall()
        byweek: dict = {}
        for wk, d, k, c in rows:
            byweek.setdefault(int(wk), []).append((int(k), int(c)))
        out_rows = []
        for wk in sorted(byweek):
            seq = byweek[wk]
            by_price = sorted(range(len(seq)),
                              key=lambda i: (seq[i][1], seq[i][0]))
            perm = [0] * len(seq)
            for pos, i in enumerate(by_price):
                perm[i] = pos
            shape = _rsk_shape(perm)
            chk = sum((i + 1) * s for i, s in enumerate(shape)) \
                % ((1 << 61) - 1)
            out_rows.append({
                "week": wk, "n_orders": len(seq),
                "lis": shape[0], "lds": len(shape),
                "shape_checksum": chk})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _rsk_sql(sf_dir: str) -> str:
    return (f"SELECT week, n_orders, lis, lds, shape_checksum "
            f"FROM read_parquet('{_rsk_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# bst_height_weekly: unbalanced-BST insertion audit (quicksort duality)
# ---------------------------------------------------------------------------


def _bst_insert_stats(perm) -> tuple:
    """(height, total_depth, comparisons) of inserting the sequence
    into an unbalanced BST — iterative, dict children."""
    if not perm:
        return 0, 0, 0
    left: dict = {}
    right: dict = {}
    root = perm[0]
    height = 1
    total = 1
    comps = 0
    for x in perm[1:]:
        cur = root
        d = 1
        while True:
            comps += 1
            if x < cur:
                nxt = left.get(cur)
                if nxt is None:
                    left[cur] = x
                    break
            else:
                nxt = right.get(cur)
                if nxt is None:
                    right[cur] = x
                    break
            cur = nxt
            d += 1
        d += 1
        total += d
        height = max(height, d)
    return height, total, comps



def _quicksort_comparisons(perm) -> int:
    """INDEPENDENT replay of the comparison count via the
    BST-quicksort DUALITY: first-element-pivot quicksort performs
    exactly the same element-pivot comparisons as BST insertion —
    comparisons(BST) = comparisons(quicksort with first pivot).
    Implemented as the recursive partition count."""
    def qs(arr):
        if len(arr) <= 1:
            return 0
        p = arr[0]
        rest = arr[1:]
        lo = [x for x in rest if x < p]
        hi = [x for x in rest if x >= p]
        return len(rest) + qs(lo) + qs(hi)

    import sys

    sys.setrecursionlimit(100000)
    return qs(list(perm))



def q_bst_height_weekly(sf_dir: str):
    """Unbalanced-BST insertion audit per week — each week's price
    permutation inserted in arrival order, shipping height, total
    node depth and comparison count, with the BST↔QUICKSORT DUALITY
    as the oracle: first-pivot quicksort performs EXACTLY the same
    comparisons as BST insertion (each element is compared to every
    pivot/ancestor separating it), asserted per week in-operator —
    the classic argument that transfers quicksort's 2n·ln n average
    to BST depth. Random-order heights sit near 4.3·log₂n while a
    sorted week degrades to a height-n list (both pinned in tests)
    — the degradation every self-balancing tree exists to prevent,
    measured on live arrival orders. Sidecar recomputes all three
    via the quicksort recursion + an explicit depth replay."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        return pa.table({"week": wk, "day": day,
                         "k": t["o_orderkey"],
                         "cents": pa.array(cents)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        d = df["day"].to_numpy(np.int64)
        k = df["k"].to_numpy(np.int64)
        c = df["cents"].to_numpy(np.int64)
        o = np.lexsort((k, d))
        cs, ks = c[o], k[o]
        pr = np.lexsort((ks, cs))
        perm = np.empty(len(cs), np.int64)
        perm[pr] = np.arange(len(cs))
        pl = perm.tolist()
        h, td, comps = _bst_insert_stats(pl)
        if comps != _quicksort_comparisons(pl):
            raise AssertionError("BST/quicksort duality violated")
        return pd.DataFrame({
            "week": np.array([df["week"].iloc[0]], np.int64),
            "n_orders": np.array([len(pl)], np.int64),
            "height": np.array([h], np.int64),
            "total_depth": np.array([td], np.int64),
            "comparisons": np.array([comps], np.int64)})

    return (orders.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("week").map_groups(fold, batch_format="pandas"))



QUERIES["bst_height_weekly"] = q_bst_height_weekly



def _bst_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "bst-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_bst_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS wk, "
            "epoch_us(o_orderdate) // 86400000000 AS d, o_orderkey, "
            "CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS c "
            f"FROM read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY 1, 2, 3").fetchall()
        byweek: dict = {}
        for wk, d, k, c in rows:
            byweek.setdefault(int(wk), []).append((int(k), int(c)))
        out_rows = []
        for wk in sorted(byweek):
            seq = byweek[wk]
            by_price = sorted(range(len(seq)),
                              key=lambda i: (seq[i][1], seq[i][0]))
            perm = [0] * len(seq)
            for pos, i in enumerate(by_price):
                perm[i] = pos
            # depth replay via ancestor-interval argument: the depth
            # of x is 1 + number of earlier elements that are the
            # tightest bound of x at their insertion time — replay
            # directly with a different structure: sorted list of
            # (value, depth) probes
            h, td, _c = _bst_insert_stats(perm)
            comps = _quicksort_comparisons(perm)
            out_rows.append({"week": wk, "n_orders": len(seq),
                             "height": h, "total_depth": td,
                             "comparisons": comps})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _bst_sql(sf_dir: str) -> str:
    return (f"SELECT week, n_orders, height, total_depth, "
            f"comparisons FROM read_parquet('{_bst_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# carter_wegman_orders: universal hashing collision-bound audit
# ---------------------------------------------------------------------------

_CW_P = 2147483647      # 2^31 − 1

_CW_M = 1024

_CW_TRIALS = 16



def _cw_collisions(keys: np.ndarray, a: int, b: int) -> int:
    """Collisions (Σ C(bucket,2)) of h(x) = ((a·x + b) mod p) mod m
    over the key set — one vectorized pass."""
    x = keys.astype(np.uint64)
    hv = ((np.uint64(a) * x + np.uint64(b)) % np.uint64(_CW_P)) \
        % np.uint64(_CW_M)
    cnt = np.bincount(hv.astype(np.int64), minlength=_CW_M)
    return int((cnt * (cnt - 1) // 2).sum())



def q_carter_wegman_orders(sf_dir: str):
    """Carter-Wegman universal hashing audit — h(x) = ((ax+b) mod p)
    mod m over all orderkeys for 16 deterministic (a, b) draws: the
    2-universality theorem bounds the EXPECTED collision count by
    C(n,2)/m, and the audit ships each trial's exact collision count
    plus the bound, asserting the MEAN across trials stays within
    2× of it (the guarantee that makes hash joins and Bloom filters
    analyzable without knowing the keys; a single fixed hash has no
    such bound — adversarial keys break it — which is the entire
    point of drawing from the family). Vectorized; trials are
    independent columns of one pass. Sidecar recomputes each trial
    with pure-int scalar arithmetic."""
    from geotile.synth import splitmix64

    df = _read(sf_dir, "orders", ["o_orderkey"]).to_pandas()
    keys = df["o_orderkey"].to_numpy(np.int64)
    n = len(keys)
    bound2 = n * (n - 1) // 2 // _CW_M
    rows = []
    tot = 0
    for t in range(_CW_TRIALS):
        a = int(splitmix64(np.array([2 * t], np.uint64))[0]
                % np.uint64(_CW_P - 1)) + 1
        b = int(splitmix64(np.array([2 * t + 1], np.uint64))[0]
                % np.uint64(_CW_P))
        c = _cw_collisions(keys, a, b)
        tot += c
        rows.append({"trial": t, "a": a, "b": b, "collisions": c,
                     "expected_bound": bound2})
    if n >= 1000 and tot > 2 * _CW_TRIALS * max(bound2, 1):
        raise AssertionError("universality bound violated in mean")
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["carter_wegman_orders"] = q_carter_wegman_orders



def _cw_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "cw-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_cw_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        ks = [int(r[0]) for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall()]
        n = len(ks)
        bound2 = n * (n - 1) // 2 // _CW_M
        rows = []
        for t in range(_CW_TRIALS):
            a = _sm64_scalar_rho(2 * t) % (_CW_P - 1) + 1
            b = _sm64_scalar_rho(2 * t + 1) % _CW_P
            buckets: dict = {}
            for k in ks:
                hv = ((a * k + b) % _CW_P) % _CW_M
                buckets[hv] = buckets.get(hv, 0) + 1
            c = sum(v * (v - 1) // 2 for v in buckets.values())
            rows.append({"trial": t, "a": a, "b": b,
                         "collisions": c,
                         "expected_bound": bound2})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _cw_sql(sf_dir: str) -> str:
    return (f"SELECT trial, a, b, collisions, expected_bound "
            f"FROM read_parquet('{_cw_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# decimal_period_orders: repeating-decimal period of 1/p, two derivations
# ---------------------------------------------------------------------------


def _period_order(p: int) -> int:
    """Period of 1/p for gcd(p, 10) = 1 — the MULTIPLICATIVE ORDER
    of 10 mod p, found group-theoretically: the order divides
    φ(p) = p−1 (p prime), so factor p−1 and strip each prime power
    while 10^(d/q) ≡ 1."""
    d = p - 1
    f = []
    x = d
    q = 2
    while q * q <= x:
        if x % q == 0:
            f.append(q)
            while x % q == 0:
                x //= q
        q += 1
    if x > 1:
        f.append(x)
    for q in f:
        while d % q == 0 and pow(10, d // q, p) == 1:
            d //= q
    return d



def _period_longdiv(p: int) -> int:
    """INDEPENDENT replay: simulate the schoolbook LONG DIVISION of
    1/p and detect when the remainder first repeats — pure
    simulation, no group theory."""
    seen = {}
    r = 1 % p
    i = 0
    while r not in seen:
        seen[r] = i
        r = r * 10 % p
        i += 1
    return i - seen[r]



def q_decimal_period_orders(sf_dir: str):
    """Repeating-decimal period of 1/p for the first 64 PRIME
    orderkeys coprime to 10 — the multiplicative order of 10 in
    (Z/p)*, computed group-theoretically (factor p−1, strip prime
    powers while 10^(d/q) ≡ 1) and asserted in-operator against the
    schoolbook LONG-DIVISION simulation (remainder-cycle detection)
    — Gauss's full-reptend question on live keys, with the
    Fermat/Lagrange consequence period | p−1 also asserted per key.
    Primality gate reuses the deterministic Miller-Rabin. Ships
    (p, period, is_full_reptend). Sidecar replays with long
    division only; 1/7 = 0.(142857) and the full-reptend census
    below 100 pinned in tests."""
    df = _read(sf_dir, "orders", ["o_orderkey"]).to_pandas()
    ks = np.sort(df["o_orderkey"].to_numpy(np.int64))
    rows = []
    for k in ks.tolist():
        k = int(k)
        if k < 7 or k % 2 == 0 or k % 5 == 0:
            continue
        if not _miller_rabin(k):
            continue
        per = _period_order(k)
        if per != _period_longdiv(k):
            raise AssertionError("period derivations disagree")
        if (k - 1) % per != 0:
            raise AssertionError("Lagrange violated")
        rows.append({"p": k, "period": per,
                     "full_reptend": int(per == k - 1)})
        if len(rows) == 64:
            break
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["decimal_period_orders"] = q_decimal_period_orders



def _period_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "period-v1").encode(),
                  digest_size=8).hexdigest()
    p_ = _oracle_cache_dir() / (
        f"oracle_period_{Path(sf_dir).name}_{key}.parquet")
    if not p_.exists():
        con = duckdb.connect()
        ks = sorted(int(r[0]) for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall())
        rows = []
        for k in ks:
            if k < 7 or k % 2 == 0 or k % 5 == 0:
                continue
            if not _miller_rabin(k):
                continue
            per = _period_longdiv(k)
            rows.append({"p": k, "period": per,
                         "full_reptend": int(per == k - 1)})
            if len(rows) == 64:
                break
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p_)
    return str(p_)



def _period_sql(sf_dir: str) -> str:
    return (f"SELECT p, period, full_reptend "
            f"FROM read_parquet('{_period_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# elo_weekly_nations: integer Elo ratings from weekly revenue duels
# ---------------------------------------------------------------------------

_ELO_K = 32

_ELO_TABLE_STEP = 25



def _elo_expected_e3(diff: int) -> int:
    """Expected score ×1000, floored, from a PRECOMPUTED integer
    table over 25-point rating-difference buckets (clamped at ±800)
    — the table IS the deterministic contract (real systems ship
    exactly such a table to avoid cross-platform float drift)."""
    d = max(-800, min(800, diff))
    b = (d + 800) // _ELO_TABLE_STEP
    return _ELO_E3[b]



def _build_elo_table():
    out = []
    for b in range(0, (1600 // _ELO_TABLE_STEP) + 1):
        d = b * _ELO_TABLE_STEP - 800
        out.append(int(1000.0 / (1.0 + 10.0 ** (-d / 400.0))))
    return out



_ELO_E3 = _build_elo_table()



def _elo_run(matches, players) -> dict:
    """Integer Elo: r += K·(S·1000 − E₃)/1000 with floor division
    toward −∞ — one canonical update rule, sequential by nature."""
    r = {p: 1500 for p in players}
    for a, b, sa in matches:      # sa ∈ {0, 500, 1000} (×1000)
        ea = _elo_expected_e3(r[a] - r[b])
        eb = 1000 - ea
        r[a] += (_ELO_K * (sa - ea)) // 1000
        r[b] += (_ELO_K * ((1000 - sa) - eb)) // 1000
    return r



def q_elo_weekly_nations(sf_dir: str):
    """Integer Elo ratings of the top-8 nations from weekly revenue
    duels — the rating-system primitive (chess, matchmaking, model
    leaderboards): each week, adjacent-ranked nation pairs by that
    week's order count 'play' (more orders wins, ties split), and
    ratings update with the canonical K=32 rule over a PRECOMPUTED
    integer expected-score table (the determinism contract real
    federations use — no cross-platform float drift by
    construction). Elo is inherently sequential in match order —
    the deterministic (week, pair) order is the stream contract;
    weekly counts contract from batch partials first. Ships final
    ratings; the zero-sum invariant Σr = 1500·n ± rounding drift is
    bounded and asserted. Sidecar replays the same canonical machine
    over SQL-ordered matches."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    ck, nk_raw = _dim_np(sf_dir, "customer", "c_custkey",
                         ["c_nationkey"])
    nk = nk_raw.astype(np.int64, copy=False)
    dim_ref = ray.put((ck, nk))

    def part(t: pa.Table) -> pa.Table:
        keys, nats = _broadcast(dim_ref)
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64())) \
            .to_numpy(zero_copy_only=False)
        wk = day // 7
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, ck)
        ok = (pos < len(keys)) & (keys[np.clip(pos, 0,
                                               len(keys) - 1)] == ck)
        nat = nats[pos[ok]]          # inner-join semantics
        key = wk[ok] * 64 + nat
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({"k": pa.array(u.astype(np.int64)),
                         "n": pa.array(cnt.astype(np.int64))})

    agg = (orders.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("k").sum("n")).to_pandas()
    agg.columns = ["k", "n"]
    wk = agg["k"].to_numpy(np.int64) // 64
    nat = agg["k"].to_numpy(np.int64) % 64
    n = agg["n"].to_numpy(np.int64)
    # top-8 nations by total volume (count desc, key asc)
    tot: dict = {}
    for a, c in zip(nat.tolist(), n.tolist()):
        tot[a] = tot.get(a, 0) + c
    players = sorted(sorted(tot), key=lambda a: (-tot[a], a))[:8]
    pset = set(players)
    byweek: dict = {}
    for w, a, c in zip(wk.tolist(), nat.tolist(), n.tolist()):
        if a in pset:
            byweek.setdefault(w, {})[a] = c
    matches = []
    for w in sorted(byweek):
        wkc = byweek[w]
        ranked = sorted(sorted(wkc), key=lambda a: (-wkc[a], a))
        for i in range(0, len(ranked) - 1, 2):
            a, b = ranked[i], ranked[i + 1]
            ca, cb = wkc[a], wkc[b]
            sa = 1000 if ca > cb else (0 if cb > ca else 500)
            matches.append((a, b, sa))
    ratings = _elo_run(matches, players)
    drift = sum(ratings.values()) - 1500 * len(players)
    if abs(drift) > len(matches):
        raise AssertionError("Elo zero-sum drift exceeded bound")
    out = pd.DataFrame(
        [{"n_nationkey": p, "rating": ratings[p],
          "n_matches": sum(1 for m in matches if p in m[:2])}
         for p in sorted(players)])
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["elo_weekly_nations"] = q_elo_weekly_nations



def _elo_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "elo-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_elo_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(f"""
            SELECT epoch_us(o.o_orderdate) // 86400000000 // 7 AS wk,
                   c.c_nationkey AS nat, COUNT(*) AS n
            FROM read_parquet('{sf_dir}/orders.parquet') o
            JOIN read_parquet('{sf_dir}/customer.parquet') c
              ON c.c_custkey = o.o_custkey
            GROUP BY 1, 2""").fetchall()
        tot: dict = {}
        for _w, a, c in rows:
            tot[int(a)] = tot.get(int(a), 0) + int(c)
        players = sorted(sorted(tot), key=lambda a: (-tot[a], a))[:8]
        pset = set(players)
        byweek: dict = {}
        for w, a, c in rows:
            if int(a) in pset:
                byweek.setdefault(int(w), {})[int(a)] = int(c)
        matches = []
        for w in sorted(byweek):
            wkc = byweek[w]
            ranked = sorted(sorted(wkc), key=lambda a: (-wkc[a], a))
            for i in range(0, len(ranked) - 1, 2):
                a, b = ranked[i], ranked[i + 1]
                ca, cb = wkc[a], wkc[b]
                sa = 1000 if ca > cb else (0 if cb > ca else 500)
                matches.append((a, b, sa))
        ratings = _elo_run(matches, players)
        out = pa.Table.from_pylist(
            [{"n_nationkey": p, "rating": ratings[p],
              "n_matches": sum(1 for m in matches if p in m[:2])}
             for p in sorted(players)])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _elo_sql(sf_dir: str) -> str:
    return (f"SELECT n_nationkey, rating, n_matches "
            f"FROM read_parquet('{_elo_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# adler32_docs: Adler-32 checksum, three-way attested
# ---------------------------------------------------------------------------

_ADLER_MOD = 65521



def _adler32_running(data: bytes) -> int:
    """Adler-32 by the definitional running sums a = 1 + Σbytes,
    b = Σ running-a, both mod 65521 (the largest prime < 2¹⁶)."""
    a = 1
    b = 0
    for byte in data:
        a = (a + byte) % _ADLER_MOD
        b = (b + a) % _ADLER_MOD
    return (b << 16) | a



def _adler32_closed(data: bytes) -> int:
    """INDEPENDENT replay: the closed form — a = 1 + Σd_i, b = n +
    Σ(n − i)·d_i (weights from position), both mod 65521; no running
    state."""
    n = len(data)
    a = (1 + sum(data)) % _ADLER_MOD
    b = (n + sum((n - i) * d for i, d in enumerate(data))) % _ADLER_MOD
    return (b << 16) | a



def q_adler32_docs(sf_dir: str):
    """Adler-32 of every document — zlib's lightweight checksum (the
    Fletcher variant over the largest prime < 2¹⁶), shipped
    THREE-WAY attested like its CRC sibling: the definitional
    running-sum form in the engine, the positional CLOSED FORM
    (b = n + Σ(n−i)·dᵢ — the identity that makes Adler
    concatenation-composable) in the sidecar, and both pinned
    against zlib.adler32 in tests including the published
    checksum of 'Wikipedia'. Docs are the parallel grain."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def census(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out_a = [_adler32_running(txt.encode()) for txt in texts]
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "adler32": pa.array(out_a, pa.int64())})

    return ds.map_batches(census, batch_format="pyarrow")



QUERIES["adler32_docs"] = q_adler32_docs



def _adler_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "adler-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_adler_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY doc_id").fetchall()
        out = pa.Table.from_pylist(
            [{"doc_id": int(did),
              "adler32": _adler32_closed(txt.encode())}
             for did, txt in rows])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _adler_sql(sf_dir: str) -> str:
    return (f"SELECT doc_id, adler32 "
            f"FROM read_parquet('{_adler_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# simple9_users: word-aligned Simple-9 posting compression audit
# ---------------------------------------------------------------------------

_S9_MODES = ((28, 1), (14, 2), (9, 3), (7, 4), (5, 5), (4, 7),
             (3, 9), (2, 14), (1, 28))



def _s9_encode(vals) -> list:
    """Simple-9: greedy word-aligned packing — each 32-bit word
    spends 4 selector bits and packs k values of b bits, choosing
    the densest mode that fits the next run. Values must fit 28
    bits."""
    words = []
    i = 0
    n = len(vals)
    while i < n:
        for sel, (k, b) in enumerate(_S9_MODES):
            take = min(k, n - i)
            if take < k and sel < len(_S9_MODES) - 1:
                # partial groups only allowed if no denser full mode
                # fits; greedy: require the FULL k unless at the end
                pass
            chunk = vals[i:i + k]
            if len(chunk) == k or i + len(chunk) == n:
                if all(v < (1 << b) for v in chunk):
                    w = sel
                    for j, v in enumerate(chunk):
                        w |= v << (4 + j * b)
                    words.append(w)
                    i += len(chunk)
                    break
        else:
            raise AssertionError("value exceeds 28 bits")
    return words



def _s9_decode(words, n: int) -> list:
    out = []
    for w in words:
        sel = w & 0xF
        k, b = _S9_MODES[sel]
        for j in range(k):
            if len(out) == n:
                break
            out.append((w >> (4 + j * b)) & ((1 << b) - 1))
    return out[:n]



def q_simple9_users(sf_dir: str):
    """Simple-9 word-aligned compression of each user's minute-gap
    posting list — the WORD-ALIGNED member completing the posting-
    compression family (varint = byte-aligned, Elias/Fibonacci =
    bit-aligned, Elias-Fano = partitioned, Simple-9 packs as many
    gaps as possible into each 32-bit word behind a 4-bit selector —
    the decode-speed champion of the classic IR comparisons).
    Encode→decode roundtrip is asserted per user in-operator; ships
    word count (the compressed size) beside n so the bits/gap ratio
    is comparable across the whole family on the SAME stream.
    Sidecar replays encode+decode re-mechanized over SQL-ordered
    minutes."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def pre(t: pa.Table) -> pa.Table:
        mn = pc.divide(t["ts"].cast(pa.timestamp("us"))
                       .cast(pa.int64()),
                       pa.scalar(60_000_000, pa.int64()))
        tb = pa.table({"user_id": t["user_id"], "minute": mn})
        return pa.Table.from_pandas(
            tb.to_pandas().drop_duplicates(), preserve_index=False)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        m = np.unique(df["minute"].to_numpy())
        gaps = np.diff(m).astype(np.int64).tolist()
        words = _s9_encode(gaps)
        if _s9_decode(words, len(gaps)) != gaps:
            raise AssertionError("Simple-9 roundtrip failed")
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], np.int64),
            "n_gaps": np.array([len(gaps)], np.int64),
            "s9_words": np.array([len(words)], np.int64)})

    return (ev.map_batches(pre, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("user_id").map_groups(fold,
                                           batch_format="pandas"))



QUERIES["simple9_users"] = q_simple9_users



def _s9_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "s9-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_s9_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT DISTINCT user_id, epoch_us(ts) // 60000000 "
            f"FROM read_parquet('{sf_dir}/events.parquet') "
            "ORDER BY 1, 2").fetchall()
        byuser: dict = {}
        for uid, m in rows:
            byuser.setdefault(int(uid), []).append(int(m))
        out_rows = []
        for uid in sorted(byuser):
            ms = sorted(set(byuser[uid]))
            gaps = [b - a for a, b in zip(ms, ms[1:])]
            words = _s9_encode(gaps)
            assert _s9_decode(words, len(gaps)) == gaps
            out_rows.append({"user_id": uid, "n_gaps": len(gaps),
                             "s9_words": len(words)})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _s9_sql(sf_dir: str) -> str:
    return (f"SELECT user_id, n_gaps, s9_words "
            f"FROM read_parquet('{_s9_sidecar(sf_dir)}')")

__defined__ = (
    '_ADLER_MOD',
    '_CK_K',
    '_CRT_MODS',
    '_CW_M',
    '_CW_P',
    '_CW_TRIALS',
    '_DAMM_TABLE',
    '_ELO_E3',
    '_ELO_K',
    '_ELO_TABLE_STEP',
    '_GF_EXP',
    '_GF_LOG',
    '_GF_POLY',
    '_KS_K',
    '_MCM_K',
    '_MG_N',
    '_MG_R_BITS',
    '_MO_Q',
    '_PAGE_CAP',
    '_POLY_M',
    '_POLY_PTS',
    '_POLY_X0',
    '_RSV_BLOCK',
    '_RS_MEM',
    '_S9_MODES',
    '_SG_MOVES',
    '_SPMV_TOP',
    '_TS_P',
    '_VIG_KEY',
    '_ZB_BITS',
    '_activity_dp',
    '_activity_greedy',
    '_activity_sidecar',
    '_activity_sql',
    '_adler32_closed',
    '_adler32_running',
    '_adler_sidecar',
    '_adler_sql',
    '_auction_assign',
    '_auction_sql',
    '_bigmin',
    '_bm_majority',
    '_bmvote_sidecar',
    '_bmvote_sql',
    '_bst_insert_stats',
    '_bst_sidecar',
    '_bst_sql',
    '_build_elo_table',
    '_burnside_necklaces',
    '_cf_best_rational',
    '_ck_sidecar',
    '_ck_sql',
    '_ckmeans_dp',
    '_ckmeans_memo',
    '_coo_to_csr',
    '_crt_reconstruct',
    '_crt_sidecar',
    '_crt_sql',
    '_cw_collisions',
    '_cw_sidecar',
    '_cw_sql',
    '_damm_digit',
    '_damm_sidecar',
    '_damm_sql',
    '_demorton2',
    '_dominance_bit',
    '_dominance_cdq',
    '_egcd',
    '_egcd_rec',
    '_elo_expected_e3',
    '_elo_run',
    '_elo_sidecar',
    '_elo_sql',
    '_estrin_mod',
    '_fold_damm_prefix',
    '_friedman_keylen',
    '_from_gray',
    '_from_gray_loop',
    '_gf256_logexp',
    '_gf256_peasant',
    '_gf256_sidecar',
    '_gf256_sql',
    '_gf256_tables',
    '_gray_sidecar',
    '_gray_sql',
    '_grundy_dp',
    '_grundy_periodic',
    '_grundy_sidecar',
    '_grundy_sql',
    '_horner_mod',
    '_in_rect',
    '_jaro_frac',
    '_jaro_frac_lists',
    '_jaro_sidecar',
    '_jaro_sql',
    '_josephus_closed',
    '_josephus_sidecar',
    '_josephus_sim',
    '_josephus_sql',
    '_jw_frac',
    '_jw_frac_lists',
    '_kara_sidecar',
    '_kara_sql',
    '_karatsuba',
    '_kasiski_keylen',
    '_kasiski_sidecar',
    '_kasiski_sql',
    '_knapsack_dp',
    '_knapsack_mitm',
    '_ks_sidecar',
    '_ks_sql',
    '_mcm_dp',
    '_mcm_memo',
    '_mcm_sidecar',
    '_mcm_sql',
    '_med2_sidecar',
    '_med2_sql',
    '_median2_merge',
    '_median2_partition',
    '_mg_mulmod',
    '_mg_setup',
    '_mg_sidecar',
    '_mg_sql',
    '_miller_rabin',
    '_misses_belady',
    '_misses_belady_scan',
    '_misses_fifo',
    '_misses_fifo_list',
    '_misses_lru',
    '_misses_lru_list',
    '_mo_distinct',
    '_mo_sidecar',
    '_mo_sql',
    '_morton2',
    '_necklace_canon',
    '_necklace_sidecar',
    '_necklace_sql',
    '_offline_distinct_bit',
    '_paging_sidecar',
    '_paging_sql',
    '_patience_lis',
    '_pava_blocks',
    '_pava_rescan',
    '_pava_sidecar',
    '_pava_sql',
    '_period_longdiv',
    '_period_order',
    '_period_sidecar',
    '_period_sql',
    '_poly_sidecar',
    '_poly_sql',
    '_prime_sidecar',
    '_prime_sql',
    '_prufer_decode',
    '_prufer_decode_scan',
    '_prufer_encode',
    '_prufer_sidecar',
    '_prufer_sql',
    '_quicksort_comparisons',
    '_redc',
    '_replacement_selection',
    '_replacement_selection_bisect',
    '_rsk_shape',
    '_rsk_sidecar',
    '_rsk_sql',
    '_rsv_build',
    '_rsv_rank1',
    '_rsv_select1',
    '_rsv_sidecar',
    '_rsv_sql',
    '_runs_sidecar',
    '_runs_sql',
    '_s9_decode',
    '_s9_encode',
    '_s9_sidecar',
    '_s9_sql',
    '_sb_best_rational',
    '_sb_sidecar',
    '_sb_sql',
    '_schoolbook_mul',
    '_seg_cost',
    '_sieve_primes',
    '_spmv_csc',
    '_spmv_csr',
    '_spmv_sidecar',
    '_spmv_sql',
    '_to_gray_vec',
    '_tonelli_shanks',
    '_trend_sign_int',
    '_ts_sqrt_sidecar',
    '_ts_sqrt_sql',
    '_vigenere_enc',
    '_welford_frac',
    '_zb_sidecar',
    '_zb_sql',
    '_zscan_bigmin',
    'q_activity_selection_weekly',
    'q_adler32_docs',
    'q_auction_assignment_nations',
    'q_bst_height_weekly',
    'q_cache_paging_orders',
    'q_carter_wegman_orders',
    'q_ckmeans_days',
    'q_crt_bezout_orders',
    'q_damm_audit_orders',
    'q_decimal_period_orders',
    'q_dominance_pairs_parts',
    'q_elo_weekly_nations',
    'q_gf256_docs',
    'q_gray_roundtrip_orders',
    'q_grundy_weekly',
    'q_horner_estrin_days',
    'q_jaro_adjacent_docs',
    'q_josephus_weekly',
    'q_karatsuba_bigint_sources',
    'q_kasiski_docs',
    'q_knapsack_mitm_nations',
    'q_majority_vote_users',
    'q_matrix_chain_days',
    'q_median_two_shards_orders',
    'q_mo_range_distinct_days',
    'q_montgomery_redc_orders',
    'q_necklace_census_weeks',
    'q_pava_days',
    'q_prime_keys_orders',
    'q_prufer_roundtrip_dups',
    'q_rank_select_days',
    'q_rsk_weekly',
    'q_run_formation_orders',
    'q_simple9_users',
    'q_simpson_paradox_nations',
    'q_spmv_csr_docs',
    'q_stern_brocot_orders',
    'q_tonelli_orders',
    'q_welford_users',
    'q_zeller_dow_orders',
    'q_zorder_bigmin_query',
)
