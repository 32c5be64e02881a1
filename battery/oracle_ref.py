"""Independent SCALAR reference implementations of the hash-family
operators — used ONLY to build oracle sidecar tables for the driver's
correctness gate (and cross-checked against the vectorized engine
kernels in tests/test_oracles_r3.py).

Everything here is pure-Python integer arithmetic (no numpy on the data
path): a vectorization bug in battery.ops.hashing / battery.ops.dedup /
battery.ops.sketch cannot also live here, so a driver value-hash match
means the two implementations agree on every row. The SPEC constants
(FNV-prime polynomial base, splitmix64 finalizer, golden-ratio length
salt) are redeclared literally from the published algorithms rather
than imported from the engine modules.
"""

from __future__ import annotations

M64 = (1 << 64) - 1
_POLY_P = 0x100000001B3        # FNV prime (polynomial base)
_GOLD = 0x9E3779B97F4A7C15     # golden-ratio length salt
_MERSENNE = (1 << 61) - 1


def sm64(x: int) -> int:
    """Scalar splitmix64 finalizer."""
    z = (x + _GOLD) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


EMPTY_TOKEN_HASH = sm64(0)


def poly_hash(values, length_salt: bool = True) -> int:
    """Rabin-Karp polynomial over an int sequence, splitmix64-finalized
    with the length-salted xor (the hashing.py token/doc scheme)."""
    acc = 0
    for v in values:
        acc = (acc * _POLY_P + v) & M64
    return sm64(acc ^ ((len(values) * _GOLD) & M64))


def token_hashes(text: str) -> list[int]:
    """Whitespace tokens (Python str.split semantics, which match
    pc.utf8_split_whitespace with empties dropped) → per-token hash of
    the UTF-8 bytes."""
    return [poly_hash(t.encode("utf-8")) for t in text.split()]


def fingerprint(text: str) -> int:
    """Order-sensitive doc fingerprint: polynomial fold over the token
    hashes; empty docs fingerprint to splitmix64(0)."""
    h = token_hashes(text)
    if not h:
        return sm64(0)
    return poly_hash(h)


def simhash(text: str) -> int:
    """Per-bit majority vote over the doc's token hashes (strict
    majority: bit set iff 2·votes > n); empty docs → 0."""
    h = token_hashes(text)
    if not h:
        return 0
    n = len(h)
    out = 0
    for b in range(64):
        votes = sum((v >> b) & 1 for v in h)
        if votes * 2 > n:
            out |= 1 << b
    return out


def shingles(text: str, k: int = 3) -> list[int]:
    """k-gram shingle hashes (dedup._shingle_flat semantics): shingle at
    token t = splitmix64(xor_{j<k} h[t+j]·(2j+1) mod 2^64); docs shorter
    than k tokens are padded with EMPTY_TOKEN_HASH and yield exactly one
    shingle."""
    h = token_hashes(text)
    n = len(h)
    if n >= k:
        out = []
        for t in range(n - k + 1):
            acc = 0
            for j in range(k):
                acc ^= (h[t + j] * (2 * j + 1)) & M64
            out.append(sm64(acc))
        return out
    acc = 0
    for j in range(n):
        acc ^= (h[j] * (2 * j + 1)) & M64
    for j in range(n, k):
        acc ^= (EMPTY_TOKEN_HASH * (2 * j + 1)) & M64
    return [sm64(acc)]


def jaccard(a: str, b: str, k: int = 3):
    sa, sb = set(shingles(a, k)), set(shingles(b, k))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def _fold61(v: int) -> int:
    """The engine's double Mersenne carry-fold (NOT a true mod: 2^61-1
    stays 2^61-1) — replayed exactly."""
    v = (v & _MERSENNE) + (v >> 61)
    v = (v & _MERSENNE) + (v >> 61)
    return v


def minhash_signature(sh: list[int], a: list[int], b: list[int]) -> list[int]:
    """One minhash value per permutation: min over shingles of
    fold61(sh·a + b mod 2^64)."""
    sig = []
    for ai, bi in zip(a, b):
        best = None
        for s in sh:
            v = _fold61((s * ai + bi) & M64)
            if best is None or v < best:
                best = v
        sig.append(best)
    return sig


def band_hashes(sig: list[int], bands: int) -> list[int]:
    """Band bucket keys, replaying MinHashStage.__call__: rows_per_band
    == 1 → splitmix64(v); else splitmix64(xor_j splitmix64(v_j + j))."""
    rpb = len(sig) // bands
    out = []
    for bi in range(bands):
        block = sig[bi * rpb : (bi + 1) * rpb]
        if rpb == 1:
            out.append(sm64(block[0]))
        else:
            acc = 0
            for j, v in enumerate(block):
                acc ^= sm64((v + j) & M64)
            out.append(sm64(acc))
    return out


def minhash_lsh_pairs_ref(
    docs: list[tuple[int, str]],
    threshold: float,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    max_bucket: int = 512,
) -> list[tuple[int, int, float]]:
    """Full scalar replay of dedup.minhash_lsh_pairs: sign every doc,
    bucket per band, candidate pairs from bucket collisions (sorted
    unique ids, MAX_BUCKET-capped), exact Jaccard verify at threshold.
    Permutation parameters come from the same deterministic generator
    the engine stage seeds (the params are config, not data path)."""
    import numpy as np  # parameters only — the engine seeds rng(1234)

    rng = np.random.default_rng(1234)
    a = [int(x) for x in rng.integers(1, (1 << 61) - 1, num_perm, dtype=np.uint64)]
    b = [int(x) for x in rng.integers(0, (1 << 61) - 1, num_perm, dtype=np.uint64)]

    sh_of = {did: shingles(text, shingle_k) for did, text in docs}
    bh_of = {
        did: band_hashes(minhash_signature(sh, a, b), bands) for did, sh in sh_of.items()
    }
    cand: set[tuple[int, int]] = set()
    for band in range(bands):
        buckets: dict[int, list[int]] = {}
        for did, bhs in bh_of.items():
            buckets.setdefault(bhs[band], []).append(did)
        for ids in buckets.values():
            ids = sorted(set(ids))[:max_bucket]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    cand.add((ids[i], ids[j]))
    texts = dict(docs)
    out = []
    for x, y in sorted(cand):
        sa, sb = set(sh_of[x]), set(sh_of[y])
        jac = 1.0 if (not sa and not sb) else len(sa & sb) / len(sa | sb)
        jr = round(jac, 6)
        if jr >= threshold:
            out.append((x, y, jr))
    return out


def simhash_pairs_ref(
    docs: list[tuple[int, str]], max_hamming: int = 3, max_bucket: int = 512
) -> list[tuple[int, int, int]]:
    """Scalar replay of dedup.simhash_pairs: pigeonhole banding of the
    64-bit simhash into max_hamming+1 near-even contiguous bands,
    within-band bucket pairs (sorted unique ids, MAX_BUCKET-capped),
    Hamming-verified, deduped across bands."""
    n_bands = max_hamming + 1
    sizes = [64 // n_bands + (1 if i < 64 % n_bands else 0) for i in range(n_bands)]
    shifts = [sum(sizes[:i]) for i in range(n_bands)]
    masks = [(1 << w) - 1 for w in sizes]
    sh_of = {did: simhash(text) for did, text in docs}
    out: dict[tuple[int, int], int] = {}
    for band in range(n_bands):
        buckets: dict[int, list[int]] = {}
        for did, s in sh_of.items():
            buckets.setdefault((s >> shifts[band]) & masks[band], []).append(did)
        for ids in buckets.values():
            ids = sorted(set(ids))[:max_bucket]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    d = bin(sh_of[ids[i]] ^ sh_of[ids[j]]).count("1")
                    if d <= max_hamming:
                        out[(ids[i], ids[j])] = d
    return sorted((a, b, d) for (a, b), d in out.items())


def hll_estimate_ref(values: list[int], p: int = 12) -> float:
    """Scalar HyperLogLog over int64 values: splitmix64 hash of the
    two's-complement uint64 view, register = top p bits, rank = leading
    zeros of the remaining bits (sentinel-bit bounded) + 1, standard
    bias-corrected estimate with the small-range correction."""
    import math

    m = 1 << p
    reg = [0] * m
    for v in values:
        h = sm64(v & M64)
        idx = h >> (64 - p)
        rest = ((h << p) & M64) | 1
        lz = 0
        cur = rest
        for shift in (32, 16, 8, 4, 2, 1):
            if cur < (1 << (64 - shift)):
                lz += shift
                cur = (cur << shift) & M64
        rank = min(lz + 1, 64 - p + 1)
        if rank > reg[idx]:
            reg[idx] = rank
    am = 0.7213 / (1 + 1.079 / m)
    E = am * m * m / sum(2.0 ** (-r) for r in reg)
    if E <= 2.5 * m:
        zeros = reg.count(0)
        if zeros:
            return m * math.log(m / zeros)
    return float(E)


def cm_estimates_ref(values, query_ids, w: int = 2048, d: int = 4):
    """Scalar count-min replay (pure int, no numpy — independent of
    ops/sketch.cm_sketch's vectorized path): grid[r][sm64(v ^
    sm64(r+1)) % w] += 1 per value; est(q) = min over rows."""
    seeds = [sm64(r + 1) for r in range(d)]
    grid = [[0] * w for _ in range(d)]
    for v in values:
        u = v & M64
        for r in range(d):
            grid[r][sm64(u ^ seeds[r]) % w] += 1
    out = {}
    for q in query_ids:
        u = q & M64
        out[q] = min(grid[r][sm64(u ^ seeds[r]) % w] for r in range(d))
    return out


def triplet_violations_ref(vectors, labels):
    """Scalar replay for triplet_violation_labels: per anchor, the
    exact squared-L2 (e6-lattice ints) to its nearest SAME-label and
    nearest OTHER-label neighbours (self excluded); anchors with no
    same-label peer are skipped. Returns {label: (n_anchors,
    n_violations)} where a violation is d_other strictly < d_same.
    Plain python ints throughout — a vectorization bug cannot live in
    both this and the engine's matmul kernel."""
    n = len(vectors)
    out: dict[int, list[int]] = {}
    for i in range(n):
        d_same = d_other = None
        for j in range(n):
            if j == i:
                continue
            d = 0
            vi, vj = vectors[i], vectors[j]
            for k in range(len(vi)):
                t = vi[k] - vj[k]
                d += t * t
            if labels[j] == labels[i]:
                if d_same is None or d < d_same:
                    d_same = d
            elif d_other is None or d < d_other:
                d_other = d
        if d_same is None:
            continue
        st = out.setdefault(labels[i], [0, 0])
        st[0] += 1
        if d_other is not None and d_other < d_same:
            st[1] += 1
    return {k: tuple(v) for k, v in out.items()}


def range_counts_ref(vectors, labels, r2: int):
    """Scalar replay for range_density_labels: per label, the number
    of (anchor, neighbour) pairs with exact e6-lattice squared L2 ≤ r2
    (self excluded, ordered pairs — each anchor counts its own
    neighbours). Plain python ints."""
    n = len(vectors)
    out: dict[int, list[int]] = {}
    for i in range(n):
        cnt = 0
        for j in range(n):
            if j == i:
                continue
            d = 0
            vi, vj = vectors[i], vectors[j]
            for k in range(len(vi)):
                t = vi[k] - vj[k]
                d += t * t
                if d > r2:
                    break
            if d <= r2:
                cnt += 1
        st = out.setdefault(labels[i], [0, 0])
        st[0] += 1
        st[1] += cnt
    return {k: tuple(v) for k, v in out.items()}


def hilbert_xy2d(order: int, x: int, y: int) -> int:
    """Scalar Hilbert curve index of grid cell (x, y) on a 2^order ×
    2^order grid — the published iterative xy2d (Wikipedia "Hilbert
    curve", converting to/from Hilbert order). Pure python ints; the
    engine's vectorized numpy twin lives in battery/geom/hilbert.py and
    a bug cannot live in both."""
    d = 0
    s = 1 << (order - 1)
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def rdp_keep_count(xs, ys, tolerance: float) -> int:
    """Scalar Ramer–Douglas–Peucker retained-vertex count with the
    EXACT arithmetic of geotile/geom/rdp.rdp (same expression order,
    same first-argmax tie rule, same clamp) but pure-python floats and
    an explicit scalar loop — an independent replay of the vectorized
    kernel, not an import of it."""
    n = len(xs)
    if n <= 2 or tolerance <= 0:
        return n
    keep = [False] * n
    keep[0] = keep[-1] = True
    tol2 = tolerance * tolerance
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        ax, ay = xs[lo], ys[lo]
        bx, by = xs[hi], ys[hi]
        dx, dy = bx - ax, by - ay
        L2 = dx * dx + dy * dy
        best_d2 = -1.0
        best_i = -1
        for i in range(lo + 1, hi):
            sx, sy = xs[i], ys[i]
            if L2 == 0.0:
                d2 = (sx - ax) ** 2 + (sy - ay) ** 2
            else:
                t = ((sx - ax) * dx + (sy - ay) * dy) / L2
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                d2 = (sx - (ax + t * dx)) ** 2 + (sy - (ay + t * dy)) ** 2
            if d2 > best_d2:
                best_d2 = d2
                best_i = i
        if best_d2 > tol2:
            keep[best_i] = True
            stack.append((lo, best_i))
            stack.append((best_i, hi))
    return sum(keep)


def mmr_topk_ref(ids, vectors, signs, k: int):
    """Scalar-python Maximal Marginal Relevance greedy selection with
    λ = 1/2 on the e6 integer lattice: round r picks the unselected
    vector maximizing rel_i − max_{s∈S} sim(i, s) (both exact int64
    dot products; rel against the ±1 probe ``signs``; the maxsim term
    is 0 in round 0), smallest id on ties. Returns [(rank, id, score)].
    Incremental: each round only dots candidates against the newly
    selected vector — O(k·n·dim) python-int ops, no numpy."""
    n = len(ids)
    dim = len(signs)
    rel = []
    for v in vectors:
        acc = 0
        for j in range(dim):
            acc += v[j] * signs[j]
        rel.append(acc)
    NEG = -(1 << 200)
    best_sim = [NEG] * n  # max sim to the selected set so far
    chosen = [False] * n
    out = []
    for rank in range(min(k, n)):
        bi = -1
        bs = None
        for i in range(n):
            if chosen[i]:
                continue
            ms = best_sim[i] if out else 0
            sc = rel[i] - ms
            if bs is None or sc > bs or (sc == bs and ids[i] < ids[bi]):
                bi, bs = i, sc
        out.append((rank, ids[bi], bs))
        chosen[bi] = True
        sel = vectors[bi]
        for i in range(n):
            if chosen[i]:
                continue
            acc = 0
            for j in range(dim):
                acc += vectors[i][j] * sel[j]
            if acc > best_sim[i]:
                best_sim[i] = acc
    return out


def kcenter_ref(ids, vectors, k: int):
    """Scalar-python farthest-first (k-center, Gonzalez 1985)
    traversal on the e6 integer lattice: seed = max self-dot
    (smaller id on ties); each later round picks the point with the
    largest EXACT min squared L2 distance to the selected set
    (smaller id on ties), d2 from python-int dot products only.
    Returns [(rank, id, score)] with score = self-dot for the seed
    and the winning min-d2 afterwards."""
    n = len(ids)
    self_dot = []
    for v in vectors:
        acc = 0
        for c in v:
            acc += c * c
        self_dot.append(acc)
    bi = 0
    for i in range(1, n):
        if (self_dot[i] > self_dot[bi]
                or (self_dot[i] == self_dot[bi] and ids[i] < ids[bi])):
            bi = i
    out = [(0, ids[bi], self_dot[bi])]
    chosen = [False] * n
    chosen[bi] = True
    mind2 = [None] * n
    last = bi
    for rank in range(1, min(k, n)):
        sel = vectors[last]
        sd = self_dot[last]
        for i in range(n):
            if chosen[i]:
                continue
            acc = 0
            vi = vectors[i]
            for j in range(len(sel)):
                acc += vi[j] * sel[j]
            d2 = self_dot[i] + sd - 2 * acc
            if mind2[i] is None or d2 < mind2[i]:
                mind2[i] = d2
        bi = -1
        for i in range(n):
            if chosen[i]:
                continue
            if (bi < 0 or mind2[i] > mind2[bi]
                    or (mind2[i] == mind2[bi] and ids[i] < ids[bi])):
                bi = i
        out.append((rank, ids[bi], mind2[bi]))
        chosen[bi] = True
        last = bi
    return out


def soundex_ref(token: str) -> str:
    """Scalar SIMPLIFIED Soundex (h/w treated as vowels, i.e. code 0
    — the common simplified variant, stated spec for both engines):
    map letters to digit codes, collapse adjacent equal codes, drop
    zeros after the first letter, emit first letter + 3 digits
    padded with '0'. Non-alpha bytes map to code 0."""
    lut = {}
    for ch in "bfpv":
        lut[ch] = 1
    for ch in "cgjkqsxz":
        lut[ch] = 2
    for ch in "dt":
        lut[ch] = 3
    lut["l"] = 4
    for ch in "mn":
        lut[ch] = 5
    lut["r"] = 6
    codes = [lut.get(ch, 0) for ch in token]
    kept = [codes[0]] if codes else []
    for i in range(1, len(codes)):
        if codes[i] != codes[i - 1]:
            kept.append(codes[i])
    digits = [c for c in kept[1:] if c != 0]
    head = token[0].upper() if token and token[0].isascii() \
        and token[0].isalpha() else "?"
    return head + "".join(str(c) for c in (digits + [0, 0, 0])[:3])
