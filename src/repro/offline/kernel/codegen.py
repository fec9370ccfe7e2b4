"""The C source of the compiled Dinic kernel, as a Python string.

The kernel is *generated* rather than shipped as a source file on disk so
the build cache can be content-addressed: the cache key is a hash over this
string plus :data:`ABI_VERSION`, which means an edit here (or an ABI bump)
transparently invalidates every stale shared object without any version
bookkeeping.  See :mod:`repro.offline.kernel.build`.

The C code mirrors the pure-Python ``py`` kernel,
:mod:`repro.offline.kernel.py`, **step for step** — the depth-synchronized
BFS (the whole frontier of the depth that reaches ``t`` is finished before
the search stops), the iterative current-arc DFS, the retreat to the
shallowest saturated edge after an augment, and the dead-end
``level[u] = -1`` pruning — so the flows it produces are bit-identical to
the ``py`` kernel's, not merely maximum.  ``tests/test_kernel.py`` pins
that equality byte for byte, and ``tests/test_sparsify.py`` also on the
unsparsified network.

Ten functions are exported, one per entry point of the ``py`` kernel:
the blocking-flow loop (``max_flow``), the greedy pass
(``greedy_blocking``), the topology build (``build_topology``), the
capacity scale/fill/grow helpers (``scale_caps``, ``fill_caps``,
``grow_sinks``), the drain of a downward probe (``repro_drain``, the twin
of ``drain``), the table sweep (``repro_sweep``, the twin of ``sweep``)
and extraction's two steps (``repro_gather``, the twin of ``gather``, and
``repro_wrap``, the twin of ``wrap``).  They are mirrored just as
closely, so tables, drained buffers and extracted pieces are
byte-identical too; where a tick bound passes int64, ``repro_wrap``
returns ``REPRO_BIGINT`` and the ``py`` twin wraps on Python ints.

Buffer ABI (shared with the Python side, all zero-copy):

* ``cap`` — the live ``array('q')`` capacity buffer (int64).  The reverse
  edge of ``e`` is ``e ^ 1``; forward edges are even.  This is the *same*
  buffer ``FeasibilityNetwork`` owns, snapshots and restores.
* ``to`` / ``head`` / ``elist`` — the immutable CSR topology as int32
  arrays (``head`` offsets into ``elist``; ``elist[head[u]:head[u+1]]``
  are node ``u``'s incident edge ids in ascending order).
* Job tables (``k0``/``k1``/``src``/``edf``) — int32; base-scaled job
  data, lengths, demands, and interval capacities — int64.

Every capacity product and sum is checked (``__builtin_mul_overflow``,
``__builtin_add_overflow``): where the Python kernel's ``array('q')``
store would raise, a C call stops at the same place and returns
``REPRO_OVERFLOW``, which the wrapper raises as ``OverflowError``.
"""

from __future__ import annotations

import hashlib

#: Bump when the exported symbols or their signatures change; part of the
#: build-cache key, so old shared objects are never dlopen'ed into a new ABI.
ABI_VERSION = 4

C_SOURCE = r"""
/* Flat-CSR blocking-flow Dinic core for the feasibility network.
 *
 * Mirrors the py kernel, repro/offline/kernel/py.py, exactly (BFS depth
 * synchronization, DFS current-arc pointers, retreat and pruning rules) so
 * flows, residual capacities, and min cuts are bit-identical to it.
 *
 * Conventions: node/edge ids are int32, capacities int64; the reverse edge
 * of e is e ^ 1 and forward edges are even.  All buffers are caller-owned;
 * the only allocations are per-call scratch (freed before returning).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(_WIN32)
#  define API __declspec(dllexport)
#else
#  define API __attribute__((visibility("default")))
#endif

/* Max flow added on the current residual from s to t.
 *
 * limit >= 0 is a known upper bound on the missing flow: once the added
 * flow reaches it the routine returns immediately (the bound certifies
 * maximality); limit < 0 means run to disconnection.  stats (optional,
 * may be NULL) receives {bfs phases, augmenting paths, retreats}.
 * Returns -1 on allocation failure. */
API int64_t repro_dinic_max_flow(
    int32_t n, const int32_t *to, const int32_t *head, const int32_t *elist,
    int64_t *cap, int32_t s, int32_t t, int64_t limit, int64_t *stats)
{
    int32_t *scratch = (int32_t *)malloc(4 * (size_t)n * sizeof(int32_t));
    int32_t *level, *it, *queue, *path;
    int64_t added = 0, phases = 0, paths = 0, retreats = 0;

    if (!scratch)
        return -1;
    level = scratch;
    it = scratch + n;
    queue = scratch + 2 * (size_t)n;
    path = scratch + 3 * (size_t)n;

    for (;;) {
        int32_t qhead = 0, qtail = 1, depth = 0, plen = 0, u;
        phases += 1;
        /* Level graph: depth-synchronized BFS.  The whole frontier at the
         * depth that reaches t is labeled before the loop stops, exactly
         * like the py kernel's _bfs, so levels are identical. */
        memset(level, -1, (size_t)n * sizeof(int32_t));
        level[s] = 0;
        queue[0] = s;
        while (qhead < qtail) {
            int32_t frontier_end = qtail;
            depth += 1;
            while (qhead < frontier_end) {
                int32_t i, end;
                u = queue[qhead++];
                end = head[u + 1];
                for (i = head[u]; i < end; i++) {
                    int32_t e = elist[i];
                    if (cap[e]) {
                        int32_t v = to[e];
                        if (level[v] < 0) {
                            level[v] = depth;
                            queue[qtail++] = v;
                        }
                    }
                }
            }
            if (level[t] >= 0)
                break;
        }
        if (level[t] < 0)
            break;
        /* Blocking flow: iterative DFS with current-arc pointers. */
        memcpy(it, head, (size_t)n * sizeof(int32_t));
        u = s;
        for (;;) {
            int32_t i, end, lu, e, v;
            if (u == t) {
                int64_t aug;
                int32_t cut;
                if (!plen)
                    goto done;  /* degenerate s == t */
                paths += 1;
                aug = cap[path[0]];
                for (i = 1; i < plen; i++)
                    if (cap[path[i]] < aug)
                        aug = cap[path[i]];
                added += aug;
                for (i = 0; i < plen; i++) {
                    e = path[i];
                    cap[e] -= aug;
                    cap[e ^ 1] += aug;
                }
                if (limit >= 0 && added >= limit)
                    goto done;
                /* Retreat to the shallowest saturated edge. */
                cut = 0;
                while (cap[path[cut]])
                    cut++;
                e = path[cut];     /* del path[cut+1:]; e = path.pop() */
                plen = cut;
                u = to[e ^ 1];
                it[u] += 1;
                continue;
            }
            i = it[u];
            end = head[u + 1];
            lu = level[u] + 1;
            e = -1;
            v = -1;
            while (i < end) {
                e = elist[i];
                v = to[e];
                if (cap[e] && level[v] == lu)
                    break;
                i += 1;
            }
            it[u] = i;
            if (i < end) {
                path[plen++] = e;
                u = v;
            } else if (plen) {
                retreats += 1;
                level[u] = -1;  /* dead end: prune from this phase */
                e = path[--plen];
                u = to[e ^ 1];
                it[u] += 1;
            } else {
                break;  /* source exhausted: blocking flow complete */
            }
        }
    }
done:
    if (stats) {
        stats[0] = phases;
        stats[1] = paths;
        stats[2] = retreats;
    }
    free(scratch);
    return added;
}

/* The EDF greedy blocking pass of the py kernel's greedy_blocking:
 * for each job in edf order, push source residual left to right through
 * its window arcs into the sink arcs (sink arc of interval k is edge 2k;
 * job idx's source arc is src[idx], window arcs the following even ids).
 * Returns the total flow pushed. */
API int64_t repro_greedy_blocking(
    int32_t n_jobs, const int32_t *edf, const int32_t *k0, const int32_t *k1,
    const int32_t *src, int64_t *cap)
{
    int64_t pushed = 0;
    int32_t j;
    for (j = 0; j < n_jobs; j++) {
        int32_t idx = edf[j];
        int32_t se = src[idx];
        int64_t resid = cap[se];
        int64_t sent = 0;
        int64_t e;
        int32_t k, kend;
        if (!resid)
            continue;
        e = (int64_t)se + 2;
        kend = k1[idx];
        for (k = k0[idx]; k < kend; k++, e += 2) {
            int64_t r = cap[e];
            if (r) {
                int64_t ks = 2 * (int64_t)k;
                int64_t room = cap[ks];
                if (room) {
                    int64_t push = resid;
                    if (r < push)
                        push = r;
                    if (room < push)
                        push = room;
                    cap[e] = r - push;
                    cap[e + 1] += push;  /* forward ids are even: e^1 == e+1 */
                    cap[ks] = room - push;
                    cap[ks + 1] += push;
                    resid -= push;
                    sent += push;
                    if (!resid)
                        break;
                }
            }
        }
        if (sent) {
            cap[se] = resid;
            cap[se + 1] += sent;
            pushed += sent;
        }
    }
    return pushed;
}

/* The arithmetic CSR topology of the py kernel's build_topology: fills the
 * caller-allocated (and zero-initialized) to/head/elist buffers.  Sizes:
 * to[n_edges2], head[2 + n_jobs + n_iv + 1], elist[n_edges2] where
 * n_edges2 = src[n_jobs-1] + 2*(1 + k1[n_jobs-1] - k0[n_jobs-1]) (or
 * 2*n_iv for an empty instance).  Returns 0, or -1 on allocation failure. */
API int32_t repro_build_topology(
    int32_t n_jobs, int32_t n_iv, const int32_t *k0, const int32_t *k1,
    const int32_t *src, int32_t *to, int32_t *head, int32_t *elist)
{
    int32_t base_iv = 2 + n_jobs;
    int32_t *cover = (int32_t *)calloc((size_t)n_iv + 1, sizeof(int32_t));
    int32_t *ivfill = (int32_t *)malloc(((size_t)n_iv + 1) * sizeof(int32_t));
    int32_t idx, k, p, running;
    if (!cover || !ivfill) {
        free(cover);
        free(ivfill);
        return -1;
    }
    for (k = 0; k < n_iv; k++) {
        to[2 * k] = 1;  /* SINK */
        to[2 * k + 1] = base_iv + k;
    }
    for (idx = 0; idx < n_jobs; idx++) {
        int32_t jn = 2 + idx;
        int32_t e = src[idx];
        int32_t a = k0[idx], b = k1[idx];
        to[e] = jn;  /* to[e + 1] stays 0 == SOURCE */
        cover[a] += 1;
        cover[b] -= 1;
        for (k = a; k < b; k++) {
            e += 2;
            to[e] = base_iv + k;
            to[e + 1] = jn;
        }
    }
    head[0] = 0;
    head[1] = n_jobs;          /* source's arcs */
    head[2] = n_jobs + n_iv;   /* sink's (reverse) arcs */
    for (idx = 0; idx < n_jobs; idx++)
        head[3 + idx] = head[2 + idx] + 1 + k1[idx] - k0[idx];
    running = 0;
    for (k = 0; k < n_iv; k++) {
        running += cover[k];
        head[base_iv + k + 1] = head[base_iv + k] + 1 + running;
    }
    for (idx = 0; idx < n_jobs; idx++)
        elist[idx] = src[idx];            /* source list (head[0] == 0) */
    p = head[1];
    for (k = 0; k < n_iv; k++)
        elist[p + k] = 2 * k + 1;         /* sink list */
    for (k = 0; k < n_iv; k++) {
        ivfill[k] = head[base_iv + k];
        elist[ivfill[k]] = 2 * k;  /* interval lists start with the sink arc */
        ivfill[k] += 1;
    }
    for (idx = 0; idx < n_jobs; idx++) {
        int32_t e = src[idx];
        int32_t b = k1[idx];
        p = head[2 + idx];
        elist[p] = e + 1;          /* reverse source arc heads the job list */
        p += 1;
        for (k = k0[idx]; k < b; k++) {
            e += 2;
            elist[p] = e;
            p += 1;
            elist[ivfill[k]] = e + 1;  /* reverse window arc on the interval */
            ivfill[k] += 1;
        }
    }
    free(cover);
    free(ivfill);
    return 0;
}

/* Status codes shared with kernel/abi.py.  Every capacity product and sum
 * below is checked: where the Python kernel's array('q') store would raise,
 * these return REPRO_OVERFLOW instead of wrapping. */
#define REPRO_NOMEM (-1)     /* scratch allocation failed */
#define REPRO_OVERFLOW (-2)  /* a value past int64, or an edge id past int32 */
#define REPRO_UNSORTED (-3)  /* repro_sweep: releases out of order */
#define REPRO_BIGINT 1       /* repro_sweep: the span or total demand passes
                              * int64, so the caller sweeps on Python ints */

/* iv_caps[k] = len_base[k] * lenfac  (per-interval unit capacity).
 * Returns 0, or REPRO_OVERFLOW at the first product past int64. */
API int32_t repro_scale_caps(
    int32_t n_iv, const int64_t *len_base, int64_t lenfac, int64_t *iv_caps)
{
    int32_t k;
    for (k = 0; k < n_iv; k++)
        if (__builtin_mul_overflow(len_base[k], lenfac, &iv_caps[k]))
            return REPRO_OVERFLOW;
    return 0;
}

/* The cold capacity fill of the py kernel's fill_caps:
 * source arcs carry demand_base * demfac, window arcs the interval's unit
 * capacity.  Sink arcs stay 0 (m = 0); cap must be zero-initialized.
 * Returns 0, or REPRO_OVERFLOW at the first demand past int64. */
API int32_t repro_fill_caps(
    int32_t n_jobs, const int32_t *k0, const int32_t *k1, const int32_t *src,
    const int64_t *demand_base, int64_t demfac, const int64_t *iv_caps,
    int64_t *cap)
{
    int32_t idx, k;
    for (idx = 0; idx < n_jobs; idx++) {
        int64_t e = src[idx];
        int64_t demand;
        int32_t b = k1[idx];
        if (__builtin_mul_overflow(demand_base[idx], demfac, &demand))
            return REPRO_OVERFLOW;
        cap[e] = demand;
        e += 2;
        for (k = k0[idx]; k < b; k++) {
            cap[e] = iv_caps[k];
            e += 2;
        }
    }
    return 0;
}

/* The warm-start grow of the py kernel's grow_sinks: sink arc k gains
 * delta machines' worth of capacity.  Returns 0, or REPRO_OVERFLOW at the
 * first interval whose new capacity passes int64; the intervals before it
 * are grown, it and the rest are untouched (as in the Python loop). */
API int32_t repro_grow_sinks(
    int32_t n_iv, int64_t delta, const int64_t *iv_caps, int64_t *cap)
{
    int32_t k;
    for (k = 0; k < n_iv; k++) {
        int64_t add, grown;
        if (__builtin_mul_overflow(delta, iv_caps[k], &add)
            || __builtin_add_overflow(cap[2 * (int64_t)k], add, &grown))
            return REPRO_OVERFLOW;
        cap[2 * (int64_t)k] = grown;
    }
    return 0;
}

/* The drain of a downward probe (the py kernel's drain): every sink
 * arc loses delta machines' worth of capacity.  Residual headroom absorbs
 * what it can; the rest is pulled back, interval by interval, along the
 * interval's incoming job arcs (the odd ids of its edge list, in list
 * order) and off those jobs' source arcs.  Returns the flow drained, or
 * REPRO_OVERFLOW when delta * iv_caps[k] or the drained total passes int64
 * (intervals before k are drained, k and the rest untouched). */
API int64_t repro_drain(
    int32_t n_jobs, int32_t n_iv, int64_t delta, const int64_t *iv_caps,
    const int32_t *to, const int32_t *head, const int32_t *elist,
    const int32_t *src, int64_t *cap)
{
    int64_t drained = 0;
    int32_t k;
    for (k = 0; k < n_iv; k++) {
        int64_t ks = 2 * (int64_t)k;
        int64_t cut, avail, excess;
        int32_t i, end, node;
        if (__builtin_mul_overflow(delta, iv_caps[k], &cut))
            return REPRO_OVERFLOW;
        avail = cap[ks];
        if (avail >= cut) {
            cap[ks] = avail - cut;
            continue;
        }
        excess = cut - avail;
        if (__builtin_add_overflow(drained, excess, &drained))
            return REPRO_OVERFLOW;
        cap[ks] = 0;
        cap[ks + 1] -= excess;
        node = 2 + n_jobs + k;
        end = head[node + 1];
        for (i = head[node]; i < end; i++) {
            int32_t e = elist[i];
            /* Odd ids incident to an interval node are exactly the reverse
             * window arcs; cap[e] is the forward arc's flow. */
            if ((e & 1) && cap[e]) {
                int64_t take = cap[e] < excess ? cap[e] : excess;
                int64_t se = src[to[e] - 2];  /* that job's source arc */
                cap[e] -= take;
                cap[e - 1] += take;
                cap[se] += take;
                cap[se + 1] -= take;
                excess -= take;
                if (!excess)
                    break;
            }
        }
    }
    return drained;
}

#define RADIX_BITS 11
#define RADIX (1 << RADIX_BITS)

/* The integer table sweep of the py kernel's sweep, step for step.
 *
 * In: n >= 1 jobs in release order; r, p, d their base-scaled release,
 * processing time and deadline.  Out: start_base and len_base for the
 * K kept intervals (the caller sizes each for 2n), k0, k1, src and edf
 * per job, and counts = {K, elementary count, n_edges, max_live,
 * zero_laxity_max, total demand, span}.
 *
 * The releases are sorted already, so only the deadlines are sorted: a
 * stable LSD radix sort of the job indices by d - min(d).  One merge of
 * the two sorted runs then yields the unique event points and each job's
 * point indices i0 (release) and i1 (deadline).  That deadline order is
 * also edf, the stable order by k1: k1 is strictly increasing in the
 * deadline, because the interval just before a deadline is live.
 *
 * Returns 0, REPRO_BIGINT, REPRO_OVERFLOW (a source edge id past int32),
 * REPRO_UNSORTED or REPRO_NOMEM. */
API int32_t repro_sweep(
    int32_t n, const int64_t *r, const int64_t *p, const int64_t *d,
    int64_t *start_base, int64_t *len_base, int32_t *k0, int32_t *k1,
    int32_t *src, int32_t *edf, int64_t *counts)
{
    int64_t *pts = (int64_t *)malloc(2 * (size_t)n * sizeof(int64_t));
    int32_t *scratch = (int32_t *)malloc(7 * (size_t)n * sizeof(int32_t));
    int32_t *i0, *i1, *tmp, *live, *zero, *ord;
    int64_t total = 0, dmin = d[0], dmax = d[0], span, acc;
    int32_t j, a, b, npts, m_el, n_kept, run, zrun, max_live, zmax;
    uint64_t range;
    unsigned shift;
    int32_t status = 0;

    if (!pts || !scratch) {
        free(pts);
        free(scratch);
        return REPRO_NOMEM;
    }
    i0 = scratch;
    i1 = scratch + n;
    tmp = scratch + 2 * (size_t)n;
    live = scratch + 3 * (size_t)n;   /* 2n entries */
    zero = scratch + 5 * (size_t)n;   /* 2n entries */
    for (j = 0; j < n; j++) {
        if (j && r[j] < r[j - 1]) {
            status = REPRO_UNSORTED;
            goto out;
        }
        if (__builtin_add_overflow(total, p[j], &total)) {
            status = REPRO_BIGINT;
            goto out;
        }
        if (d[j] < dmin)
            dmin = d[j];
        if (d[j] > dmax)
            dmax = d[j];
        edf[j] = j;
    }
    /* Stable LSD radix sort of the job indices by deadline, in edf. */
    range = (uint64_t)dmax - (uint64_t)dmin;
    ord = edf;
    for (shift = 0; shift < 64 && (range >> shift); shift += RADIX_BITS) {
        int32_t count[RADIX + 1];
        int32_t *swap;
        memset(count, 0, sizeof(count));
        for (j = 0; j < n; j++)
            count[(((uint64_t)d[ord[j]] - (uint64_t)dmin) >> shift & (RADIX - 1)) + 1]++;
        for (j = 0; j < RADIX; j++)
            count[j + 1] += count[j];
        for (j = 0; j < n; j++)
            tmp[count[((uint64_t)d[ord[j]] - (uint64_t)dmin) >> shift & (RADIX - 1)]++] = ord[j];
        swap = ord;
        ord = tmp;
        tmp = swap;
    }
    if (ord != edf)
        memcpy(edf, ord, (size_t)n * sizeof(int32_t));
    /* Merge releases (index order) and deadlines (edf order) into the
     * sorted unique event points. */
    npts = 0;
    a = b = 0;
    while (a < n || b < n) {
        int rel = b == n || (a < n && r[a] <= d[edf[b]]);
        int64_t x = rel ? r[a] : d[edf[b]];
        if (!npts || pts[npts - 1] != x)
            pts[npts++] = x;
        if (rel)
            i0[a++] = npts - 1;
        else
            i1[edf[b++]] = npts - 1;
    }
    if (__builtin_sub_overflow(pts[npts - 1], pts[0], &span)) {
        status = REPRO_BIGINT;
        goto out;
    }
    m_el = npts - 1;
    /* Difference arrays over elementary intervals: a job is live in
     * [i0, i1), and zero-laxity when its window is exactly p_j long. */
    memset(live, 0, 4 * (size_t)n * sizeof(int32_t));
    for (j = 0; j < n; j++) {
        live[i0[j]] += 1;
        live[i1[j]] -= 1;
        if (d[j] - r[j] == p[j]) {
            zero[i0[j]] += 1;
            zero[i1[j]] -= 1;
        }
    }
    /* Prefix sums in place.  live[i] becomes rank[i], the number of kept
     * intervals before elementary interval i: no live job, no arc can
     * reach the interval, so it is dropped. */
    run = zrun = max_live = zmax = 0;
    n_kept = 0;
    for (j = 0; j < npts; j++) {
        run += live[j];
        zrun += zero[j];
        if (run > max_live)
            max_live = run;
        if (zrun > zmax)
            zmax = zrun;
        live[j] = n_kept;
        if (run && j < m_el) {
            start_base[n_kept] = pts[j];
            len_base[n_kept] = pts[j + 1] - pts[j];
            n_kept++;
        }
    }
    acc = 2 * (int64_t)n_kept;  /* sink arcs occupy edge ids [0, 2K) */
    for (j = 0; j < n; j++) {
        k0[j] = live[i0[j]];
        k1[j] = live[i1[j]];
        if (acc > INT32_MAX) {
            status = REPRO_OVERFLOW;
            goto out;
        }
        src[j] = (int32_t)acc;
        acc += 2 * (1 + (int64_t)k1[j] - k0[j]);  /* source + window arcs */
    }
    counts[0] = n_kept;
    counts[1] = m_el;
    counts[2] = acc / 2;
    counts[3] = max_live;
    counts[4] = zmax;
    counts[5] = total;
    counts[6] = span;
out:
    free(pts);
    free(scratch);
    return status;
}

/* The py kernel's gather: the flow of every window arc (cap[e ^ 1] for
 * forward e) that carries some, grouped by kept interval into offsets
 * (n_iv + 1 entries), jobs and amounts (sized for every window arc).
 * Within an interval by decreasing amount, then rank.  Returns the number
 * of pieces, or REPRO_NOMEM. */
typedef struct {
    int64_t amount;
    int32_t rank, idx;
} repro_piece;

static int repro_piece_order(const void *a, const void *b)
{
    const repro_piece *x = (const repro_piece *)a, *y = (const repro_piece *)b;
    if (x->amount != y->amount)
        return x->amount > y->amount ? -1 : 1;
    return (x->rank > y->rank) - (x->rank < y->rank);
}

API int32_t repro_gather(
    int32_t n_jobs, int32_t n_iv, const int32_t *k0, const int32_t *k1,
    const int32_t *src, const int32_t *rank, const int64_t *cap,
    int32_t *offsets, int32_t *jobs, int64_t *amounts)
{
    repro_piece *pieces;
    int32_t idx, k, i, total;
    memset(offsets, 0, ((size_t)n_iv + 1) * sizeof(int32_t));
    for (idx = 0; idx < n_jobs; idx++) {
        int64_t e = (int64_t)src[idx] + 3;  /* first window arc's reverse */
        for (k = k0[idx]; k < k1[idx]; k++, e += 2)
            if (cap[e])
                offsets[k + 1]++;
    }
    for (k = 0; k < n_iv; k++)
        offsets[k + 1] += offsets[k];
    total = offsets[n_iv];
    pieces = (repro_piece *)malloc(((size_t)total + 1) * sizeof(repro_piece));
    if (!pieces)
        return REPRO_NOMEM;
    /* Fill with offsets[k] as interval k's cursor, then shift back. */
    for (idx = 0; idx < n_jobs; idx++) {
        int64_t e = (int64_t)src[idx] + 3;
        for (k = k0[idx]; k < k1[idx]; k++, e += 2)
            if (cap[e]) {
                repro_piece *q = &pieces[offsets[k]++];
                q->amount = cap[e];
                q->rank = rank[idx];
                q->idx = idx;
            }
    }
    for (k = n_iv; k > 0; k--)
        offsets[k] = offsets[k - 1];
    offsets[0] = 0;
    for (k = 0; k < n_iv; k++)
        if (offsets[k + 1] - offsets[k] > 1)
            qsort(pieces + offsets[k], (size_t)(offsets[k + 1] - offsets[k]),
                  sizeof(repro_piece), repro_piece_order);
    for (i = 0; i < total; i++) {
        jobs[i] = pieces[i].idx;
        amounts[i] = pieces[i].amount;
    }
    free(pieces);
    return total;
}

#define REPRO_EMPTY (-4)  /* repro_wrap: an interval of length <= 0 */
#define REPRO_LONG (-5)   /* repro_wrap: a piece longer than its interval */
#define REPRO_FULL (-6)   /* repro_wrap: pieces past m machines */

/* The py kernel's wrap: McNaughton's wrap-around rule on every kept
 * interval with pieces.  Interval k spans [start_base[k] * f,
 * (start_base[k] + len_base[k]) * f) in ticks; its pieces
 * jobs/amounts[offsets[k] : offsets[k + 1]] are laid out in order and
 * wrapped onto at most m machines.  out receives (job, machine, start,
 * end) quadruples (the caller sizes it for two per piece); *at the number
 * of values written or, on an error, the offending piece.  Returns 0,
 * REPRO_BIGINT (a tick bound past int64), REPRO_EMPTY, REPRO_LONG or
 * REPRO_FULL. */
API int32_t repro_wrap(
    int32_t n_iv, int64_t m, int64_t f, const int32_t *offsets,
    const int32_t *jobs, const int64_t *amounts, const int64_t *start_base,
    const int64_t *len_base, int64_t *out, int64_t *at)
{
    int64_t w = 0;
    int32_t k, i;
    for (k = 0; k < n_iv; k++) {
        int64_t start, length, end, cursor, machine = 0;
        if (offsets[k] == offsets[k + 1])
            continue;
        if (__builtin_mul_overflow(start_base[k], f, &start)
            || __builtin_mul_overflow(len_base[k], f, &length)
            || __builtin_add_overflow(start, length, &end))
            return REPRO_BIGINT;
        if (length <= 0) {
            *at = offsets[k];
            return REPRO_EMPTY;
        }
        cursor = start;
        for (i = offsets[k]; i < offsets[k + 1]; i++) {
            int64_t remaining = amounts[i];
            if (remaining <= 0)
                continue;
            *at = i;
            if (remaining > length)
                return REPRO_LONG;
            while (remaining > 0) {
                int64_t take = end - cursor < remaining ? end - cursor : remaining;
                if (machine >= m)
                    return REPRO_FULL;
                out[w] = jobs[i];
                out[w + 1] = machine;
                out[w + 2] = cursor;
                out[w + 3] = cursor + take;
                w += 4;
                cursor += take;
                remaining -= take;
                if (cursor == end) {
                    machine += 1;
                    cursor = start;
                }
            }
        }
    }
    *at = w;
    return 0;
}
"""


def source_hash() -> str:
    """Content hash keying the build cache (source + ABI version)."""
    h = hashlib.sha256()
    h.update(b"repro-dinic-c-abi-%d\n" % ABI_VERSION)
    h.update(C_SOURCE.encode("utf-8"))
    return h.hexdigest()
