/* Bowyer-Watson kernels: insertion, batched insertion, pre-validated
 * commit, and vertex-removal hole filling; plus the surface oracle's
 * nearest-site lookup, march and bisection (end of file).
 *
 * Compiled on demand (see __init__.py) and driven through ctypes on the
 * mesh's struct-of-arrays buffers.  Four Bowyer-Watson entry points
 * share the same building blocks:
 *
 * - bw_insert        one insertion attempt: remembering walk -> cavity
 *                    search -> validation -> closure check -> commit.
 * - bw_insert_many   a batch of insertion attempts amortizing the
 *                    ctypes crossing; stops (with progress) at the
 *                    first point it cannot finish conclusively.
 * - bw_commit        validation + closure + commit of a cavity the
 *                    caller already computed (the two-phase speculative
 *                    path: Python acquires every vertex lock first,
 *                    then this commits lock-free).
 * - bw_remove        gift-wrap hole filling for vertex removal (the
 *                    predicate-heavy inner loop of the removal path).
 *
 * Contract with the Python kernel (delaunay/triangulation.py):
 *
 * - Every floating point predicate is *filtered*: evaluated in double
 *   with a Shewchuk-style forward error bound.  A conclusive filter
 *   result is guaranteed to equal the exact predicate's sign, so every
 *   decision taken here is identical to the pure-Python filtered/exact
 *   path.  The moment ANY predicate is inconclusive the routine returns
 *   BW_RETRY without having mutated anything and the caller re-runs the
 *   Python path (which has the exact Fraction fallback).  This file must
 *   be compiled with -ffp-contract=off: FMA contraction would change
 *   the rounding behaviour the error bounds were derived for.
 * - Traversal orders replicate the Python implementation exactly — the
 *   walk's face order comes from the same inline LCG state, the cavity
 *   is enumerated by the same depth-first stack discipline, boundary
 *   faces are emitted in the same sequence, new tet slots are drawn
 *   from the free-list top (LIFO) before fresh tail slots, and the
 *   removal front replicates dict popitem()/del semantics.  These
 *   orders determine new tet ids and therefore the entire downstream
 *   mesh, so they are part of the deterministic output contract
 *   (tests/test_kernel_parity.py).
 * - Mutation is strictly deferred: the read phases (walk, cavity,
 *   validation, closure, hole filling) only read mesh arrays and write
 *   caller-owned scratch; the commit phase writes the mesh arrays and
 *   cannot fail.  Error returns (duplicate point / point on a cavity
 *   face / open boundary) are decided before any mutation, mirroring
 *   InsertionError semantics.
 *
 * The edge hash table and the cavity tag array are epoch-stamped with
 * the caller's generation counter, so they are never cleared between
 * calls.
 */

#include <math.h>
#include <stdint.h>

#define BW_OK 0
#define BW_RETRY 1
#define BW_ERR_DUP 2
#define BW_ERR_FACE 3
#define BW_ERR_CLOSED 4

#define EPSILON 1.1102230246251565e-16 /* 2^-53 */

static const double ORIENT3D_BOUND = (16.0 + 128.0 * EPSILON) * EPSILON;
static const double INSPHERE_BOUND = (64.0 + 512.0 * EPSILON) * EPSILON;

/* Sign of orient3d(a, b, c, d), or 2 when the filter is inconclusive
 * (which includes every exact zero).  Mirrors predicates._orient3d_float
 * term for term. */
static int orient3d_f(const double *a, const double *b, const double *c,
                      const double *d)
{
    double adx = a[0] - d[0], ady = a[1] - d[1], adz = a[2] - d[2];
    double bdx = b[0] - d[0], bdy = b[1] - d[1], bdz = b[2] - d[2];
    double cdx = c[0] - d[0], cdy = c[1] - d[1], cdz = c[2] - d[2];

    double bdxcdy = bdx * cdy, cdxbdy = cdx * bdy;
    double cdxady = cdx * ady, adxcdy = adx * cdy;
    double adxbdy = adx * bdy, bdxady = bdx * ady;

    double det = adz * (bdxcdy - cdxbdy)
               + bdz * (cdxady - adxcdy)
               + cdz * (adxbdy - bdxady);
    double permanent = (fabs(bdxcdy) + fabs(cdxbdy)) * fabs(adz)
                     + (fabs(cdxady) + fabs(adxcdy)) * fabs(bdz)
                     + (fabs(adxbdy) + fabs(bdxady)) * fabs(cdz);
    double bound = ORIENT3D_BOUND * permanent;
    if (det > bound)
        return 1;
    if (det < -bound)
        return -1;
    return 2;
}

/* Sign of insphere(a, b, c, d, e) for a positively oriented tet, or 2
 * when inconclusive.  Mirrors predicates._insphere_float term for term. */
static int insphere_f(const double *a, const double *b, const double *c,
                      const double *d, double ex, double ey, double ez)
{
    double aex = a[0] - ex, aey = a[1] - ey, aez = a[2] - ez;
    double bex = b[0] - ex, bey = b[1] - ey, bez = b[2] - ez;
    double cex = c[0] - ex, cey = c[1] - ey, cez = c[2] - ez;
    double dex = d[0] - ex, dey = d[1] - ey, dez = d[2] - ez;

    double aexbey = aex * bey, bexaey = bex * aey;
    double ab = aexbey - bexaey;
    double bexcey = bex * cey, cexbey = cex * bey;
    double bc = bexcey - cexbey;
    double cexdey = cex * dey, dexcey = dex * cey;
    double cd = cexdey - dexcey;
    double dexaey = dex * aey, aexdey = aex * dey;
    double da = dexaey - aexdey;
    double aexcey = aex * cey, cexaey = cex * aey;
    double ac = aexcey - cexaey;
    double bexdey = bex * dey, dexbey = dex * bey;
    double bd = bexdey - dexbey;

    double abc = aez * bc - bez * ac + cez * ab;
    double bcd = bez * cd - cez * bd + dez * bc;
    double cda = cez * da + dez * ac + aez * cd;
    double dab = dez * ab + aez * bd + bez * da;

    double alift = aex * aex + aey * aey + aez * aez;
    double blift = bex * bex + bey * bey + bez * bez;
    double clift = cex * cex + cey * cey + cez * cez;
    double dlift = dex * dex + dey * dey + dez * dez;

    double det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd);

    double aezp = fabs(aez), bezp = fabs(bez);
    double cezp = fabs(cez), dezp = fabs(dez);
    double permanent =
        ((fabs(cexdey) + fabs(dexcey)) * bezp
         + (fabs(dexbey) + fabs(bexdey)) * cezp
         + (fabs(bexcey) + fabs(cexbey)) * dezp) * alift
        + ((fabs(dexaey) + fabs(aexdey)) * cezp
           + (fabs(aexcey) + fabs(cexaey)) * dezp
           + (fabs(cexdey) + fabs(dexcey)) * aezp) * blift
        + ((fabs(aexbey) + fabs(bexaey)) * dezp
           + (fabs(bexdey) + fabs(dexbey)) * aezp
           + (fabs(dexaey) + fabs(aexdey)) * bezp) * clift
        + ((fabs(bexcey) + fabs(cexbey)) * aezp
           + (fabs(cexaey) + fabs(aexcey)) * bezp
           + (fabs(aexbey) + fabs(bexaey)) * cezp) * dlift;
    double bound = INSPHERE_BOUND * permanent;
    if (det > bound)
        return 1;
    if (det < -bound)
        return -1;
    return 2;
}

static int insphere_tet(const double *coords, const int32_t *v,
                        double ex, double ey, double ez)
{
    return insphere_f(coords + 3 * (int64_t)v[0],
                      coords + 3 * (int64_t)v[1],
                      coords + 3 * (int64_t)v[2],
                      coords + 3 * (int64_t)v[3], ex, ey, ez);
}

/* ---- phase A1: remembering walk (read-only).  *t_io / *state_io are
 * updated in place; returns BW_OK when *t_io contains the point. ---- */
static int64_t walk_locate(const double *coords, const int32_t *tv,
                           const int32_t *adj, double px, double py,
                           double pz, int64_t n_live, int64_t *t_io,
                           uint64_t *state_io, int64_t *steps_io,
                           int64_t *n_orient_io)
{
    int64_t t = *t_io;
    uint64_t state = *state_io;
    const int64_t max_steps = n_live * 2 + 64;
    int64_t steps = 0;
    for (;;) {
        if (steps >= max_steps)
            return BW_RETRY; /* cycling: let Python raise */
        steps++;
        const int32_t *v = tv + 4 * t;
        if (v[0] < 0) {
            *steps_io += steps;
            return BW_RETRY; /* tet died under our feet */
        }
        double pq[3] = {px, py, pz};
        const double *q[4] = {coords + 3 * (int64_t)v[0],
                              coords + 3 * (int64_t)v[1],
                              coords + 3 * (int64_t)v[2],
                              coords + 3 * (int64_t)v[3]};
        state = (state * 1103515245ULL + 12345ULL) & 0x7FFFFFFFULL;
        int start = (int)((state >> 13) & 3);
        int moved = 0;
        for (int k = 0; k < 4; k++) {
            int i = (start + k) & 3;
            const double *save = q[i];
            q[i] = pq;
            int s = orient3d_f(q[0], q[1], q[2], q[3]);
            q[i] = save;
            (*n_orient_io)++;
            if (s == 2) {
                *steps_io += steps;
                return BW_RETRY;
            }
            if (s < 0) {
                int32_t nbr = adj[4 * t + i];
                if (nbr < 0) {
                    *steps_io += steps;
                    return BW_RETRY; /* escapes the box: Python raises */
                }
                t = nbr;
                moved = 1;
                break;
            }
        }
        if (!moved)
            break;
    }
    *t_io = t;
    *state_io = state;
    *steps_io += steps;
    return BW_OK;
}

/* ---- phase A2: cavity search (reads mesh, writes scratch).  Emits the
 * cavity tets into cav[] and boundary codes (tt*4+i) into bnd[] in the
 * exact depth-first order of the Python kernel. ---- */
static int64_t cavity_search(const double *coords, const int32_t *tv,
                             const int32_t *adj, int64_t *tag, int32_t *cav,
                             int32_t *bnd, int32_t *stk, double px, double py,
                             double pz, int64_t t0, int64_t gen, int64_t scap,
                             int64_t *ncav_out, int64_t *nb_out,
                             int64_t *n_insphere_io)
{
    const int64_t genout = gen + 1;
    int64_t ncav = 0, nb = 0;
    {
        int s0 = insphere_tet(coords, tv + 4 * t0, px, py, pz);
        (*n_insphere_io)++;
        if (s0 == 2)
            return BW_RETRY;
        if (s0 < 0)
            return BW_ERR_DUP; /* located tet not in conflict */
    }
    tag[t0] = gen;
    cav[ncav++] = (int32_t)t0;
    int64_t sp = 0;
    stk[sp++] = (int32_t)t0;
    while (sp > 0) {
        int64_t tt = stk[--sp];
        const int32_t *arow = adj + 4 * tt;
        for (int i = 0; i < 4; i++) {
            int32_t nbr = arow[i];
            if (nbr < 0) { /* HULL */
                if (nb >= scap)
                    return BW_RETRY;
                bnd[nb++] = (int32_t)(tt * 4 + i);
                continue;
            }
            int64_t tg = tag[nbr];
            if (tg == gen)
                continue;
            if (tg == genout) {
                if (nb >= scap)
                    return BW_RETRY;
                bnd[nb++] = (int32_t)(tt * 4 + i);
                continue;
            }
            int s = insphere_tet(coords, tv + 4 * (int64_t)nbr, px, py, pz);
            (*n_insphere_io)++;
            if (s == 2)
                return BW_RETRY;
            if (s > 0) {
                if (ncav >= scap || sp >= scap)
                    return BW_RETRY;
                tag[nbr] = gen;
                cav[ncav++] = nbr;
                stk[sp++] = nbr;
            } else {
                if (nb >= scap)
                    return BW_RETRY;
                tag[nbr] = genout;
                bnd[nb++] = (int32_t)(tt * 4 + i);
            }
        }
    }
    *ncav_out = ncav;
    *nb_out = nb;
    return BW_OK;
}

/* ---- phases A3-B: validation, closure check, slot allocation, commit.
 * cav/bnd hold a precomputed cavity; nothing is mutated on a non-OK
 * return.  free_top holds the next n_avail free-list pops (top first)
 * out of n_free_total total entries; allocation beyond the visible
 * window (or past cap_t) RETRYs. ---- */
static int64_t commit_cavity(const double *coords, int32_t *tv, int32_t *adj,
                             const int32_t *free_top, const int32_t *cav,
                             const int32_t *bnd, int32_t *newt, int64_t *ekey,
                             int64_t *estamp, int32_t *eval, int32_t *pairs,
                             double px, double py, double pz, int64_t gen,
                             int32_t vnew, int64_t tail, int64_t cap_t,
                             int64_t n_avail, int64_t n_free_total,
                             int64_t tcap, int64_t ncav, int64_t nb,
                             int64_t *consumed_out, int64_t *nfresh_out,
                             int64_t *n_orient_io)
{
    int64_t consumed = 0, nfresh = 0;

    /* A3: every new tet (boundary face with the cavity-side vertex
     * replaced by p) must be strictly positively oriented, i.e. the
     * cavity is star-shaped around p. */
    for (int64_t r = 0; r < nb; r++) {
        int64_t tt = bnd[r] >> 2;
        int ii = bnd[r] & 3;
        const int32_t *w = tv + 4 * tt;
        double pq[3] = {px, py, pz};
        const double *q[4];
        for (int j = 0; j < 4; j++)
            q[j] = (j == ii) ? pq : coords + 3 * (int64_t)w[j];
        int o = orient3d_f(q[0], q[1], q[2], q[3]);
        (*n_orient_io)++;
        if (o == 2)
            return BW_RETRY;
        if (o < 0)
            return BW_ERR_FACE;
    }

    /* A4: closed-surface check + internal-face pairing.  Each
     * boundary-triangle edge must be shared by exactly two boundary
     * faces; the two new tets over those faces are adjacent across the
     * local slot opposite the edge. */
    if (3 * nb > tcap / 2)
        return BW_RETRY; /* keep the open-addressing table sparse */
    const uint64_t mask = (uint64_t)(tcap - 1);
    int64_t npairs = 0;
    for (int64_t r = 0; r < nb; r++) {
        int64_t tt = bnd[r] >> 2;
        int ii = bnd[r] & 3;
        const int32_t *w = tv + 4 * tt;
        int kept[3];
        int nk = 0;
        for (int j = 0; j < 4; j++)
            if (j != ii)
                kept[nk++] = j;
        for (int m = 0; m < 3; m++) {
            /* edges (kept0,kept1), (kept0,kept2), (kept1,kept2) sit
             * opposite local slots kept2, kept1, kept0 respectively */
            int ja = kept[m == 2 ? 1 : 0];
            int jb = kept[m == 0 ? 1 : 2];
            int slot = kept[2 - m];
            int64_t ga = w[ja], gb = w[jb];
            int64_t lo = ga < gb ? ga : gb;
            int64_t hi = ga < gb ? gb : ga;
            int64_t key = (lo << 32) | hi;
            uint64_t idx = ((uint64_t)key * 0x9E3779B97F4A7C15ULL >> 32)
                           & mask;
            for (;;) {
                if (estamp[idx] != gen) { /* empty (this call) */
                    estamp[idx] = gen;
                    ekey[idx] = key;
                    eval[idx] = (int32_t)(r * 4 + slot);
                    break;
                }
                if (ekey[idx] == key) {
                    int32_t prev = eval[idx];
                    if (prev < 0) /* third face on one edge */
                        return BW_ERR_CLOSED;
                    pairs[2 * npairs] = prev;
                    pairs[2 * npairs + 1] = (int32_t)(r * 4 + slot);
                    npairs++;
                    eval[idx] = -2;
                    break;
                }
                idx = (idx + 1) & mask;
            }
        }
    }
    if (npairs * 2 != 3 * nb)
        return BW_ERR_CLOSED; /* some edge only appeared once */

    /* A5: slot allocation (scratch only; mirrors the free-list LIFO
     * pops then fresh tail slots of add_tets_batch). */
    for (int64_t r = 0; r < nb; r++) {
        int32_t slot;
        if (consumed < n_avail) {
            slot = free_top[consumed++];
        } else if (consumed < n_free_total) {
            return BW_RETRY; /* free-list window smaller than the cavity */
        } else {
            if (tail + nfresh >= cap_t)
                return BW_RETRY; /* arrays need growth: Python path */
            slot = (int32_t)(tail + nfresh);
            nfresh++;
        }
        newt[r] = slot;
    }

    /* phase B: commit (cannot fail). */
    for (int64_t r = 0; r < nb; r++) {
        int64_t tt = bnd[r] >> 2;
        int ii = bnd[r] & 3;
        int64_t nt = newt[r];
        const int32_t *src = tv + 4 * tt; /* cavity rows stay intact here */
        int32_t *dv = tv + 4 * nt;
        int32_t *da = adj + 4 * nt;
        for (int j = 0; j < 4; j++) {
            dv[j] = (j == ii) ? vnew : src[j];
            da[j] = -1;
        }
        int32_t ext = adj[4 * tt + ii];
        da[ii] = ext;
        if (ext >= 0) {
            /* redirect the outside neighbor's back-pointer */
            int32_t *erow = adj + 4 * (int64_t)ext;
            for (int f = 0; f < 4; f++) {
                if (erow[f] == (int32_t)tt) {
                    erow[f] = (int32_t)nt;
                    break;
                }
            }
        }
    }
    for (int64_t m = 0; m < npairs; m++) {
        int32_t a = pairs[2 * m], b = pairs[2 * m + 1];
        adj[4 * (int64_t)newt[a >> 2] + (a & 3)] = newt[b >> 2];
        adj[4 * (int64_t)newt[b >> 2] + (b & 3)] = newt[a >> 2];
    }
    for (int64_t j = 0; j < ncav; j++) {
        int32_t *q = tv + 4 * (int64_t)cav[j];
        q[0] = q[1] = q[2] = q[3] = -1;
    }
    *consumed_out = consumed;
    *nfresh_out = nfresh;
    return BW_OK;
}

/* One insertion attempt.
 *
 * in_f:  [px, py, pz]
 * in_i:  [seed_tet, rng_state, n_live_tets, gen, vnew, tail, cap_t,
 *         n_free_avail, n_free_total, scratch_cap, table_cap]
 * out_i: [ncav, nb, consumed_free, n_fresh, walk_steps, rng_state_out,
 *         located_tet, n_orient, n_insphere]
 *
 * tag is an epoch-stamped per-tet scratch (>= cap_t entries); gen and
 * gen+1 mark in-cavity / checked-out for this call only.  ekey/estamp/
 * eval form the epoch-stamped edge hash table (table_cap a power of 2).
 * free_top holds the next n_free_avail free-list pops (top first) out
 * of n_free_total total entries.
 */
int64_t bw_insert(const double *coords, int32_t *tv, int32_t *adj,
                  int64_t *tag, const int32_t *free_top, int32_t *cav,
                  int32_t *bnd, int32_t *newt, int32_t *stk, int64_t *ekey,
                  int64_t *estamp, int32_t *eval, int32_t *pairs,
                  const double *in_f, const int64_t *in_i, int64_t *out_i)
{
    const double px = in_f[0], py = in_f[1], pz = in_f[2];
    int64_t t = in_i[0];
    uint64_t state = (uint64_t)in_i[1];
    const int64_t gen = in_i[3];

    int64_t ncav = 0, nb = 0, consumed = 0, nfresh = 0;
    int64_t steps = 0, n_orient = 0, n_insphere = 0;
    int64_t code;

#define FINISH(c)                                                           \
    do {                                                                    \
        out_i[0] = ncav; out_i[1] = nb;                                     \
        out_i[2] = consumed; out_i[3] = nfresh;                             \
        out_i[4] = steps; out_i[5] = (int64_t)state;                        \
        out_i[6] = t; out_i[7] = n_orient; out_i[8] = n_insphere;           \
        return (c);                                                         \
    } while (0)

    code = walk_locate(coords, tv, adj, px, py, pz, in_i[2], &t, &state,
                       &steps, &n_orient);
    if (code != BW_OK)
        return code;
    code = cavity_search(coords, tv, adj, tag, cav, bnd, stk, px, py, pz, t,
                         gen, in_i[9], &ncav, &nb, &n_insphere);
    if (code == BW_RETRY)
        return code;
    if (code != BW_OK)
        FINISH(code);
    code = commit_cavity(coords, tv, adj, free_top, cav, bnd, newt, ekey,
                         estamp, eval, pairs, px, py, pz, gen,
                         (int32_t)in_i[4], in_i[5], in_i[6], in_i[7],
                         in_i[8], in_i[10], ncav, nb, &consumed, &nfresh,
                         &n_orient);
    if (code == BW_RETRY)
        return code;
    FINISH(code);
#undef FINISH
}

/* Commit a cavity the caller already computed and lock-validated (the
 * two-phase speculative path).  cav holds ncav cavity tet ids, bnd the
 * nb boundary codes (tt*4+i) in Python's emission order.
 *
 * in_f:  [px, py, pz]
 * in_i:  [gen, vnew, tail, cap_t, n_avail, n_free_total, table_cap,
 *         ncav, nb]
 * out_i: [consumed_free, n_fresh, n_orient]
 */
int64_t bw_commit(const double *coords, int32_t *tv, int32_t *adj,
                  const int32_t *free_top, const int32_t *cav,
                  const int32_t *bnd, int32_t *newt, int64_t *ekey,
                  int64_t *estamp, int32_t *eval, int32_t *pairs,
                  const double *in_f, const int64_t *in_i, int64_t *out_i)
{
    int64_t consumed = 0, nfresh = 0, n_orient = 0;
    int64_t code = commit_cavity(
        coords, tv, adj, free_top, cav, bnd, newt, ekey, estamp, eval, pairs,
        in_f[0], in_f[1], in_f[2], in_i[0], (int32_t)in_i[1], in_i[2],
        in_i[3], in_i[4], in_i[5], in_i[6], in_i[7], in_i[8], &consumed,
        &nfresh, &n_orient);
    out_i[0] = consumed;
    out_i[1] = nfresh;
    out_i[2] = n_orient;
    return code;
}

/* A batch of insertion attempts (the initial-sampling fast path).
 *
 * Caller guarantees the vertex free list is empty, so the k-th
 * committed point gets vertex id v_base + k; this routine writes the
 * new coords rows itself so later points' predicates see them.  The tet
 * free list is maintained internally in fstk (initialized from the
 * top-first window free_top); the batch stops — reporting progress —
 * at the first point needing anything it cannot do conclusively
 * in-place (filter failure, growth, deep free-list entries, scratch
 * overflow, any error status).  The walk seed for point k+1 is the tet
 * located for point k (remembering walk).
 *
 * Per committed insert, rec receives
 *   [ncav, nb, consumed, cav ids..., new tet ids..., 4*nb vert ids...]
 * which is exactly what the Python side needs to replay its own
 * bookkeeping (free lists, epochs, v2t anchors) in order.
 *
 * in_f:  the (npts, 3) points
 * in_i:  [seed_tet, rng_state, n_live, gen0, v_base, tail, cap_t,
 *         n_avail, n_free_total, scratch_cap, table_cap, npts, cap_v,
 *         fstk_cap, rec_cap]
 * out_i: [n_done, n_gens, rng_state_out, last_located, walk_steps,
 *         n_orient, n_insphere, cavity_tets_total, rec_len, n_live_out,
 *         tail_out]
 */
int64_t bw_insert_many(double *coords, int32_t *tv, int32_t *adj,
                       int64_t *tag, const int32_t *free_top, int32_t *cav,
                       int32_t *bnd, int32_t *newt, int32_t *stk,
                       int64_t *ekey, int64_t *estamp, int32_t *eval,
                       int32_t *pairs, int32_t *fstk, int32_t *fwin,
                       int32_t *rec, const double *in_f, const int64_t *in_i,
                       int64_t *out_i)
{
    int64_t t = in_i[0];
    uint64_t state = (uint64_t)in_i[1];
    int64_t n_live = in_i[2];
    int64_t gen = in_i[3];
    int64_t vnew = in_i[4];
    int64_t tail = in_i[5];
    const int64_t cap_t = in_i[6];
    const int64_t n_avail = in_i[7];
    const int64_t deep = in_i[8] - in_i[7]; /* free entries below window */
    const int64_t scap = in_i[9];
    const int64_t tcap = in_i[10];
    const int64_t npts = in_i[11];
    const int64_t cap_v = in_i[12];
    const int64_t fstk_cap = in_i[13];
    const int64_t rec_cap = in_i[14];

    int64_t sp = 0;
    for (int64_t j = 0; j < n_avail; j++) /* bottom-up: top ends last */
        fstk[sp++] = free_top[n_avail - 1 - j];

    int64_t n_done = 0, n_gens = 0, steps = 0;
    int64_t n_orient = 0, n_insphere = 0, cav_total = 0, rec_len = 0;

    for (int64_t k = 0; k < npts; k++) {
        if (vnew >= cap_v)
            break; /* coords need growth: Python path */
        const double px = in_f[3 * k];
        const double py = in_f[3 * k + 1];
        const double pz = in_f[3 * k + 2];
        int64_t ncav = 0, nb = 0, consumed = 0, nfresh = 0;
        int64_t t_try = t;
        uint64_t state_try = state;
        n_gens++;
        if (walk_locate(coords, tv, adj, px, py, pz, n_live, &t_try,
                        &state_try, &steps, &n_orient) != BW_OK)
            break;
        if (cavity_search(coords, tv, adj, tag, cav, bnd, stk, px, py, pz,
                          t_try, gen, scap, &ncav, &nb,
                          &n_insphere) != BW_OK)
            break; /* RETRY and ERR_DUP both resolve on the scalar path */
        /* Visible free window for this insert: the top min(sp, nb)
         * stack entries, top first. */
        int64_t win = sp < nb ? sp : nb;
        for (int64_t j = 0; j < win; j++)
            fwin[j] = fstk[sp - 1 - j];
        if (rec_len + 3 + ncav + 5 * nb > rec_cap)
            break;
        if (sp + ncav > fstk_cap)
            break;
        if (commit_cavity(coords, tv, adj, fwin, cav, bnd, newt, ekey,
                          estamp, eval, pairs, px, py, pz, gen,
                          (int32_t)vnew, tail, cap_t, win, sp + deep, tcap,
                          ncav, nb, &consumed, &nfresh, &n_orient) != BW_OK)
            break;
        /* committed: update the local allocator state + replay record */
        sp -= consumed;
        for (int64_t j = 0; j < ncav; j++)
            fstk[sp++] = cav[j];
        rec[rec_len++] = (int32_t)ncav;
        rec[rec_len++] = (int32_t)nb;
        rec[rec_len++] = (int32_t)consumed;
        for (int64_t j = 0; j < ncav; j++)
            rec[rec_len++] = cav[j];
        for (int64_t r = 0; r < nb; r++)
            rec[rec_len++] = newt[r];
        for (int64_t r = 0; r < nb; r++) {
            const int32_t *dv = tv + 4 * (int64_t)newt[r];
            rec[rec_len++] = dv[0];
            rec[rec_len++] = dv[1];
            rec[rec_len++] = dv[2];
            rec[rec_len++] = dv[3];
        }
        double *cr = coords + 3 * vnew;
        cr[0] = px;
        cr[1] = py;
        cr[2] = pz;
        vnew++;
        tail += nfresh;
        n_live += nb - ncav;
        cav_total += ncav;
        /* The located tet just died with the cavity; seed the next walk
         * from the first new tet (the scalar path's hint convention). */
        t = newt[0];
        state = state_try;
        gen += 2;
        n_done++;
    }

    out_i[0] = n_done;
    out_i[1] = n_gens;
    out_i[2] = (int64_t)state;
    out_i[3] = t;
    out_i[4] = steps;
    out_i[5] = n_orient;
    out_i[6] = n_insphere;
    out_i[7] = cav_total;
    out_i[8] = rec_len;
    out_i[9] = n_live;
    out_i[10] = tail;
    return n_done;
}

/* ---- vertex removal: gift-wrap hole filling ----------------------------
 *
 * Replicates Triangulation3D._fill_hole_giftwrap exactly for the
 * conclusive case: an advancing front seeded with the hole's boundary
 * faces, apex selection by empty-circumsphere sweep over the sorted
 * link.  ANY inconclusive filter — which includes every exact zero, and
 * therefore every cospherical tie and every degenerate sweep the Python
 * code has special handling for — returns BW_REMOVE_RETRY, and the
 * caller re-runs the pure-Python strategies.  Nothing is mutated: the
 * routine only reads coords and writes caller-owned scratch.
 *
 * The front replicates Python dict semantics: entries are appended in
 * insertion order, popitem() takes the most recently inserted alive
 * entry, cancellation tombstones an entry in place.  Lookups scan the
 * alive entries linearly — fronts are tens of faces, so this beats a
 * hash table's constant factor.
 *
 * faces:  nh * 5 ints: [template0..3, slot] per hole face, in
 *         hole_faces insertion order (= ball order).
 * link:   nl sorted link vertex ids.
 * ents:   entry scratch, ent_cap * 9 ints:
 *         [key0, key1, key2, t0, t1, t2, t3, slot, alive].
 * cand:   nl ints (candidate scratch).
 * fill:   fill_cap * 4 output tet ids (template order, apex at slot).
 * canon:  fill_cap * 4 sorted tet ids (duplicate detection).
 * in_i:   [nh, nl, n_ball, ent_cap, fill_cap]
 * out_i:  [n_orient, n_insphere]
 * Returns n_fill >= 0, or -1 (retry: run the Python strategies).
 */
#define BW_REMOVE_RETRY (-1)

int64_t bw_remove(const double *coords, const int32_t *faces,
                  const int32_t *link, int32_t *ents, int32_t *cand,
                  int32_t *fill, int32_t *canon, const int64_t *in_i,
                  int64_t *out_i)
{
    const int64_t nh = in_i[0];
    const int64_t nl = in_i[1];
    const int64_t n_ball = in_i[2];
    const int64_t ent_cap = in_i[3];
    const int64_t fill_cap = in_i[4];
    int64_t n_orient = 0, n_insphere = 0;
    int64_t n_ents = 0, n_alive = 0, n_fill = 0;

#define REMOVE_DONE(r)                                                      \
    do {                                                                    \
        out_i[0] = n_orient; out_i[1] = n_insphere;                         \
        return (r);                                                         \
    } while (0)

    if (nh > ent_cap)
        REMOVE_DONE(BW_REMOVE_RETRY);
    for (int64_t f = 0; f < nh; f++) {
        const int32_t *src = faces + 5 * f;
        int32_t *e = ents + 9 * n_ents;
        int32_t k[3];
        int nk = 0;
        for (int j = 0; j < 4; j++)
            if (j != src[4])
                k[nk++] = src[j];
        /* sort the 3 face ids (the dict key) */
        int32_t tmp;
        if (k[0] > k[1]) { tmp = k[0]; k[0] = k[1]; k[1] = tmp; }
        if (k[1] > k[2]) { tmp = k[1]; k[1] = k[2]; k[2] = tmp; }
        if (k[0] > k[1]) { tmp = k[0]; k[0] = k[1]; k[1] = tmp; }
        e[0] = k[0]; e[1] = k[1]; e[2] = k[2];
        e[3] = src[0]; e[4] = src[1]; e[5] = src[2]; e[6] = src[3];
        e[7] = src[4];
        e[8] = 1;
        n_ents++;
        n_alive++;
    }

    const int64_t max_iter = 8 * n_ball + 64;
    int64_t it = 0;
    int64_t top = n_ents - 1;
    while (n_alive > 0) {
        if (++it > max_iter)
            REMOVE_DONE(BW_REMOVE_RETRY); /* did not converge */
        while (top >= 0 && !ents[9 * top + 8])
            top--;
        int32_t *e = ents + 9 * top;
        e[8] = 0;
        n_alive--;
        top--; /* the next popitem starts below (appends move it back up) */
        int32_t template_[4] = {e[3], e[4], e[5], e[6]};
        const int slot = e[7];

        const double *q[4];
        for (int j = 0; j < 4; j++)
            q[j] = coords + 3 * (int64_t)template_[j];

        int64_t n_cand = 0;
        int32_t best = -1;
        for (int64_t w = 0; w < nl; w++) {
            int32_t cv = link[w];
            if (cv == template_[(slot + 1) & 3]
                || cv == template_[(slot + 2) & 3]
                || cv == template_[(slot + 3) & 3])
                continue; /* face vertex */
            const double *save = q[slot];
            q[slot] = coords + 3 * (int64_t)cv;
            int o = orient3d_f(q[0], q[1], q[2], q[3]);
            q[slot] = save;
            n_orient++;
            if (o == 2)
                REMOVE_DONE(BW_REMOVE_RETRY);
            if (o < 0)
                continue;
            cand[n_cand++] = cv;
            if (best < 0) {
                best = cv;
                continue;
            }
            const double *b0 = q[0], *b1 = q[1], *b2 = q[2], *b3 = q[3];
            const double *bq[4] = {b0, b1, b2, b3};
            bq[slot] = coords + 3 * (int64_t)best;
            const double *cp = coords + 3 * (int64_t)cv;
            int s = insphere_f(bq[0], bq[1], bq[2], bq[3], cp[0], cp[1],
                               cp[2]);
            n_insphere++;
            if (s == 2)
                REMOVE_DONE(BW_REMOVE_RETRY);
            if (s > 0)
                best = cv;
        }
        if (best < 0) /* no apex: Python raises -> strategy fallback */
            REMOVE_DONE(BW_REMOVE_RETRY);
        /* Dominance re-check.  A conclusive s > 0 makes Python raise
         * (strategy fallback); an exact zero (cospherical tie) is never
         * conclusive here, so the tie handling stays in Python. */
        {
            const double *bq[4];
            for (int j = 0; j < 4; j++)
                bq[j] = (j == slot) ? coords + 3 * (int64_t)best : q[j];
            for (int64_t w = 0; w < n_cand; w++) {
                if (cand[w] == best)
                    continue;
                const double *cp = coords + 3 * (int64_t)cand[w];
                int s = insphere_f(bq[0], bq[1], bq[2], bq[3], cp[0], cp[1],
                                   cp[2]);
                n_insphere++;
                if (s != -1)
                    REMOVE_DONE(BW_REMOVE_RETRY);
            }
        }

        int32_t nv[4] = {template_[0], template_[1], template_[2],
                         template_[3]};
        nv[slot] = best;
        if (n_fill >= fill_cap)
            REMOVE_DONE(BW_REMOVE_RETRY);
        {
            int32_t c[4] = {nv[0], nv[1], nv[2], nv[3]};
            int32_t tmp;
            for (int a = 0; a < 3; a++)
                for (int b = 0; b < 3 - a; b++)
                    if (c[b] > c[b + 1]) {
                        tmp = c[b]; c[b] = c[b + 1]; c[b + 1] = tmp;
                    }
            for (int64_t m = 0; m < n_fill; m++) {
                const int32_t *cm = canon + 4 * m;
                if (cm[0] == c[0] && cm[1] == c[1] && cm[2] == c[2]
                    && cm[3] == c[3])
                    REMOVE_DONE(BW_REMOVE_RETRY); /* repeated tet */
            }
            int32_t *cm = canon + 4 * n_fill;
            cm[0] = c[0]; cm[1] = c[1]; cm[2] = c[2]; cm[3] = c[3];
        }
        int32_t *out = fill + 4 * n_fill;
        out[0] = nv[0]; out[1] = nv[1]; out[2] = nv[2]; out[3] = nv[3];
        n_fill++;

        /* Push / cancel the three faces containing the new apex. */
        for (int j = 0; j < 4; j++) {
            if (j == slot)
                continue;
            int32_t k[3];
            int nk = 0;
            for (int m = 0; m < 4; m++)
                if (m != j)
                    k[nk++] = nv[m];
            int32_t tmp;
            if (k[0] > k[1]) { tmp = k[0]; k[0] = k[1]; k[1] = tmp; }
            if (k[1] > k[2]) { tmp = k[1]; k[1] = k[2]; k[2] = tmp; }
            if (k[0] > k[1]) { tmp = k[0]; k[0] = k[1]; k[1] = tmp; }
            int64_t found = -1;
            for (int64_t m = n_ents - 1; m >= 0; m--) {
                int32_t *em = ents + 9 * m;
                if (em[8] && em[0] == k[0] && em[1] == k[1] && em[2] == k[2]) {
                    found = m;
                    break;
                }
            }
            if (found >= 0) {
                ents[9 * found + 8] = 0;
                n_alive--;
            } else {
                if (n_ents >= ent_cap)
                    REMOVE_DONE(BW_REMOVE_RETRY);
                /* Flip parity so an apex beyond this face orients
                 * positively: swap two slots other than j. */
                int32_t fv[4] = {nv[0], nv[1], nv[2], nv[3]};
                int o0 = -1, o1 = -1;
                for (int m = 0; m < 4; m++) {
                    if (m == j)
                        continue;
                    if (o0 < 0)
                        o0 = m;
                    else if (o1 < 0)
                        o1 = m;
                }
                tmp = fv[o0]; fv[o0] = fv[o1]; fv[o1] = tmp;
                int32_t *en = ents + 9 * n_ents;
                en[0] = k[0]; en[1] = k[1]; en[2] = k[2];
                en[3] = fv[0]; en[4] = fv[1]; en[5] = fv[2]; en[6] = fv[3];
                en[7] = j;
                en[8] = 1;
                if (n_ents > top)
                    top = n_ents;
                n_ents++;
                n_alive++;
            }
        }
    }
    REMOVE_DONE(n_fill);
#undef REMOVE_DONE
}

/* ------------------------------------------------------------------
 * Surface oracle (imaging/isosurface.py, Section 3).
 *
 * iso_probe, iso_closest and iso_crossing replay SurfaceOracle's
 * nearest-site lookup, march and bisection with the same double
 * operations in the same order, so every returned point is
 * bit-identical to the Python reference; like the filters above, that
 * relies on -ffp-contract=off.  math.dist is not replayed (CPython's
 * algorithm is not the naive root of the sum of squares): distances
 * stay in Python.  The kernels read only the immutable iso_image and
 * return their answer by value, so concurrent callers share nothing.
 * Inputs the Python code could treat differently (non-finite
 * coordinates, marches too long to replay exactly) yield ISO_FALLBACK
 * and the caller runs the Python path instead.
 */

#define ISO_MISS 0
#define ISO_HIT 1
#define ISO_FALLBACK (-1)

/* Longest march replayed in C: k * step stays exact and the bisection
 * interval can always shrink below its tolerance. */
#define ISO_MAX_STEPS 4294967296.0 /* 2^32 */

typedef struct {
    const int16_t *labels;   /* C-order label volume */
    const int64_t *feature;  /* C-order flat index of the nearest site */
    int64_t nx, ny, nz;
    double ox, oy, oz;       /* origin */
    double sx, sy, sz;       /* spacing */
    double step;             /* march step: 0.25 * min spacing */
    double tol;              /* bisection tolerance: 1e-3 * min spacing */
    double overshoot;        /* march past the site: 2 * max spacing */
} iso_image;

typedef struct {
    double x, y, z;  /* iso_closest / iso_crossing: the surface point */
    int64_t label;   /* iso_probe: label at p */
    int64_t site;    /* iso_probe: flat index of the nearest site */
    int64_t status;
} iso_result;

/* SegmentedImage.label_at: points outside the image are background. */
static inline int64_t iso_label(const iso_image *im, double px, double py,
                                double pz)
{
    double rx = (px - im->ox) / im->sx;
    if (!(rx >= 0.0 && rx < (double)im->nx))
        return 0;
    double ry = (py - im->oy) / im->sy;
    if (!(ry >= 0.0 && ry < (double)im->ny))
        return 0;
    double rz = (pz - im->oz) / im->sz;
    if (!(rz >= 0.0 && rz < (double)im->nz))
        return 0;
    return im->labels[((int64_t)rx * im->ny + (int64_t)ry) * im->nz
                      + (int64_t)rz];
}

/* SegmentedImage.voxel_of: index of the voxel holding r (clamped). */
static inline int64_t iso_clamp(double r, int64_t n)
{
    if (r <= 0.0)
        return 0;
    if (r >= (double)n)
        return n - 1;
    return (int64_t)r;
}

/* Flat index of the nearest site of p's (clamped) voxel. */
static inline int64_t iso_site(const iso_image *im, double px, double py,
                               double pz)
{
    int64_t i = iso_clamp((px - im->ox) / im->sx, im->nx);
    int64_t j = iso_clamp((py - im->oy) / im->sy, im->ny);
    int64_t k = iso_clamp((pz - im->oz) / im->sz, im->nz);
    return im->feature[(i * im->ny + j) * im->nz + k];
}

/* SegmentedImage.voxel_center of the voxel with flat index ``flat``. */
static void iso_center(const iso_image *im, int64_t flat, double *q)
{
    int64_t plane = im->ny * im->nz;
    int64_t si = flat / plane, rem = flat % plane;
    int64_t sj = rem / im->nz, sk = rem % im->nz;
    q[0] = im->ox + ((double)si + 0.5) * im->sx;
    q[1] = im->oy + ((double)sj + 0.5) * im->sy;
    q[2] = im->oz + ((double)sk + 0.5) * im->sz;
}

/* SurfaceOracle._march_segment + _bisect. */
static int64_t iso_march(const iso_image *im, double ax, double ay,
                         double az, double dx, double dy, double dz,
                         double march_length, double d_length,
                         iso_result *out)
{
    const double step = im->step;
    const double inv = 1.0 / d_length;
    const double ux = dx * inv, uy = dy * inv, uz = dz * inv;
    const double nd = ceil(march_length / step);
    if (!(nd <= ISO_MAX_STEPS) || !isfinite(ux) || !isfinite(uy)
        || !isfinite(uz))
        return ISO_FALLBACK;
    const int64_t n_steps = nd < 1.0 ? 1 : (int64_t)nd;
    double prev_t = 0.0;
    int64_t prev_label = iso_label(im, ax, ay, az);
    for (int64_t k = 1; k <= n_steps; k++) {
        double t = (double)k * step;
        if (march_length < t)
            t = march_length;
        int64_t lab = iso_label(im, ax + ux * t, ay + uy * t, az + uz * t);
        if (lab != prev_label) {
            double t_lo = prev_t, t_hi = t;
            while (t_hi - t_lo > im->tol) {
                double mid = 0.5 * (t_lo + t_hi);
                if (iso_label(im, ax + ux * mid, ay + uy * mid,
                              az + uz * mid) == prev_label)
                    t_lo = mid;
                else
                    t_hi = mid;
            }
            double tm = 0.5 * (t_lo + t_hi);
            out->x = ax + ux * tm;
            out->y = ay + uy * tm;
            out->z = az + uz * tm;
            return ISO_HIT;
        }
        prev_t = t;
        prev_label = lab;
    }
    return ISO_MISS;
}

/* Label at p and the flat index of p's nearest surface voxel
 * (SegmentedImage.label_at + SurfaceOracle.nearest_surface_voxel). */
iso_result iso_probe(const iso_image *im, double px, double py, double pz)
{
    iso_result r = {0.0, 0.0, 0.0, 0, 0, ISO_FALLBACK};
    if (!isfinite(px) || !isfinite(py) || !isfinite(pz))
        return r;
    r.site = iso_site(im, px, py, pz);
    r.label = iso_label(im, px, py, pz);
    r.status = ISO_HIT;
    return r;
}

/* SurfaceOracle.closest_surface_point. */
iso_result iso_closest(const iso_image *im, double px, double py, double pz)
{
    iso_result r = {0.0, 0.0, 0.0, 0, 0, ISO_FALLBACK};
    if (!isfinite(px) || !isfinite(py) || !isfinite(pz))
        return r;
    double q[3];
    iso_center(im, iso_site(im, px, py, pz), q);
    const double dx = q[0] - px, dy = q[1] - py, dz = q[2] - pz;
    const double length = sqrt(dx * dx + dy * dy + dz * dz);
    if (length == 0.0) {
        /* p is a surface-voxel center: probe one voxel along each axis
         * direction in the Python order (x+, x-, y+, y-, z+, z-). */
        const double sp[3] = {im->sx, im->sy, im->sz};
        for (int axis = 0; axis < 3; axis++) {
            for (int s = 0; s < 2; s++) {
                double d[3] = {0.0, 0.0, 0.0};
                d[axis] = (s == 0 ? 1.0 : -1.0) * sp[axis];
                r.status = iso_march(im, px, py, pz, d[0], d[1], d[2],
                                     sp[axis] + im->overshoot, sp[axis], &r);
                if (r.status != ISO_MISS)
                    return r;
            }
        }
        return r;
    }
    r.status = iso_march(im, px, py, pz, dx, dy, dz,
                         length + im->overshoot, length, &r);
    return r;
}

/* SurfaceOracle.surface_crossing: first crossing on segment a-b. */
iso_result iso_crossing(const iso_image *im, double ax, double ay,
                        double az, double bx, double by, double bz)
{
    iso_result r = {0.0, 0.0, 0.0, 0, 0, ISO_FALLBACK};
    if (!isfinite(ax) || !isfinite(ay) || !isfinite(az) || !isfinite(bx)
        || !isfinite(by) || !isfinite(bz))
        return r;
    const double dx = bx - ax, dy = by - ay, dz = bz - az;
    const double length = sqrt(dx * dx + dy * dy + dz * dz);
    if (length == 0.0) {
        r.status = ISO_MISS;
        return r;
    }
    r.status = iso_march(im, ax, ay, az, dx, dy, dz, length, length, &r);
    return r;
}
