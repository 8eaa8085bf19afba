#include "apps/barnes.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "base/logging.hh"
#include "base/random.hh"

namespace nowcluster {

namespace {

constexpr Tick kInsertStep = 200;
constexpr Tick kOpenCost = 700;
constexpr Tick kForceCost = 1200;
constexpr Tick kCacheHit = 60;
constexpr Tick kSummarizeCell = 300;

/** Pairs of doubles travel as single 16-byte Split-C words. */
struct DoublePair
{
    double a, b;
};

int
octantOf(const BarnesApp::Cell &c, const double pos[3])
{
    return (pos[0] >= c.cx ? 1 : 0) | (pos[1] >= c.cy ? 2 : 0) |
           (pos[2] >= c.cz ? 4 : 0);
}

void
childGeometry(const BarnesApp::Cell &parent, int oct,
              BarnesApp::Cell &child)
{
    double h = parent.half / 2;
    child.half = h;
    child.cx = parent.cx + ((oct & 1) ? h : -h);
    child.cy = parent.cy + ((oct & 2) ? h : -h);
    child.cz = parent.cz + ((oct & 4) ? h : -h);
}

} // namespace

void
BarnesApp::setup(int nprocs, double scale, std::uint64_t seed)
{
    nprocs_ = nprocs;
    bodiesPerProc_ = std::max(4, static_cast<int>(1024 * scale) / nprocs);
    steps_ = 2;
    nodes_.assign(nprocs, NodeState{});
    initialBodies_.clear();
    for (int p = 0; p < nprocs; ++p) {
        Rng rng(seed, 41000 + p);
        NodeState &n = nodes_[p];
        n.bodies.resize(bodiesPerProc_);
        for (Body &b : n.bodies) {
            // Uniform in the unit sphere, equal masses, small random
            // velocities: a Plummer-like cluster.
            double r;
            do {
                for (double &x : b.pos)
                    x = rng.uniform(-1.0, 1.0);
                r = b.pos[0] * b.pos[0] + b.pos[1] * b.pos[1] +
                    b.pos[2] * b.pos[2];
            } while (r > 1.0);
            for (double &v : b.vel)
                v = rng.uniform(-0.05, 0.05);
            b.mass = 1.0 / (static_cast<double>(nprocs) *
                            bodiesPerProc_);
        }
        n.pool.resize(static_cast<std::size_t>(bodiesPerProc_) * 4 + 64);
        initialBodies_.insert(initialBodies_.end(), n.bodies.begin(),
                              n.bodies.end());
    }
    rootRef_ = packRef(0, 0);
}

BarnesApp::Cell
BarnesApp::fetchFresh(SplitC &sc, std::int64_t ref)
{
    Cell c;
    sc.readBulk(gptr(refProc(ref),
                     &nodes_[refProc(ref)].pool[refIdx(ref)]),
                &c, 1);
    return c;
}

BarnesApp::Cell
BarnesApp::fetchCached(SplitC &sc, std::int64_t ref, CellCache &cache)
{
    if (refProc(ref) == sc.myProc()) {
        sc.compute(kCacheHit);
        return nodes_[sc.myProc()].pool[refIdx(ref)];
    }
    const std::size_t slot = CellCache::slotOf(ref);
    if (cache.tag[slot] != ref) {
        cache.cell[slot] = fetchFresh(sc, ref);
        cache.tag[slot] = ref;
    } else {
        sc.compute(kCacheHit);
    }
    return cache.cell[slot];
}

std::int64_t
BarnesApp::allocCell(SplitC &sc)
{
    NodeState &self = nodes_[sc.myProc()];
    panic_if(self.poolNext >=
                 static_cast<std::int64_t>(self.pool.size()),
             "barnes: cell pool exhausted");
    std::int64_t idx = self.poolNext++;
    self.pool[idx] = Cell{};
    for (auto &ch : self.pool[idx].child)
        ch = -1;
    return packRef(sc.myProc(), idx);
}

std::int64_t
BarnesApp::buildLocalSubtree(SplitC &sc, const Cell &geometry,
                             const double (*bodies)[4], int n, int depth)
{
    panic_if(depth > 64, "barnes: coincident bodies (subtree depth)");
    std::int64_t ref = allocCell(sc);
    const int me = sc.myProc();
    if (n <= kLeafCap) {
        Cell &leaf = nodes_[me].pool[refIdx(ref)];
        leaf.type = kLeaf;
        leaf.cx = geometry.cx;
        leaf.cy = geometry.cy;
        leaf.cz = geometry.cz;
        leaf.half = geometry.half;
        leaf.nBodies = n;
        for (int i = 0; i < n; ++i) {
            for (int d = 0; d < 4; ++d)
                leaf.bodies[i][d] = bodies[i][d];
        }
        return ref;
    }
    // Too many for one leaf: make an internal cell and recurse.
    {
        Cell &inner = nodes_[me].pool[refIdx(ref)];
        inner.type = kInternal;
        inner.cx = geometry.cx;
        inner.cy = geometry.cy;
        inner.cz = geometry.cz;
        inner.half = geometry.half;
    }
    for (int oct = 0; oct < 8; ++oct) {
        std::vector<std::array<double, 4>> sub;
        for (int i = 0; i < n; ++i) {
            double pos[3] = {bodies[i][0], bodies[i][1], bodies[i][2]};
            if (octantOf(nodes_[me].pool[refIdx(ref)], pos) == oct)
                sub.push_back({bodies[i][0], bodies[i][1], bodies[i][2],
                               bodies[i][3]});
        }
        if (sub.empty())
            continue;
        Cell geom;
        childGeometry(nodes_[me].pool[refIdx(ref)], oct, geom);
        std::int64_t child = buildLocalSubtree(
            sc, geom, reinterpret_cast<const double(*)[4]>(sub.data()),
            static_cast<int>(sub.size()), depth + 1);
        // The pool may have grown; re-resolve the parent cell.
        nodes_[me].pool[refIdx(ref)].child[oct] = child;
    }
    return ref;
}

void
BarnesApp::insertBody(SplitC &sc, int body_idx, CellCache &cache)
{
    const int me = sc.myProc();
    const Body &b = nodes_[me].bodies[body_idx];

    auto fresh_and_cache = [&](std::int64_t ref) {
        Cell c = fetchFresh(sc, ref);
        if (refProc(ref) != me) {
            const std::size_t slot = CellCache::slotOf(ref);
            cache.tag[slot] = ref;
            cache.cell[slot] = c;
        }
        return c;
    };
    auto lock_of = [&](std::int64_t ref) {
        return gptr(refProc(ref),
                    &nodes_[refProc(ref)].pool[refIdx(ref)].lock);
    };
    auto cell_field = [&](std::int64_t ref) -> Cell & {
        return nodes_[refProc(ref)].pool[refIdx(ref)];
    };

    std::int64_t cur = rootRef_;
    Cell snap = fetchCached(sc, cur, cache);
    int depth = 0;
    while (!sc.draining()) {
        panic_if(++depth > 512, "barnes: runaway insert");
        sc.compute(kInsertStep);
        if (snap.type == kInternal) {
            int oct = octantOf(snap, b.pos);
            if (snap.child[oct] >= 0) {
                cur = snap.child[oct];
                snap = fetchCached(sc, cur, cache);
                continue;
            }
            // Claim the empty slot under the cell's lock.
            sc.lock(lock_of(cur));
            snap = fresh_and_cache(cur);
            if (snap.child[oct] >= 0) {
                sc.unlock(lock_of(cur)); // Raced: re-examine.
                continue;
            }
            std::int64_t leaf_ref = allocCell(sc);
            Cell &leaf = nodes_[me].pool[refIdx(leaf_ref)];
            leaf.type = kLeaf;
            childGeometry(snap, oct, leaf);
            leaf.nBodies = 1;
            leaf.bodies[0][0] = b.pos[0];
            leaf.bodies[0][1] = b.pos[1];
            leaf.bodies[0][2] = b.pos[2];
            leaf.bodies[0][3] = b.mass;
            sc.write(gptr(refProc(cur), &cell_field(cur).child[oct]),
                     leaf_ref);
            sc.unlock(lock_of(cur));
            return;
        }

        // Leaf: append or split, under its lock.
        sc.lock(lock_of(cur));
        snap = fresh_and_cache(cur);
        if (snap.type != kLeaf) {
            sc.unlock(lock_of(cur)); // Someone split it first.
            continue;
        }
        if (snap.nBodies < kLeafCap) {
            int n = snap.nBodies;
            Cell &remote = cell_field(cur);
            // Two 16-byte writes for the body, then the count; readers
            // at the old count simply do not see the new slot yet.
            sc.write(gptr(refProc(cur), reinterpret_cast<DoublePair *>(
                                            &remote.bodies[n][0])),
                     DoublePair{b.pos[0], b.pos[1]});
            sc.write(gptr(refProc(cur), reinterpret_cast<DoublePair *>(
                                            &remote.bodies[n][2])),
                     DoublePair{b.pos[2], b.mass});
            sc.write(gptr(refProc(cur), &remote.nBodies),
                     std::int32_t(n + 1));
            sc.unlock(lock_of(cur));
            return;
        }

        // Full leaf: split. Build replacement children locally from
        // the existing bodies plus the new one, then graft them in.
        double all[kLeafCap + 1][4];
        for (int i = 0; i < kLeafCap; ++i) {
            for (int d = 0; d < 4; ++d)
                all[i][d] = snap.bodies[i][d];
        }
        all[kLeafCap][0] = b.pos[0];
        all[kLeafCap][1] = b.pos[1];
        all[kLeafCap][2] = b.pos[2];
        all[kLeafCap][3] = b.mass;

        std::int64_t kids[8];
        for (auto &k : kids)
            k = -1;
        for (int oct = 0; oct < 8; ++oct) {
            std::vector<std::array<double, 4>> sub;
            for (int i = 0; i <= kLeafCap; ++i) {
                double pos[3] = {all[i][0], all[i][1], all[i][2]};
                if (octantOf(snap, pos) == oct)
                    sub.push_back(
                        {all[i][0], all[i][1], all[i][2], all[i][3]});
            }
            if (sub.empty())
                continue;
            Cell geom;
            childGeometry(snap, oct, geom);
            kids[oct] = buildLocalSubtree(
                sc, geom,
                reinterpret_cast<const double(*)[4]>(sub.data()),
                static_cast<int>(sub.size()), 0);
        }
        for (int oct = 0; oct < 8; ++oct) {
            if (kids[oct] >= 0)
                sc.write(gptr(refProc(cur),
                              &cell_field(cur).child[oct]),
                         kids[oct]);
        }
        // Flip the type last so readers never see a half-built split.
        sc.write(gptr(refProc(cur), &cell_field(cur).type),
                 std::int32_t(kInternal));
        sc.unlock(lock_of(cur));
        return;
    }
}

void
BarnesApp::summarize(SplitC &sc, std::int64_t ref, double *mass_out,
                     double com_out[3])
{
    Cell c = fetchFresh(sc, ref);
    sc.compute(kSummarizeCell);
    double total = 0;
    double acc[3] = {0, 0, 0};
    if (c.type == kLeaf) {
        for (int i = 0; i < c.nBodies; ++i) {
            total += c.bodies[i][3];
            for (int d = 0; d < 3; ++d)
                acc[d] += c.bodies[i][3] * c.bodies[i][d];
        }
    } else {
        for (std::int64_t ch : c.child) {
            if (ch < 0)
                continue;
            double m, com[3];
            summarize(sc, ch, &m, com);
            total += m;
            for (int d = 0; d < 3; ++d)
                acc[d] += m * com[d];
            if (sc.draining())
                return;
        }
    }
    if (total > 0) {
        for (double &v : acc)
            v /= total;
    }
    double fields[4] = {total, acc[0], acc[1], acc[2]};
    sc.storeArr(gptr(refProc(ref),
                     &nodes_[refProc(ref)].pool[refIdx(ref)].mass),
                fields, 4);
    *mass_out = total;
    for (int d = 0; d < 3; ++d)
        com_out[d] = acc[d];
}

void
BarnesApp::bodyForce(SplitC &sc, const Body &b, double acc[3],
                     CellCache &cache)
{
    acc[0] = acc[1] = acc[2] = 0;
    std::vector<std::int64_t> stack;
    stack.push_back(rootRef_);
    while (!stack.empty() && !sc.draining()) {
        std::int64_t ref = stack.back();
        stack.pop_back();
        Cell c = fetchCached(sc, ref, cache);

        if (c.type == kLeaf) {
            for (int i = 0; i < c.nBodies; ++i) {
                double dx = c.bodies[i][0] - b.pos[0];
                double dy = c.bodies[i][1] - b.pos[1];
                double dz = c.bodies[i][2] - b.pos[2];
                if (dx == 0 && dy == 0 && dz == 0)
                    continue; // The body itself (positions unique).
                double d2 = dx * dx + dy * dy + dz * dz + kSoft2;
                double inv = 1.0 / (d2 * std::sqrt(d2));
                acc[0] += c.bodies[i][3] * dx * inv;
                acc[1] += c.bodies[i][3] * dy * inv;
                acc[2] += c.bodies[i][3] * dz * inv;
                sc.compute(kForceCost);
            }
            continue;
        }
        double dx = c.mx - b.pos[0];
        double dy = c.my - b.pos[1];
        double dz = c.mz - b.pos[2];
        double d2 = dx * dx + dy * dy + dz * dz + kSoft2;
        double size = 2 * c.half;
        if (size * size < kTheta * kTheta * d2 && c.mass > 0) {
            double inv = 1.0 / (d2 * std::sqrt(d2));
            acc[0] += c.mass * dx * inv;
            acc[1] += c.mass * dy * inv;
            acc[2] += c.mass * dz * inv;
            sc.compute(kForceCost);
        } else {
            for (std::int64_t ch : c.child) {
                if (ch >= 0)
                    stack.push_back(ch);
            }
            sc.compute(kOpenCost);
        }
    }
}

void
BarnesApp::run(SplitC &sc)
{
    const int me = sc.myProc();
    NodeState &self = nodes_[me];
    CellCache cache;
    self.accSample.assign(kAccSample, {0, 0, 0});

    for (int step = 0; step < steps_; ++step) {
        // ---- Global bounding box via reductions ----------------------
        double lo[3], hi[3];
        for (int d = 0; d < 3; ++d) {
            lo[d] = 1e30;
            hi[d] = -1e30;
        }
        for (const Body &b : self.bodies) {
            for (int d = 0; d < 3; ++d) {
                lo[d] = std::min(lo[d], b.pos[d]);
                hi[d] = std::max(hi[d], b.pos[d]);
            }
        }
        double half = 0;
        double center[3];
        for (int d = 0; d < 3; ++d) {
            lo[d] = sc.allReduceMin(lo[d]);
            hi[d] = sc.allReduceMax(hi[d]);
            center[d] = (lo[d] + hi[d]) / 2;
            half = std::max(half, (hi[d] - lo[d]) / 2 * 1.001 + 1e-9);
        }

        // ---- Reset pools; proc 0 seeds the root ----------------------
        self.poolNext = me == 0 ? 1 : 0;
        if (me == 0) {
            Cell &root = self.pool[0];
            root = Cell{};
            root.type = kInternal;
            root.cx = center[0];
            root.cy = center[1];
            root.cz = center[2];
            root.half = half;
            for (auto &ch : root.child)
                ch = -1;
        }
        sc.barrier();

        // ---- Cooperative tree build (blocking locks) -----------------
        cache.clear();
        for (int i = 0; i < bodiesPerProc_; ++i)
            insertBody(sc, i, cache);
        sc.barrier();

        // ---- Summarize mass / centers of mass ------------------------
        if (me == 0) {
            double m, com[3];
            summarize(sc, rootRef_, &m, com);
            rootMass_ = m;
            sc.storeSync();
        }
        sc.barrier();

        // ---- Force computation with software-cached cells ------------
        cache.clear();
        std::vector<std::array<double, 3>> accs(self.bodies.size());
        for (std::size_t i = 0; i < self.bodies.size(); ++i) {
            double a[3];
            bodyForce(sc, self.bodies[i], a, cache);
            accs[i] = {a[0], a[1], a[2]};
            if (step == 0 && static_cast<int>(i) < kAccSample)
                self.accSample[i] = accs[i];
        }
        // ---- Local update --------------------------------------------
        for (std::size_t i = 0; i < self.bodies.size(); ++i) {
            Body &b = self.bodies[i];
            for (int d = 0; d < 3; ++d) {
                b.vel[d] += accs[i][d] * dt_;
                b.pos[d] += b.vel[d] * dt_;
            }
        }
        sc.barrier();
    }
}

bool
BarnesApp::validate() const
{
    // Total mass must be conserved through the distributed build.
    double expect = 0;
    for (const Body &b : initialBodies_)
        expect += b.mass;
    if (std::abs(rootMass_ - expect) > 1e-6 * expect)
        return false;

    // Step-0 accelerations vs direct summation at initial positions:
    // Barnes-Hut with theta=0.6 should be within a few percent; allow
    // a generous band since tree shape depends on insertion order.
    const std::size_t n = initialBodies_.size();
    for (int p = 0; p < nprocs_; ++p) {
        for (int i = 0; i < kAccSample && i < bodiesPerProc_; ++i) {
            const Body &b =
                initialBodies_[static_cast<std::size_t>(p) *
                               bodiesPerProc_ + i];
            double direct[3] = {0, 0, 0};
            for (std::size_t j = 0; j < n; ++j) {
                const Body &o = initialBodies_[j];
                double dx = o.pos[0] - b.pos[0];
                double dy = o.pos[1] - b.pos[1];
                double dz = o.pos[2] - b.pos[2];
                if (dx == 0 && dy == 0 && dz == 0)
                    continue;
                double d2 = dx * dx + dy * dy + dz * dz + kSoft2;
                double inv = 1.0 / (d2 * std::sqrt(d2));
                direct[0] += o.mass * dx * inv;
                direct[1] += o.mass * dy * inv;
                direct[2] += o.mass * dz * inv;
            }
            const auto &bh = nodes_[p].accSample[i];
            double err2 = 0, mag2 = 0;
            for (int d = 0; d < 3; ++d) {
                double e = bh[d] - direct[d];
                err2 += e * e;
                mag2 += direct[d] * direct[d];
            }
            if (std::sqrt(err2) > 0.15 * std::sqrt(mag2) + 1e-6)
                return false;
        }
    }
    return true;
}

std::string
BarnesApp::inputDesc() const
{
    return std::to_string(static_cast<long long>(nprocs_) *
                          bodiesPerProc_) +
           " bodies, " + std::to_string(steps_) + " timesteps";
}

} // namespace nowcluster
