/**
 * @file
 * Barnes (Table 3): hierarchical Barnes-Hut N-body simulation. The
 * spatial oct-tree is built cooperatively in a shared global space:
 * processors insert their bodies into cells distributed across the
 * machine, synchronizing updates through blocking locks (the failed
 * lock attempts are the paper's livelock metric). During the force
 * phase, remote cells are replicated through a fixed-size
 * software-managed cache (bulk reads).
 */

#ifndef NOWCLUSTER_APPS_BARNES_HH_
#define NOWCLUSTER_APPS_BARNES_HH_

#include "apps/app.hh"

namespace nowcluster {

class BarnesApp : public App
{
  public:
    std::string name() const override { return "Barnes"; }
    void setup(int nprocs, double scale, std::uint64_t seed) override;
    void run(SplitC &sc) override;
    bool validate() const override;
    std::string inputDesc() const override;

    struct Body
    {
        double pos[3];
        double vel[3];
        double mass;
    };

    static constexpr int kLeafCap = 8;

    /** One oct-tree cell; fetched whole with bulk reads. Leaves hold
     *  up to kLeafCap bodies as (x, y, z, mass) quads. */
    struct Cell
    {
        SplitLock lock;
        std::int32_t type; ///< 0 unused, 1 internal, 2 leaf.
        std::int32_t nBodies;
        double cx, cy, cz, half;
        double mass, mx, my, mz; ///< Aggregate (set by summarize).
        std::int64_t child[8];   ///< Packed (proc, idx); -1 null.
        double bodies[kLeafCap][4]; ///< Leaf payload: x, y, z, mass.
    };
    static_assert(std::is_trivially_copyable_v<Cell>);

  private:
    struct NodeState
    {
        std::vector<Body> bodies;
        std::vector<Cell> pool;
        std::int64_t poolNext = 0;
        /** Step-0 accelerations of the first few bodies (validation). */
        std::vector<std::array<double, 3>> accSample;
    };

    static constexpr int kInternal = 1;
    static constexpr int kLeaf = 2;
    static constexpr double kTheta = 0.6;
    static constexpr double kSoft2 = 1e-4;
    static constexpr int kCacheSlots = 4096;
    static constexpr int kAccSample = 8;

    static std::int64_t
    packRef(int proc, std::int64_t idx)
    {
        return (static_cast<std::int64_t>(proc) << 40) | idx;
    }
    static int refProc(std::int64_t r) { return static_cast<int>(r >> 40); }
    static std::int64_t refIdx(std::int64_t r)
    {
        return r & ((1LL << 40) - 1);
    }

    /** The direct-mapped software cell cache: slot s holds cell[s], a
     *  copy of the cell tag[s] names, unless tag[s] is -1 (no ref is
     *  negative). Allocated once per run; clear() empties it by its
     *  tags alone. */
    struct CellCache
    {
        std::vector<std::int64_t> tag =
            std::vector<std::int64_t>(kCacheSlots, -1);
        std::vector<Cell> cell = std::vector<Cell>(kCacheSlots);

        void clear() { tag.assign(kCacheSlots, -1); }

        static std::size_t
        slotOf(std::int64_t ref)
        {
            const std::uint64_t h =
                static_cast<std::uint64_t>(ref) * 0x9e3779b97f4a7c15ULL;
            return static_cast<std::size_t>(h >> 40) % kCacheSlots;
        }
    };

    /** Read a cell fresh from its owner (bypasses the cache). */
    Cell fetchFresh(SplitC &sc, std::int64_t ref);

    /**
     * Read a cell through the software cache. During the build phase a
     * stale entry is harmless: child slots only go from null to set and
     * cells only go from leaf to internal, and every mutation path
     * re-reads fresh under the cell's lock.
     */
    Cell fetchCached(SplitC &sc, std::int64_t ref, CellCache &cache);

    /** Allocate a cell in the caller's pool. */
    std::int64_t allocCell(SplitC &sc);

    /** Build a subtree over >kLeafCap coincident-octant bodies in the
     *  caller's local pool; returns its reference. */
    std::int64_t buildLocalSubtree(SplitC &sc, const Cell &geometry,
                                   const double (*bodies)[4], int n,
                                   int depth);

    /** Insert one body starting from the root. */
    void insertBody(SplitC &sc, int body_idx, CellCache &cache);

    /** Recursive mass/center-of-mass summarization (proc 0). */
    void summarize(SplitC &sc, std::int64_t ref, double *mass_out,
                   double com_out[3]);

    /** Compute the acceleration on one body via tree traversal. */
    void bodyForce(SplitC &sc, const Body &b, double acc[3],
                   CellCache &cache);

    int nprocs_ = 0;
    int bodiesPerProc_ = 0;
    int steps_ = 0;
    double dt_ = 0.01;
    std::vector<NodeState> nodes_;
    std::vector<Body> initialBodies_; ///< Snapshot for validation.
    std::int64_t rootRef_ = -1;
    double rootMass_ = -1; ///< Written by proc 0 after summarize.
    // Per-step shared root geometry (computed via reductions).
    double rootCenter_[3] = {0, 0, 0};
    double rootHalf_ = 0;
};

} // namespace nowcluster

#endif // NOWCLUSTER_APPS_BARNES_HH_
