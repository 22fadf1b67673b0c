/**
 * @file
 * Replacement policy interface with externalized, structure-of-arrays
 * policy state.
 *
 * The cache calls onHit() for every hit, victim() when a fill finds no
 * invalid way (the policy must pick a way to evict), onFill() after the
 * new line is installed, and onEvict() just before a valid line leaves
 * the cache.  Policies own ALL of their per-line state in typed SoA
 * arrays (e.g. std::vector<std::uint8_t> of RRPVs) indexed by
 * set * ways + way; CacheLine carries none of it.  Hooks therefore
 * receive only (set, way, request) -- no mutable line view.  A policy
 * that genuinely needs the cache's residency metadata (tag, address,
 * valid/dirty/isInst, instrumentation temperature) can read it through
 * the TagView the owning Cache binds at construction; the view is
 * strictly read-only.
 *
 * State lifetime: Cache::fill() overwrites a way's policy state through
 * onFill(), so a policy must (re)initialize every field it owns for
 * that way on fill -- stale state from an invalidated line must never
 * leak into the next occupant.  Cache::reset() calls resetState(),
 * which zeroes the per-line arrays but deliberately preserves global
 * predictor state (LRU ticks, PSEL counters, SHCT tables), matching
 * the pre-SoA behavior where reset() only cleared line fields.
 */

#ifndef TRRIP_CACHE_REPLACEMENT_POLICY_HH
#define TRRIP_CACHE_REPLACEMENT_POLICY_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "cache/geometry.hh"
#include "cache/line.hh"
#include "mem/request.hh"

namespace trrip {

/**
 * Concrete policy identity used for compile-time specialization of the
 * Cache hot path: Cache::access()/fill() switch on the kind once and
 * run a template instantiation in which the policy hooks are inlined
 * non-virtual calls (every concrete policy class is final).  Policies
 * registered from outside this translation set report Generic and take
 * the virtual-dispatch fallback path.
 */
enum class PolicyKind : std::uint8_t {
    Generic,
    Lru,
    Random,
    Srrip,
    Brrip,
    Drrip,
    Ship,
    Clip,
    Emissary,
    Trrip,
};

/**
 * Read-only view of the owning cache's per-line residency metadata
 * (tag, addr, valid/dirty/isInst, instrumentation temperature), for
 * the rare policy that needs more than its own SoA state.  Bound by
 * the Cache at construction over its SoA storage (packed tag words +
 * per-way meta bytes); line() materializes a CacheLine value, so
 * policies can never mutate cache state through it.
 */
class TagView
{
  public:
    TagView() = default;
    TagView(const std::uint64_t *tags, const std::uint8_t *meta,
            std::uint32_t ways, std::uint32_t line_shift,
            std::uint32_t tag_shift) :
        tags_(tags), meta_(meta), ways_(ways), lineShift_(line_shift),
        tagShift_(tag_shift)
    {}

    bool bound() const { return tags_ != nullptr; }

    bool
    valid(std::uint32_t set, std::uint32_t way) const
    {
        return (tags_[static_cast<std::size_t>(set) * ways_ + way] &
                1) != 0;
    }

    CacheLine
    line(std::uint32_t set, std::uint32_t way) const
    {
        const std::size_t i =
            static_cast<std::size_t>(set) * ways_ + way;
        return materializeLine(tags_[i], meta_[i], set, lineShift_,
                               tagShift_);
    }

  private:
    const std::uint64_t *tags_ = nullptr;
    const std::uint8_t *meta_ = nullptr;
    std::uint32_t ways_ = 0;
    std::uint32_t lineShift_ = 6;
    std::uint32_t tagShift_ = 6;
};

/** Abstract cache replacement policy owning SoA per-line state. */
class ReplacementPolicy
{
  public:
    explicit ReplacementPolicy(const CacheGeometry &geom) :
        geom_(geom), ways_(geom.assoc),
        slots_(static_cast<std::size_t>(geom.numSets()) * geom.assoc)
    {}
    virtual ~ReplacementPolicy() = default;

    /** Concrete identity for the cache's compile-time dispatch. */
    virtual PolicyKind kind() const { return PolicyKind::Generic; }

    /** A request hit way @p way of set @p set. */
    virtual void onHit(std::uint32_t set, std::uint32_t way,
                       const MemRequest &req) = 0;

    /**
     * Pick the way to evict from a full set.  Only called when every
     * way is valid.  May mutate policy state (e.g. RRIP aging).
     */
    virtual std::uint32_t victim(std::uint32_t set,
                                 const MemRequest &req) = 0;

    /** A new line was installed in way @p way for @p req. */
    virtual void onFill(std::uint32_t set, std::uint32_t way,
                        const MemRequest &req) = 0;

    /** A valid line is about to be evicted (bookkeeping hook). */
    virtual void
    onEvict(std::uint32_t set, std::uint32_t way)
    {
        (void)set;
        (void)way;
    }

    /**
     * The core flagged the resident line as fetch-critical (decode
     * starvation).  Only Emissary reacts; default is a no-op.
     */
    virtual void
    onPriorityHint(std::uint32_t set, std::uint32_t way)
    {
        (void)set;
        (void)way;
    }

    /**
     * Zero the per-line SoA arrays (Cache::reset()).  Global predictor
     * state -- ticks, PSEL, SHCT -- survives, exactly as it survived
     * reset() when the per-line state lived in CacheLine.
     */
    virtual void resetState() {}

    /** Bind the owning cache's read-only line metadata view. */
    void bindTags(TagView view) { tags_ = view; }

    const CacheGeometry &geometry() const { return geom_; }

  protected:
    /** SoA index of (set, way): set-major, matching the cache. */
    std::size_t
    idx(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways_ + way;
    }

    /** Total per-line state slots (numSets * ways). */
    std::size_t slots() const { return slots_; }

    CacheGeometry geom_;
    std::uint32_t ways_;
    std::size_t slots_;
    TagView tags_;
};

} // namespace trrip

#endif // TRRIP_CACHE_REPLACEMENT_POLICY_HH
