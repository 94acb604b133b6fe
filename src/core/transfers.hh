/**
 * @file
 * Broadcast transfer groups.
 *
 * A producer whose output crosses the wireless link transmits it
 * once; every consumer on the other end hears the same payload. The
 * paper expresses this for the raw source data with the dummy "D"
 * node (Section 3.2.2, "grouped" cells); XPro generalizes the same
 * construction to every fan-out producer. Consumers of one producer
 * are grouped by the payload they read (e.g. a DWT level's detail
 * band vs. its approximation band); each group is one potential
 * broadcast.
 */

#ifndef XPRO_CORE_TRANSFERS_HH
#define XPRO_CORE_TRANSFERS_HH

#include <cstddef>
#include <vector>

#include "core/placement.hh"
#include "core/topology.hh"

namespace xpro
{

/** One potential broadcast: a producer payload and its readers. */
struct BroadcastGroup
{
    size_t producer = 0;
    /** Payload bits on the air if this group crosses the link. */
    size_t bits = 0;
    std::vector<size_t> consumers;
};

/** All broadcast groups of a topology, source node included. */
std::vector<BroadcastGroup>
broadcastGroups(const EngineTopology &topology);

/**
 * The broadcast groups of one placed engine, indexed by producer.
 * Each group's consumers are split by end relative to the producer
 * (same end: delivered in place; other end: one radio payload),
 * keeping the group's consumer order within each list. Static under
 * a fixed placement, so a simulator builds it once per run.
 */
class PlacedGroups
{
  public:
    PlacedGroups(const EngineTopology &topology,
                 const Placement &placement);

    size_t size() const { return _groups.size(); }
    const BroadcastGroup &group(size_t g) const { return _groups[g]; }

    /** Producer @p u's groups are [first(u), first(u + 1)). */
    size_t first(size_t u) const { return _first[u]; }

    const std::vector<size_t> &sameEnd(size_t g) const
    {
        return _sameEnd[g];
    }
    const std::vector<size_t> &otherEnd(size_t g) const
    {
        return _otherEnd[g];
    }

  private:
    std::vector<BroadcastGroup> _groups;
    std::vector<size_t> _first;
    std::vector<std::vector<size_t>> _sameEnd;
    std::vector<std::vector<size_t>> _otherEnd;
};

} // namespace xpro

#endif // XPRO_CORE_TRANSFERS_HH
