#include "core/transfers.hh"

#include <map>

#include "common/logging.hh"

namespace xpro
{

std::vector<BroadcastGroup>
broadcastGroups(const EngineTopology &topology)
{
    const DataflowGraph &graph = topology.graph;
    std::vector<BroadcastGroup> groups;
    for (size_t u = 0; u < graph.nodeCount(); ++u) {
        std::map<size_t, BroadcastGroup> by_bits;
        for (size_t v : graph.successors(u)) {
            const size_t bits = graph.edgeBits(u, v);
            BroadcastGroup &group = by_bits[bits];
            group.producer = u;
            group.bits = bits;
            group.consumers.push_back(v);
        }
        for (auto &[bits, group] : by_bits)
            groups.push_back(std::move(group));
    }
    return groups;
}

PlacedGroups::PlacedGroups(const EngineTopology &topology,
                           const Placement &placement)
    : _groups(broadcastGroups(topology)),
      _first(topology.graph.nodeCount() + 1, 0),
      _sameEnd(_groups.size()),
      _otherEnd(_groups.size())
{
    // broadcastGroups() emits groups ordered by producer, so each
    // producer's groups form one contiguous range.
    for (size_t g = 0; g < _groups.size(); ++g) {
        const BroadcastGroup &group = _groups[g];
        xproAssert(g == 0 || _groups[g - 1].producer <= group.producer,
                   "broadcast groups out of producer order");
        ++_first[group.producer + 1];
        const bool producer_in_sensor =
            placement.inSensor(group.producer);
        for (size_t v : group.consumers) {
            if (placement.inSensor(v) == producer_in_sensor)
                _sameEnd[g].push_back(v);
            else
                _otherEnd[g].push_back(v);
        }
    }
    for (size_t u = 0; u + 1 < _first.size(); ++u)
        _first[u + 1] += _first[u];
}

} // namespace xpro
