#include "core/transfers.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace xpro
{

std::vector<BroadcastGroup>
broadcastGroups(const EngineTopology &topology)
{
    const DataflowGraph &graph = topology.graph;
    std::vector<BroadcastGroup> groups;
    // (payload bits, successor position) per out-edge of one
    // producer; the keys are unique, so sorting them orders groups
    // by bits and keeps each group's consumers in successor order.
    std::vector<std::pair<size_t, size_t>> edges;
    for (size_t u = 0; u < graph.nodeCount(); ++u) {
        const std::vector<size_t> &successors = graph.successors(u);
        edges.clear();
        for (size_t i = 0; i < successors.size(); ++i)
            edges.emplace_back(graph.edgeBits(u, successors[i]), i);
        std::sort(edges.begin(), edges.end());
        const size_t first = groups.size();
        for (const auto &[bits, i] : edges) {
            if (groups.size() == first || groups.back().bits != bits)
                groups.push_back({u, bits, {}});
            groups.back().consumers.push_back(successors[i]);
        }
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
