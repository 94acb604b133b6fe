/**
 * @file
 * Unit tests for broadcast transfer groups.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/transfers.hh"
#include "topology_fixtures.hh"

namespace
{

using namespace xpro;
using xpro::test::CellSpec;
using xpro::test::MiniTopology;
using xpro::test::chainTopology;

const BroadcastGroup *
findGroup(const std::vector<BroadcastGroup> &groups, size_t producer,
          size_t bits)
{
    for (const BroadcastGroup &group : groups) {
        if (group.producer == producer && group.bits == bits)
            return &group;
    }
    return nullptr;
}

TEST(TransfersTest, ChainHasOneGroupPerProducer)
{
    const EngineTopology topo = chainTopology(1, 1, 1, 1024);
    const auto groups = broadcastGroups(topo);
    // source, feature, svm each produce one payload; fusion none.
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_NE(findGroup(groups, DataflowGraph::sourceId, 1024),
              nullptr);
}

TEST(TransfersTest, FanoutSharesOneGroup)
{
    MiniTopology mini(512);
    CellSpec spec;
    const size_t f = mini.addCell(spec);
    const size_t s1 = mini.addCell(spec);
    const size_t s2 = mini.addCell(spec);
    const size_t z = mini.addCell(spec);
    mini.connect(DataflowGraph::sourceId, f);
    mini.connect(f, s1);
    mini.connect(f, s2);
    mini.connect(s1, z);
    mini.connect(s2, z);
    const EngineTopology topo = mini.build(z);

    const auto groups = broadcastGroups(topo);
    const BroadcastGroup *group = findGroup(groups, f, 32);
    ASSERT_NE(group, nullptr);
    EXPECT_EQ(group->consumers.size(), 2u);
}

TEST(TransfersTest, DistinctPayloadsSplitGroups)
{
    MiniTopology mini(512);
    CellSpec dwt;
    dwt.outputBits = 256;
    const size_t d = mini.addCell(dwt);
    CellSpec spec;
    const size_t a = mini.addCell(spec);
    const size_t b = mini.addCell(spec);
    const size_t z = mini.addCell(spec);
    mini.connect(DataflowGraph::sourceId, d);
    mini.connect(d, a, 128); // detail band
    mini.connect(d, b, 64);  // approx band
    mini.connect(a, z);
    mini.connect(b, z);
    const EngineTopology topo = mini.build(z);

    const auto groups = broadcastGroups(topo);
    const BroadcastGroup *detail = findGroup(groups, d, 128);
    const BroadcastGroup *approx = findGroup(groups, d, 64);
    ASSERT_NE(detail, nullptr);
    ASSERT_NE(approx, nullptr);
    EXPECT_EQ(detail->consumers, std::vector<size_t>{a});
    EXPECT_EQ(approx->consumers, std::vector<size_t>{b});
}

TEST(TransfersTest, DefaultBitsComeFromProducerOutput)
{
    MiniTopology mini(2048);
    CellSpec spec;
    spec.outputBits = 96;
    const size_t f = mini.addCell(spec);
    const size_t z = mini.addCell(spec);
    mini.connect(DataflowGraph::sourceId, f);
    mini.connect(f, z); // no explicit payload: producer's 96 bits
    const EngineTopology topo = mini.build(z);
    EXPECT_NE(findGroup(broadcastGroups(topo), f, 96), nullptr);
}

TEST(TransfersTest, GroupCountBoundedByEdges)
{
    const EngineTopology topo = chainTopology(1, 1, 1);
    const auto groups = broadcastGroups(topo);
    size_t total_consumers = 0;
    for (const BroadcastGroup &group : groups)
        total_consumers += group.consumers.size();
    // Every edge appears in exactly one group.
    size_t edges = 0;
    for (size_t u = 0; u < topo.graph.nodeCount(); ++u)
        edges += topo.graph.successors(u).size();
    EXPECT_EQ(total_consumers, edges);
}

TEST(TransfersTest, PlacedGroupsIndexByProducerAndSplitByEnd)
{
    // Nodes: source 0, feature_a 1, feature_b 2, svm_a 3, svm_b 4,
    // fusion 5; svm_a and fusion sit in the aggregator.
    const EngineTopology topo = test::fanOutTopology();
    const Placement placement = Placement::fromMask(
        topo, {true, true, true, false, true, false});
    const PlacedGroups groups(topo, placement);
    ASSERT_EQ(groups.size(), 6u);

    const std::vector<size_t> first = {0, 1, 3, 4, 5, 6, 6};
    for (size_t u = 0; u < first.size(); ++u)
        EXPECT_EQ(groups.first(u), first[u]) << "producer " << u;
    for (size_t u = 0; u + 1 < first.size(); ++u) {
        for (size_t g = groups.first(u); g < groups.first(u + 1); ++g)
            EXPECT_EQ(groups.group(g).producer, u);
    }

    // feature_a's two payloads: 64 bits to svm_b (same end), then
    // 256 bits to svm_a (across the link).
    EXPECT_EQ(groups.sameEnd(0), (std::vector<size_t>{1, 2}));
    EXPECT_TRUE(groups.otherEnd(0).empty());
    EXPECT_EQ(groups.group(1).bits, 64u);
    EXPECT_EQ(groups.sameEnd(1), (std::vector<size_t>{4}));
    EXPECT_EQ(groups.group(2).bits, 256u);
    EXPECT_EQ(groups.otherEnd(2), (std::vector<size_t>{3}));
    EXPECT_TRUE(groups.sameEnd(2).empty());
    EXPECT_EQ(groups.sameEnd(4), (std::vector<size_t>{5}));
    EXPECT_EQ(groups.otherEnd(5), (std::vector<size_t>{5}));
}

} // namespace
