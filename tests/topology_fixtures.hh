/**
 * @file
 * Hand-built miniature engine topologies for partitioner and model
 * tests: small enough for exhaustive placement enumeration, with
 * directly controllable costs.
 */

#ifndef XPRO_TESTS_TOPOLOGY_FIXTURES_HH
#define XPRO_TESTS_TOPOLOGY_FIXTURES_HH

#include <vector>

#include "core/topology.hh"

namespace xpro::test
{

/** Specification of one synthetic cell. */
struct CellSpec
{
    std::string name;
    double sensorNj = 100.0;
    double aggregatorNj = 500.0;
    double sensorUs = 50.0;
    double aggregatorUs = 5.0;
    size_t outputBits = 32;
};

/** Builder for miniature topologies. */
class MiniTopology
{
  public:
    explicit MiniTopology(size_t source_bits)
    {
        _topology.graph = DataflowGraph(source_bits);
        _topology.cells.resize(1);
        _topology.segmentLength = source_bits / 32;
    }

    size_t
    addCell(const CellSpec &spec,
            ComponentKind kind = ComponentKind::Mean)
    {
        DataflowNode node;
        node.name = spec.name;
        node.outputBits = spec.outputBits;
        node.costs.sensorEnergy = Energy::nanos(spec.sensorNj);
        node.costs.aggregatorEnergy = Energy::nanos(spec.aggregatorNj);
        node.costs.sensorDelay = Time::micros(spec.sensorUs);
        node.costs.aggregatorDelay = Time::micros(spec.aggregatorUs);
        const size_t id = _topology.graph.addCell(node);
        CellInfo info;
        info.kind = kind;
        _topology.cells.push_back(info);
        return id;
    }

    void
    connect(size_t producer, size_t consumer, size_t bits = 0)
    {
        _topology.graph.addEdge(producer, consumer, bits);
    }

    /** Finalize with @p fusion as the result cell. */
    EngineTopology
    build(size_t fusion)
    {
        _topology.fusionNode = fusion;
        _topology.cells[fusion].kind = ComponentKind::Fusion;
        return _topology;
    }

  private:
    EngineTopology _topology;
};

/**
 * A three-cell chain: source -> feature -> svm -> fusion, with the
 * given per-cell sensor energies (nJ).
 */
inline EngineTopology
chainTopology(double feature_nj, double svm_nj, double fusion_nj,
              size_t source_bits = 1024)
{
    MiniTopology mini(source_bits);
    CellSpec feature;
    feature.name = "feature";
    feature.sensorNj = feature_nj;
    const size_t f = mini.addCell(feature, ComponentKind::Var);
    CellSpec svm;
    svm.name = "svm";
    svm.sensorNj = svm_nj;
    const size_t s = mini.addCell(svm, ComponentKind::Svm);
    CellSpec fusion;
    fusion.name = "fusion";
    fusion.sensorNj = fusion_nj;
    const size_t z = mini.addCell(fusion, ComponentKind::Fusion);
    mini.connect(DataflowGraph::sourceId, f);
    mini.connect(f, s);
    mini.connect(s, z);
    return mini.build(z);
}

/**
 * A fan-out engine: the source feeds two feature cells (one shared
 * broadcast payload), each feature feeds its own SVM over payloads
 * of different widths, and both SVMs feed the fusion cell.
 * Feature a also feeds SVM b, so one producer owns two broadcast
 * groups.
 */
inline EngineTopology
fanOutTopology(size_t source_bits = 2048)
{
    MiniTopology mini(source_bits);
    CellSpec spec;
    spec.name = "feature_a";
    spec.sensorNj = 300.0;
    spec.sensorUs = 120.0;
    const size_t fa = mini.addCell(spec, ComponentKind::Var);
    spec.name = "feature_b";
    spec.sensorNj = 80.0;
    spec.sensorUs = 40.0;
    const size_t fb = mini.addCell(spec, ComponentKind::Mean);
    spec.name = "svm_a";
    spec.sensorNj = 900.0;
    spec.sensorUs = 300.0;
    const size_t sa = mini.addCell(spec, ComponentKind::Svm);
    spec.name = "svm_b";
    spec.sensorNj = 450.0;
    spec.sensorUs = 150.0;
    const size_t sb = mini.addCell(spec, ComponentKind::Svm);
    spec.name = "fusion";
    spec.sensorNj = 20.0;
    spec.sensorUs = 10.0;
    const size_t z = mini.addCell(spec, ComponentKind::Fusion);
    mini.connect(DataflowGraph::sourceId, fa);
    mini.connect(DataflowGraph::sourceId, fb);
    mini.connect(fa, sa, 256);
    mini.connect(fa, sb, 64);
    mini.connect(fb, sb, 64);
    mini.connect(sa, z);
    mini.connect(sb, z);
    return mini.build(z);
}

} // namespace xpro::test

#endif // XPRO_TESTS_TOPOLOGY_FIXTURES_HH
