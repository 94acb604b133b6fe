#include "core/pipeline.hh"

#include <algorithm>

#include "common/logging.hh"
#include "ml/crossval.hh"

namespace xpro
{

int
TrainedPipeline::classify(const std::vector<double> &segment) const
{
    const std::vector<double> raw = extractor.extractAll(segment);
    return ensemble.predict(scaler.transform(raw));
}

void
TrainingOptions::validate() const
{
    if (!(trainFraction > 0.0 && trainFraction <= 1.0))
        fatal("training fraction %g is outside (0, 1]", trainFraction);
    if (maxTrainingSegments == 1) {
        fatal("a training cap of 1 segment cannot train: SVM "
              "training needs at least two samples");
    }
}

TrainedPipeline
trainPipeline(const SignalDataset &dataset, const EngineConfig &config,
              const TrainingOptions &options)
{
    options.validate();
    xproAssert(dataset.size() >= 8, "dataset too small to train on");

    TrainedPipeline pipeline;
    pipeline.extractor = FeatureExtractor(config.wavelet);

    // Extract the full 48-feature pool for every segment into one
    // flat row-major matrix.
    FlatMatrix raw_rows;
    std::vector<int> labels;
    raw_rows.reserve(dataset.size());
    labels.reserve(dataset.size());
    for (const Segment &segment : dataset.segments) {
        raw_rows.push_back(
            pipeline.extractor.extractAll(segment.samples));
        labels.push_back(segment.label);
    }

    // Split 75/25 (paper Section 4.4), stratified.
    Rng rng(options.seed);
    const Split split =
        stratifiedSplit(labels, options.trainFraction, rng);
    std::vector<size_t> train_idx = split.trainIndices;
    if (options.maxTrainingSegments > 0 &&
        train_idx.size() > options.maxTrainingSegments) {
        train_idx.resize(options.maxTrainingSegments);
    }

    const auto gather = [&](const std::vector<size_t> &indices) {
        LabeledData out;
        out.rows = FlatMatrix(0, raw_rows.cols());
        out.rows.reserve(indices.size());
        out.labels.reserve(indices.size());
        for (size_t idx : indices) {
            out.rows.push_back(raw_rows.row(idx));
            out.labels.push_back(labels[idx]);
        }
        return out;
    };
    LabeledData train = gather(train_idx);
    LabeledData test = gather(split.testIndices);

    // Min-max normalization fitted on the training rows only.
    pipeline.scaler.fit(train.rows);
    pipeline.scaler.transformRowsInPlace(train.rows);
    if (test.size() > 0)
        pipeline.scaler.transformRowsInPlace(test.rows);

    RandomSubspaceConfig subspace = config.subspace;
    subspace.seed = options.seed ^ 0xABCDEF;
    subspace.workers = options.mlWorkers;
    pipeline.ensemble = RandomSubspace::train(train, subspace);
    pipeline.trainAccuracy = pipeline.ensemble.accuracy(train);
    pipeline.testAccuracy =
        test.size() > 0 ? pipeline.ensemble.accuracy(test) : 0.0;
    pipeline.trainCount = train.size();
    pipeline.testCount = test.size();
    return pipeline;
}

XProDesign
designXPro(const SignalDataset &dataset, const EngineConfig &config,
           const TrainingOptions &options)
{
    XProDesign design;
    design.config = config;
    design.pipeline = trainPipeline(dataset, config, options);
    design.topology = buildEngineTopology(
        design.pipeline.ensemble, dataset.segmentLength, config);
    const WirelessLink link(transceiver(config.wireless));
    design.partition =
        XProGenerator(design.topology, link).generate();
    return design;
}

} // namespace xpro
