/**
 * @file
 * Accuracy-vs-cost trade-off exploration with the programming interface
 * (paper Sec. III-D): sweep the three algorithmic knobs — direction,
 * thresholding mechanism, and start/termination layer — through the
 * ProgramBuilder, and print the detection accuracy next to the modeled
 * latency/energy of each point.
 *
 * Build & run:  ./build/examples/tradeoff_explorer
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "attack/gradient_attacks.hh"
#include "compiler/compiler.hh"
#include "core/evaluation.hh"
#include "core/program_builder.hh"
#include "data/synthetic.hh"
#include "hw/simulator.hh"
#include "nn/common_layers.hh"
#include "nn/conv.hh"
#include "nn/init.hh"
#include "nn/linear.hh"
#include "nn/trainer.hh"
#include "path/extractor.hh"
#include "util/table.hh"

using namespace ptolemy;

namespace
{

nn::Network
buildModel()
{
    nn::Network net("explorer-cnn", nn::mapShape(3, 16, 16));
    net.add(std::make_unique<nn::Conv2d>("conv1", 3, 8, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu1"));
    net.add(std::make_unique<nn::MaxPool2d>("pool1", 2));
    net.add(std::make_unique<nn::Conv2d>("conv2", 8, 16, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu2"));
    net.add(std::make_unique<nn::MaxPool2d>("pool2", 2));
    net.add(std::make_unique<nn::Conv2d>("conv3", 16, 16, 3, 1, 1));
    net.add(std::make_unique<nn::ReLU>("relu3"));
    net.add(std::make_unique<nn::Flatten>("flat"));
    net.add(std::make_unique<nn::Linear>("fc1", 16 * 4 * 4, 48));
    net.add(std::make_unique<nn::ReLU>("relu4"));
    net.add(std::make_unique<nn::Linear>("fc2", 48, 10));
    return net;
}

} // namespace

int
main()
{
    data::DatasetSpec spec;
    spec.numClasses = 10;
    spec.trainPerClass = 60;
    spec.testPerClass = 15;
    auto dataset = data::makeSyntheticDataset(spec);

    auto net = buildModel();
    nn::heInit(net, 9);
    nn::TrainConfig tc;
    tc.epochs = 5;
    tc.learningRate = 0.02; // the three-conv stack diverges at 0.05
    nn::Trainer(tc).train(net, dataset.train);
    const int n = static_cast<int>(net.weightedNodes().size());
    std::printf("model: %d weighted layers, clean accuracy %.3f\n\n", n,
                nn::Trainer::evaluate(net, dataset.test));

    attack::Fgsm fgsm;
    auto pairs = core::buildAttackPairs(net, fgsm, dataset.test, 60);

    // Candidate design points expressed through the programming
    // interface — including the paper's Fig. 6 program (forward, last
    // three layers, cumulative only at the end).
    struct Point
    {
        std::string name;
        path::ExtractionConfig cfg;
    };
    std::vector<Point> points;
    points.push_back({"BwCu full",
                      core::ProgramBuilder(net).backwardExtraction()
                          .build()});
    points.push_back({"BwCu last 3",
                      core::ProgramBuilder(net)
                          .backwardExtraction()
                          .startAtLayer(n - 3)
                          .build()});
    points.push_back(
        {"BwAb full", core::ProgramBuilder(net)
                          .backwardExtraction()
                          .extractLayers(0, n - 1,
                                         path::ThresholdKind::Absolute, 0.0)
                          .build()});
    points.push_back(
        {"FwAb full", core::ProgramBuilder(net)
                          .forwardExtraction()
                          .extractLayers(0, n - 1,
                                         path::ThresholdKind::Absolute, 0.0)
                          .build()});
    points.push_back(
        {"Fig.6 program",
         core::ProgramBuilder(net)
             .forwardExtraction()
             .extractNone()
             .extractLayer(n - 3, path::ThresholdKind::Absolute, 0.0)
             .extractLayer(n - 2, path::ThresholdKind::Absolute, 0.0)
             .extractLayer(n - 1, path::ThresholdKind::Cumulative, 0.5)
             .build()});

    Table t("Accuracy vs modeled cost (FGSM, normalized to inference)");
    t.header({"design point", "AUC", "Latency", "Energy", "path bits"});

    std::vector<nn::Tensor> calib;
    for (int i = 0; i < 8; ++i)
        calib.push_back(dataset.train[i * 17].input);
    hw::Simulator sim;
    const auto inf_rep = sim.run(compiler::Compiler::inferenceOnly(net));

    for (auto &pt : points) {
        path::calibrateAbsoluteThresholds(net, pt.cfg, calib, 0.05);
        core::DetectorBuilder bld(net, pt.cfg, 10);
        core::DetectorSession sess(bld.model());
        bld.profileClassPaths(dataset.train, 100);
        const double auc = core::fitAndScore(bld, sess, pairs, 0.5).auc;

        path::PathExtractor ex(net, pt.cfg);
        std::vector<path::ExtractionTrace> traces;
        for (int i = 0; i < 4; ++i) {
            auto rec = net.forward(dataset.test[i * 13].input);
            path::ExtractionTrace tr;
            ex.extract(rec, &tr);
            traces.push_back(std::move(tr));
        }
        const auto avg = path::averageTraces(traces);
        compiler::CompileOptions opts;
        opts.classifierOps = 0; // compare extraction cost only
        compiler::Compiler comp(net, pt.cfg, opts);
        const auto rep = sim.run(comp.compile(avg));
        t.row({pt.name, fmt(auc, 3),
               fmtX(static_cast<double>(rep.cycles) / inf_rep.cycles),
               fmtX(rep.energyPj / inf_rep.energyPj),
               std::to_string(avg.pathBits)});
    }
    t.print(std::cout);
    return 0;
}
