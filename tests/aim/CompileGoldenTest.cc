/**
 * @file
 * Bit-identity of the LHR compile.  AimPipeline::compile under the
 * default AimOptions (LHR QAT, WDS, the aim_cli flow) must reproduce
 * the artifact fields below for the three conv models perfbench's
 * cli_flow compiles.  The constants were captured (full %.17g
 * precision) from the serial, one-layer-after-another QAT loop, so
 * any drift means a change to the trainer's schedule or arithmetic
 * leaked into the artifact.  A mismatch prints the observed values in
 * initializer syntax.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>

#include "aim/Aim.hh"

using namespace aim;

namespace
{

struct Golden
{
    double hrAverage;
    double hrMax;
    double baselineHrAverage;
    double baselineHrMax;
    double wdsClampedFraction;
    double accuracyMetric;
    /** FNV-1a over every round's tasks (setId, hr bits, macs). */
    uint64_t taskHash;
};

void
fnvMix(uint64_t &h, uint64_t word)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (word >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
    }
}

uint64_t
taskHash(const CompiledModel &c)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &round : c.rounds) {
        fnvMix(h, round.tasks.size());
        for (const auto &t : round.tasks) {
            fnvMix(h, static_cast<uint64_t>(t.setId));
            fnvMix(h, std::bit_cast<uint64_t>(t.hr));
            fnvMix(h, static_cast<uint64_t>(t.macs));
        }
    }
    return h;
}

void
expectGolden(const workload::ModelSpec &model, const Golden &g)
{
    pim::PimConfig cfg;
    const AimPipeline pipe(cfg, power::defaultCalibration());
    const CompiledModel c = pipe.compile(model, AimOptions{});
    const Golden got{c.hrAverage,          c.hrMax,
                     c.baselineHrAverage,  c.baselineHrMax,
                     c.wdsClampedFraction, c.accuracy.metric,
                     taskHash(c)};
    EXPECT_EQ(got.hrAverage, g.hrAverage);
    EXPECT_EQ(got.hrMax, g.hrMax);
    EXPECT_EQ(got.baselineHrAverage, g.baselineHrAverage);
    EXPECT_EQ(got.baselineHrMax, g.baselineHrMax);
    EXPECT_EQ(got.wdsClampedFraction, g.wdsClampedFraction);
    EXPECT_EQ(got.accuracyMetric, g.accuracyMetric);
    EXPECT_EQ(got.taskHash, g.taskHash);
    if (::testing::Test::HasFailure())
        std::printf("observed %s: {%.17g, %.17g, %.17g, %.17g, "
                    "%.17g, %.17g, 0x%016llxULL}\n",
                    model.name.c_str(), got.hrAverage, got.hrMax,
                    got.baselineHrAverage, got.baselineHrMax,
                    got.wdsClampedFraction, got.accuracyMetric,
                    static_cast<unsigned long long>(got.taskHash));
}

} // namespace

TEST(CompileGolden, ResNet18)
{
    expectGolden(workload::resnet18(),
                 {0.35304843513850825, 0.36310852465986393,
                  0.49962438891745464, 0.5038909912109375,
                  0.00024801437273535659, 69.876238750800312,
                  0xa6bc1da865fe3551ULL});
}

TEST(CompileGolden, MobileNetV2)
{
    expectGolden(workload::mobilenetV2(),
                 {0.35604679769142672, 0.38758680555555558,
                  0.49940954766053836, 0.53168402777777779,
                  0.00026701611544955244, 71.660871317961679,
                  0x5e22b64b0343b5b7ULL});
}

TEST(CompileGolden, YOLOv5)
{
    expectGolden(workload::yolov5s(),
                 {0.35376652459321756, 0.3631439208984375,
                  0.49932194833810273, 0.5038909912109375,
                  0.00024208005652896455, 37.18332436557904,
                  0x17c6fa8cee3c211fULL});
}
