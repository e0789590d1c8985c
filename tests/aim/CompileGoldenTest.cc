/**
 * @file
 * Bit-identity of the compile.  AimPipeline::compile under the
 * default AimOptions (LHR QAT, WDS, the aim_cli flow) must reproduce
 * the artifact fields below for the three conv models perfbench's
 * cli_flow compiles.  The constants were captured (full %.17g
 * precision) from the serial, one-layer-after-another QAT loop, so
 * any drift means a change to the trainer's schedule or arithmetic
 * leaked into the artifact.
 *
 * The NoLhr records pin the serving compile: LHR off, workScale 0.05,
 * the Sequential mapper, Transient droop and the scheduled ISA path,
 * on the default chip and on serve::smallSku()'s geometry.  GPT2's
 * QkT/Sv tiles come from synthesizeActivationTile, so its records
 * also cover the input-determined operators.  They were captured from
 * the serial compile, which synthesized and quantized the model a
 * second time for its baseline HR, and pin the lowered program's
 * instruction count too.  A mismatch prints the observed values in
 * initializer syntax.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>

#include "aim/Aim.hh"
#include "isa/Isa.hh"
#include "serve/ChipSku.hh"

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

Golden
observe(const CompiledModel &c)
{
    return {c.hrAverage,          c.hrMax,
            c.baselineHrAverage,  c.baselineHrMax,
            c.wdsClampedFraction, c.accuracy.metric,
            taskHash(c)};
}

void
expectFields(const Golden &got, const Golden &g)
{
    EXPECT_EQ(got.hrAverage, g.hrAverage);
    EXPECT_EQ(got.hrMax, g.hrMax);
    EXPECT_EQ(got.baselineHrAverage, g.baselineHrAverage);
    EXPECT_EQ(got.baselineHrMax, g.baselineHrMax);
    EXPECT_EQ(got.wdsClampedFraction, g.wdsClampedFraction);
    EXPECT_EQ(got.accuracyMetric, g.accuracyMetric);
    EXPECT_EQ(got.taskHash, g.taskHash);
}

void
printFields(const std::string &name, const Golden &got)
{
    std::printf("observed %s: {%.17g, %.17g, %.17g, %.17g, "
                "%.17g, %.17g, 0x%016llxULL}",
                name.c_str(), got.hrAverage, got.hrMax,
                got.baselineHrAverage, got.baselineHrMax,
                got.wdsClampedFraction, got.accuracyMetric,
                static_cast<unsigned long long>(got.taskHash));
}

void
expectGolden(const workload::ModelSpec &model, const Golden &g)
{
    pim::PimConfig cfg;
    const AimPipeline pipe(cfg, power::defaultCalibration());
    const Golden got = observe(pipe.compile(model, AimOptions{}));
    expectFields(got, g);
    if (::testing::Test::HasFailure()) {
        printFields(model.name, got);
        std::printf("\n");
    }
}

/** The serving engine's compile options (perfbench exact_hetero). */
AimOptions
servingOptions()
{
    AimOptions o;
    o.useLhr = false;
    o.workScale = 0.05;
    o.mapper = mapping::MapperKind::Sequential;
    o.irBackend = power::IrBackendKind::Transient;
    o.useIsa = true;
    o.isaSchedule = true;
    return o;
}

void
expectServingGolden(const workload::ModelSpec &model,
                    const serve::ChipSku &sku, const Golden &g,
                    size_t instructions)
{
    const AimPipeline pipe(sku.pim, sku.cal);
    const CompiledModel c = pipe.compile(model, servingOptions());
    const Golden got = observe(c);
    expectFields(got, g);
    ASSERT_TRUE(c.program);
    ASSERT_TRUE(c.schedule);
    EXPECT_EQ(c.program->code.size(), instructions);
    if (::testing::Test::HasFailure()) {
        printFields(model.name + "/" + sku.name, got);
        std::printf(", %zu\n", c.program->code.size());
    }
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

TEST(CompileGolden, Gpt2NoLhrDefaultChip)
{
    expectServingGolden(workload::gpt2(), serve::bigSku(),
                        {0.45559405957031046, 0.46501922607421875,
                         0.4986644845560908, 0.5034637451171875,
                         0.00020148598000356154, 28.694133152427906,
                         0xf98c789e0c4f9c59ULL},
                        389);
}

TEST(CompileGolden, Gpt2NoLhrSmallChip)
{
    expectServingGolden(workload::gpt2(), serve::smallSku(),
                        {0.45559405957031046, 0.46501922607421875,
                         0.4986644845560908, 0.5034637451171875,
                         0.00020148598000356154, 28.694133152427906,
                         0xcf97926b9f1a4b8aULL},
                        485);
}

TEST(CompileGolden, MobileNetV2NoLhrDefaultChip)
{
    expectServingGolden(workload::mobilenetV2(), serve::bigSku(),
                        {0.45842179869394628, 0.49522569444444442,
                         0.49940954766053836, 0.53168402777777779,
                         0.00024031450390459718, 71.670921945027544,
                         0xf78e5e5a270d6a12ULL},
                        162);
}

TEST(CompileGolden, MobileNetV2NoLhrSmallChip)
{
    expectServingGolden(workload::mobilenetV2(), serve::smallSku(),
                        {0.45842179869394628, 0.49522569444444442,
                         0.49940954766053836, 0.53168402777777779,
                         0.00024031450390459718, 71.670921945027544,
                         0xc1f4b7d71f5a684fULL},
                        181);
}
