/**
 * @file
 * Paper Figure 21: HR-aware task mapping vs sequential / random /
 * zigzag on four operator mixes (Conv+QKT, Conv+SV, Q/K/V-gen+QKT,
 * SV+Linear), reporting effective TOPS in sprint mode and macro power
 * in low-power mode.
 */

#include "BenchCommon.hh"

#include "sim/Runtime.hh"

using namespace aim;
using namespace aim::bench;

namespace
{

/**
 * Four operator instances with tile counts that do not align to the
 * 4-macro group size (11/13/10/14), as real tiling produces: naive
 * mappings then mix operators of different HR within groups.
 */
sim::Round
operatorMix(workload::OpType a, workload::OpType b, double hr_a,
            double hr_b)
{
    sim::Round round;
    const struct
    {
        workload::OpType type;
        double hr;
        int tiles;
    } ops[] = {{a, hr_a, 11}, {b, hr_b, 13}, {a, hr_a, 10},
               {b, hr_b, 14}};
    int set_id = 0;
    for (const auto &op : ops) {
        for (int i = 0; i < op.tiles; ++i) {
            mapping::Task t;
            t.layerName = opTypeName(op.type);
            t.type = op.type;
            t.setId = set_id;
            t.hr = op.hr;
            t.inputDetermined =
                workload::isInputDetermined(op.type);
            t.macs = 8'000'000;
            round.tasks.push_back(t);
        }
        ++set_id;
    }
    return round;
}

} // namespace

int
main()
{
    banner("Figure 21", "HR-aware task mapping vs naive mappings");

    pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    pim::StreamSpec stream;
    stream.sigmaLsb = 38.0;

    struct Mix
    {
        const char *name;
        sim::Round round;
    };
    using OT = workload::OpType;
    const Mix mixes[] = {
        {"Conv + QKT", operatorMix(OT::Conv, OT::QkT, 0.30, 0.52)},
        {"Conv + SV", operatorMix(OT::Conv, OT::Sv, 0.30, 0.50)},
        {"Q/K/V gen + QKT",
         operatorMix(OT::QkvGen, OT::QkT, 0.34, 0.52)},
        {"SV + Linear", operatorMix(OT::Sv, OT::Linear, 0.50, 0.33)},
    };
    const mapping::MapperKind kinds[] = {
        mapping::MapperKind::Sequential, mapping::MapperKind::Random,
        mapping::MapperKind::Zigzag, mapping::MapperKind::HrAware};

    util::Table sprint("Sprint mode: effective TOPS");
    sprint.setHeader({"Mix", "Sequential", "Random", "Zigzag",
                      "HR-aware"});
    util::Table lp("Low-power mode: macro power mW");
    lp.setHeader({"Mix", "Sequential", "Random", "Zigzag",
                  "HR-aware"});

    for (const auto &mix : mixes) {
        std::vector<std::string> srow = {mix.name};
        std::vector<std::string> prow = {mix.name};
        for (auto kind : kinds) {
            sim::RunConfig rcfg;
            rcfg.mapper = kind;
            rcfg.boost.mode = booster::BoostMode::Sprint;
            sim::Runtime rt_s(cfg, cal, rcfg);
            srow.push_back(util::Table::fmt(
                rt_s.run({mix.round}, stream).tops, 1));

            rcfg.boost.mode = booster::BoostMode::LowPower;
            sim::Runtime rt_p(cfg, cal, rcfg);
            prow.push_back(util::Table::fmt(
                rt_p.run({mix.round}, stream).macroPowerMw, 3));
        }
        sprint.addRow(srow);
        lp.addRow(prow);
    }
    sprint.print();
    lp.print();
    std::printf("Shape (paper): HR-aware mapping avoids pinning whole "
                "groups to the worst task's level.  Measured: random "
                "mapping draws the most power in every mix; HR-aware "
                "ties the aligned mappings (our runtime's dynamic "
                "booster recovers part of a bad static mapping).\n");
    return 0;
}
