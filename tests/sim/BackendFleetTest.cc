/**
 * @file
 * Backend determinism through the serving stack: a fleet serving
 * with a non-default droop backend (Mesh, Transient) must produce
 * bit-identical reports at any host thread count (the property
 * tests/serve/ServeGoldenTest pins on the analytic backend -- both
 * backends keep their per-window solver state in the per-round
 * IrEval, never shared across threads), and the backend tag must
 * flow into the report.
 */

#include <gtest/gtest.h>

#include "TestUtil.hh"

using namespace aim;
using namespace aim::serve;

namespace
{

FleetConfig
backendFleet(power::IrBackendKind kind, int threads, double dtNs)
{
    FleetConfig f;
    f.chips = 2;
    f.options = test::fastServeOptions();
    f.options.irBackend = kind;
    f.options.transientDtNs = dtNs;
    f.seed = 5;
    f.threads = threads;
    return f;
}

/** @p dtNs is the transient step; 0 derives it per window. */
stream::StreamReport
run(power::IrBackendKind kind, int threads,
    double dtNs = AimOptions{}.transientDtNs)
{
    return test::serveFleet(
        backendFleet(kind, threads, dtNs),
        test::serveTrace(10, ArrivalKind::Poisson, 8000.0));
}

} // namespace

TEST(BackendFleet, MeshReportBitIdenticalAcrossThreads)
{
    const auto serial = run(power::IrBackendKind::Mesh, 1);
    for (int threads : {2, 4})
        test::expectSameReport(
            serial, run(power::IrBackendKind::Mesh, threads));
}

TEST(BackendFleet, TransientReportBitIdenticalAcrossThreads)
{
    // Fixed and auto-derived steps: every round's eval steps through
    // factors its backend shares across threads (one per dt).
    for (double dt_ns : {AimOptions{}.transientDtNs, 0.0}) {
        const auto serial =
            run(power::IrBackendKind::Transient, 1, dt_ns);
        for (int threads : {2, 4})
            test::expectSameReport(
                serial, run(power::IrBackendKind::Transient, threads,
                            dt_ns));
    }
}

TEST(BackendFleet, ReportCarriesBackendTag)
{
    const auto rep = run(power::IrBackendKind::Mesh, 1);
    EXPECT_EQ(rep.backend, power::IrBackendKind::Mesh);
    EXPECT_NE(rep.render().find("[mesh droop]"), std::string::npos);
}

TEST(BackendFleet, ReportCarriesTransientBackendTag)
{
    const auto rep = run(power::IrBackendKind::Transient, 1);
    EXPECT_EQ(rep.backend, power::IrBackendKind::Transient);
    EXPECT_NE(rep.render().find("[transient droop]"),
              std::string::npos);
}

TEST(BackendFleet, BackendKeysDistinctArtifacts)
{
    // The cache must never hand a mesh- or transient-configured
    // fleet an analytic-compiled artifact (execute() reads the
    // backend out of CompiledModel::options).
    AimOptions a;
    AimOptions m;
    m.irBackend = power::IrBackendKind::Mesh;
    AimOptions t;
    t.irBackend = power::IrBackendKind::Transient;
    EXPECT_NE(ModelCache::key("ResNet18", a),
              ModelCache::key("ResNet18", m));
    EXPECT_NE(ModelCache::key("ResNet18", m),
              ModelCache::key("ResNet18", t));
    // The transient electrical knobs participate too: two transient
    // fleets with different decap or dt never share an artifact.
    AimOptions t2 = t;
    t2.transientDecapNf = 40.0;
    EXPECT_NE(ModelCache::key("ResNet18", t),
              ModelCache::key("ResNet18", t2));
    AimOptions t3 = t;
    t3.transientDtNs = 1.0;
    EXPECT_NE(ModelCache::key("ResNet18", t),
              ModelCache::key("ResNet18", t3));
    // ... but backends that ignore the transient knobs share
    // artifacts across them (a leftover --decap while serving with
    // the mesh backend must not force a recompile).
    AimOptions m2 = m;
    m2.transientDecapNf = 40.0;
    m2.transientDtNs = 1.0;
    EXPECT_EQ(ModelCache::key("ResNet18", m),
              ModelCache::key("ResNet18", m2));
}
