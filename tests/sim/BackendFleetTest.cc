/**
 * @file
 * Backend determinism through the serving stack: a fleet serving
 * with a non-default droop backend (Mesh, Transient) must produce
 * bit-identical ServeReports at any host thread count (the
 * FleetParallelTest property -- both backends keep their per-window
 * solver state in the per-round IrEval, never shared across
 * threads), and the backend tag must flow into the report.
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
ServeReport
run(power::IrBackendKind kind, int threads,
    double dtNs = AimOptions{}.transientDtNs)
{
    pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    Fleet fleet(cfg, cal, backendFleet(kind, threads, dtNs));
    return fleet.serve(
        test::serveTrace(10, ArrivalKind::Poisson, 8000.0),
        test::sharedCache());
}

void
expectIdentical(const ServeReport &a, const ServeReport &b)
{
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.makespanUs, b.makespanUs);
    EXPECT_EQ(a.totalMacs, b.totalMacs);
    EXPECT_EQ(a.irFailures, b.irFailures);
    EXPECT_EQ(a.stallWindows, b.stallWindows);
    EXPECT_EQ(a.p50Us, b.p50Us);
    EXPECT_EQ(a.p95Us, b.p95Us);
    EXPECT_EQ(a.p99Us, b.p99Us);
    ASSERT_EQ(a.latencyUs.size(), b.latencyUs.size());
    for (size_t i = 0; i < a.latencyUs.size(); ++i) {
        EXPECT_EQ(a.latencyUs[i], b.latencyUs[i]) << "request " << i;
        EXPECT_EQ(a.queueUs[i], b.queueUs[i]) << "request " << i;
    }
    EXPECT_EQ(a.render(), b.render());
}

} // namespace

TEST(BackendFleet, MeshReportBitIdenticalAcrossThreads)
{
    const auto serial = run(power::IrBackendKind::Mesh, 1);
    for (int threads : {2, 4})
        expectIdentical(serial,
                        run(power::IrBackendKind::Mesh, threads));
}

TEST(BackendFleet, TransientReportBitIdenticalAcrossThreads)
{
    // Fixed and auto-derived steps: every round's eval steps through
    // factors its backend shares across threads (one per dt).
    for (double dt_ns : {AimOptions{}.transientDtNs, 0.0}) {
        const auto serial =
            run(power::IrBackendKind::Transient, 1, dt_ns);
        for (int threads : {2, 4})
            expectIdentical(serial,
                            run(power::IrBackendKind::Transient,
                                threads, dt_ns));
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
