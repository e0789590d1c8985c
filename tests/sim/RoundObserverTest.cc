/**
 * @file
 * The sim::RoundObserver contract of Runtime::run: on uneven rounds
 * with empty ones among them, on every droop backend and on pools of
 * 1, 2 and 4 threads, begin runs once per round with tasks and never
 * for an empty one, window counts run 1..n without gaps and stop at
 * convergence, end runs once with no Set remaining, and an observed
 * run's report equals the unobserved one bit for bit.  With a carry
 * the rounds are observed in order on the calling thread.
 */

#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "exec/ExecPool.hh"
#include "sim/ChipState.hh"

using namespace aim;

namespace
{

using test::convRound;

/** What the observer saw of one round. */
struct RoundLog
{
    int begins = 0;
    int ends = 0;
    long windows = 0;
    /** Every window call followed begin, counted one up from the
     * last, and the call before it still saw passes left. */
    bool inOrder = true;
    /** The state at the latest call had passes left. */
    bool remaining = true;
};

class RecordingObserver final : public sim::RoundObserver
{
  public:
    explicit RecordingObserver(size_t rounds) : log(rounds) {}

    void begin(size_t round, const sim::ChipState &state) override
    {
        RoundLog &l = log.at(round);
        ++l.begins;
        l.remaining = state.anyRemaining();
        const std::lock_guard<std::mutex> lock(mu);
        order.push_back(round);
        threads.push_back(std::this_thread::get_id());
    }

    void window(size_t round, const sim::ChipState &state,
                long windowsSoFar) override
    {
        RoundLog &l = log.at(round);
        l.inOrder = l.inOrder && l.begins == 1 && l.ends == 0 &&
                    l.remaining && windowsSoFar == l.windows + 1;
        l.windows = windowsSoFar;
        l.remaining = state.anyRemaining();
    }

    void end(size_t round, const sim::ChipState &state) override
    {
        RoundLog &l = log.at(round);
        ++l.ends;
        l.remaining = l.remaining || state.anyRemaining();
    }

    std::vector<RoundLog> log;
    std::vector<size_t> order;
    std::vector<std::thread::id> threads;

  private:
    std::mutex mu;
};

/** Uneven rounds, empty ones at both ends and in the middle. */
std::vector<sim::Round>
unevenRounds()
{
    return {sim::Round{}, convRound(0.30, 16, 20'000'000), sim::Round{},
            convRound(0.45, 8, 12'000'000, true),
            convRound(0.55, 16, 6'000'000), sim::Round{}};
}

sim::RunConfig
backendConfig(power::IrBackendKind kind)
{
    sim::RunConfig rcfg;
    rcfg.mapper = mapping::MapperKind::Sequential;
    rcfg.irBackend = kind;
    rcfg.seed = 77;
    return rcfg;
}

void
expectContract(const std::vector<sim::Round> &rounds,
               const RecordingObserver &obs)
{
    for (size_t r = 0; r < rounds.size(); ++r) {
        SCOPED_TRACE("round " + std::to_string(r));
        const RoundLog &l = obs.log[r];
        if (rounds[r].tasks.empty()) {
            EXPECT_EQ(l.begins, 0);
            EXPECT_EQ(l.windows, 0);
            EXPECT_EQ(l.ends, 0);
            continue;
        }
        EXPECT_EQ(l.begins, 1);
        EXPECT_GT(l.windows, 0);
        EXPECT_TRUE(l.inOrder);
        EXPECT_EQ(l.ends, 1);
        // The last window ran the last pass, and end saw it.
        EXPECT_FALSE(l.remaining);
    }
}

constexpr power::IrBackendKind kBackends[] = {
    power::IrBackendKind::Analytic, power::IrBackendKind::Mesh,
    power::IrBackendKind::Transient};

} // namespace

TEST(RoundObserver, ContractHoldsOnEveryBackendAndPoolSize)
{
    const auto rounds = unevenRounds();
    for (const auto kind : kBackends) {
        const sim::Runtime rt(pim::PimConfig{},
                              power::defaultCalibration(),
                              backendConfig(kind));
        const auto want = rt.run(rounds, test::stream(), 77);
        for (const int threads : {1, 2, 4}) {
            SCOPED_TRACE(std::string(power::irBackendName(kind)) + ", " +
                         std::to_string(threads) + " threads");
            exec::ExecPool pool(threads);
            RecordingObserver obs(rounds.size());
            test::expectSameRun(
                rt.run(rounds, test::stream(), 77, nullptr, &pool, &obs),
                want);
            expectContract(rounds, obs);
        }
    }
}

TEST(RoundObserver, CarryObservesRoundsInOrderOnTheCallingThread)
{
    const auto rounds = unevenRounds();
    const sim::Runtime rt(pim::PimConfig{}, power::defaultCalibration(),
                          backendConfig(power::IrBackendKind::Transient));
    std::unique_ptr<power::IrState> ref, carry;
    const auto want = rt.run(rounds, test::stream(), 5, &ref);

    exec::ExecPool pool(4);
    RecordingObserver obs(rounds.size());
    test::expectSameRun(
        rt.run(rounds, test::stream(), 5, &carry, &pool, &obs), want);
    expectContract(rounds, obs);
    EXPECT_EQ(obs.order, (std::vector<size_t>{1, 3, 4}));
    for (const auto &id : obs.threads)
        EXPECT_EQ(id, std::this_thread::get_id());
}
