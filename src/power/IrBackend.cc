#include "power/IrBackend.hh"

#include <ios>
#include <map>
#include <mutex>
#include <sstream>

#include "power/MeshBackend.hh"
#include "power/TransientBackend.hh"
#include "util/Logging.hh"

namespace aim::power
{

const char *
irBackendName(IrBackendKind kind)
{
    switch (kind) {
    case IrBackendKind::Analytic:
        return "analytic";
    case IrBackendKind::Mesh:
        return "mesh";
    case IrBackendKind::Transient:
        return "transient";
    }
    return "unknown";
}

bool
irBackendFromName(const std::string &name, IrBackendKind &out)
{
    for (IrBackendKind kind :
         {IrBackendKind::Analytic, IrBackendKind::Mesh,
          IrBackendKind::Transient})
        if (name == irBackendName(kind)) {
            out = kind;
            return true;
        }
    return false;
}

namespace
{

/** Equation-2 evaluator: stateless, one noisy drop per group. */
class AnalyticEval final : public IrEval
{
  public:
    explicit AnalyticEval(const IrModel &ir) : ir(ir) {}

    void
    window(const std::vector<GroupWindow> &groups, util::Rng &rng,
           std::vector<double> &dropMv) override
    {
        for (size_t g = 0; g < groups.size(); ++g) {
            const GroupWindow &gw = groups[g];
            if (!gw.active)
                continue;
            dropMv[g] = ir.noisyDropMv(gw.v, gw.fGhz, gw.rtog, rng);
        }
    }

  private:
    const IrModel &ir;
};

/** Wraps the existing Equation-2 IrModel (the default backend). */
class AnalyticBackend final : public IrBackend
{
  public:
    explicit AnalyticBackend(const Calibration &cal) : ir(cal) {}

    IrBackendKind
    kind() const override
    {
        return IrBackendKind::Analytic;
    }

    std::unique_ptr<IrEval>
    newEval(const std::vector<std::vector<int>> &) const override
    {
        return std::make_unique<AnalyticEval>(ir);
    }

  private:
    IrModel ir;
};

} // namespace

namespace
{

/**
 * Everything a mesh-family backend's construction depends on,
 * hexfloat so near-equal calibrations never collide.  Two equal keys
 * produce byte-identical backends (construction is deterministic),
 * which is what makes the memoization below invisible.
 */
std::string
backendKey(const IrBackendConfig &cfg, const Calibration &cal)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << static_cast<int>(cfg.kind) << '|' << cfg.groups << ','
       << cfg.macrosPerGroup << ',' << cfg.meshSize << ','
       << cfg.meshBumpPitch << ',' << cfg.rtogThreshold;
    // Only the transient backend reads the transient fields; keying
    // them for Mesh would factor and solve again for configs that
    // differ nowhere the backend can see.
    if (cfg.kind == IrBackendKind::Transient)
        os << ',' << cfg.transientDecapNf << ','
           << cfg.transientDtNs << ',' << cfg.transientBumpPh << ','
           << cfg.windowCycles;
    os << '|' << cal.vddNominal << ','
       << cal.fNominal << ',' << cal.vth << ',' << cal.alphaPower
       << ',' << cal.staticDropMv << ',' << cal.dynDropFullMv << ','
       << cal.apimActivityFloor << ',' << cal.dpimNoiseMv << ','
       << cal.apimNoiseMv;
    return os.str();
}

/** Process-wide memo of the mesh-family backends. */
std::shared_ptr<const IrBackend>
memoized(const IrBackendConfig &cfg, const Calibration &cal)
{
    static std::mutex mutex;
    static std::map<std::string, std::shared_ptr<const IrBackend>>
        cache;
    const std::string key = backendKey(cfg, cal);
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(key);
    if (it == cache.end()) {
        std::shared_ptr<const IrBackend> built;
        if (cfg.kind == IrBackendKind::Mesh)
            built = std::make_shared<MeshBackend>(cfg, cal);
        else
            built = std::make_shared<TransientBackend>(cfg, cal);
        it = cache.emplace(key, std::move(built)).first;
    }
    return it->second;
}

} // namespace

std::shared_ptr<const IrBackend>
makeIrBackend(const IrBackendConfig &cfg, const Calibration &cal)
{
    switch (cfg.kind) {
    case IrBackendKind::Analytic:
        // Construction is two struct copies; nothing to share.
        return std::make_shared<AnalyticBackend>(cal);
    case IrBackendKind::Mesh:
    case IrBackendKind::Transient:
        // The factors and calibration solve are the expensive part;
        // memoize them process-wide (backends are immutable and
        // thread-shared by design, see the class comment).
        return memoized(cfg, cal);
    }
    aim_fatal("unknown IrBackendKind ", static_cast<int>(cfg.kind));
}

} // namespace aim::power
