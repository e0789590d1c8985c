#include "Spans.hh"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench
{

Tracer::Tracer() : t0(Clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

int
Tracer::begin(const std::string &name, long request)
{
    Span s;
    s.name = name;
    s.parent = open.empty() ? -1 : open.back();
    s.request = request;
    s.startUs = nowUs();
    all.push_back(std::move(s));
    open.push_back(static_cast<int>(all.size()) - 1);
    return open.back();
}

void
Tracer::end(int id)
{
    all[static_cast<size_t>(id)].endUs = nowUs();
    if (!open.empty() && open.back() == id)
        open.pop_back();
}

void
Tracer::aggregate(const std::string &name, double total_us, long calls,
                  long request)
{
    Span s;
    s.name = name;
    s.parent = open.empty() ? -1 : open.back();
    s.request = request;
    s.startUs = s.parent >= 0 ? all[static_cast<size_t>(s.parent)].startUs
                              : nowUs() - total_us;
    s.endUs = s.startUs + total_us;
    s.calls = calls;
    all.push_back(std::move(s));
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const auto &s : all)
        if (s.name == name)
            out.push_back(s.endUs - s.startUs);
    return out;
}

std::vector<double>
Tracer::selfDurations(const std::string &name) const
{
    std::vector<double> child(all.size(), 0.0);
    for (const auto &s : all)
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] += s.endUs - s.startUs;
    std::vector<double> out;
    for (size_t i = 0; i < all.size(); ++i)
        if (all[i].name == name)
            out.push_back(all[i].endUs - all[i].startUs - child[i]);
    return out;
}

double
Tracer::childTotal(const std::string &name) const
{
    double t = 0.0;
    for (const auto &s : all)
        if (s.parent >= 0 &&
            all[static_cast<size_t>(s.parent)].name == name)
            t += s.endUs - s.startUs;
    return t;
}

long
Tracer::calls(const std::string &name) const
{
    long n = 0;
    for (const auto &s : all)
        if (s.name == name)
            n += s.calls;
    return n;
}

double
Tracer::total(const std::string &name) const
{
    double t = 0.0;
    for (const auto &s : all)
        if (s.name == name)
            t += s.endUs - s.startUs;
    return t;
}

double
Tracer::rootTotal() const
{
    double t = 0.0;
    for (const auto &s : all)
        if (s.parent < 0)
            t += s.endUs - s.startUs;
    return t;
}

std::vector<std::pair<std::string, double>>
Tracer::layerSelfUs() const
{
    std::vector<double> child(all.size(), 0.0);
    for (const auto &s : all)
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] += s.endUs - s.startUs;
    std::map<std::string, double> self;
    for (size_t i = 0; i < all.size(); ++i) {
        const auto &s = all[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        self[layer] += std::max(0.0, s.endUs - s.startUs - child[i]);
    }
    std::vector<std::pair<std::string, double>> out(self.begin(),
                                                    self.end());
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < all.size(); ++i) {
        const auto &s = all[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                     "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                     "\"tid\": 1, \"args\": {\"id\": %zu, \"parent\": "
                     "%d, \"request\": %ld, \"calls\": %ld}}",
                     i ? ",\n" : "", s.name.c_str(),
                     s.name.substr(0, s.name.find('.')).c_str(),
                     s.startUs, s.endUs - s.startUs, i, s.parent,
                     s.request, s.calls);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

bool
Tracer::writeSummary(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double root = rootTotal();
    std::fprintf(f, "%-10s %14s %8s\n", "layer", "self_ms", "share");
    for (const auto &[layer, us] : layerSelfUs())
        std::fprintf(f, "%-10s %14.3f %7.2f%%\n", layer.c_str(),
                     us / 1e3, root > 0.0 ? 100.0 * us / root : 0.0);
    return std::fclose(f) == 0;
}

} // namespace perfbench
