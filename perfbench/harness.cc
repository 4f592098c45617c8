#include "harness.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>

#include "util/random.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.close();
    if (!clear)
        throw std::runtime_error("cannot reset the peak resident set "
                                 "through /proc/self/clear_refs");
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

namespace
{

/** ceil(pct% of n), immune to 99.9 / 100 * 10000 = 9990.000...2. */
std::size_t
nearestRank(double pct, std::size_t n)
{
    return static_cast<std::size_t>(
        std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9));
}

} // namespace

double
percentile(std::vector<double> &samples, double pct)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t rank =
        std::clamp<std::size_t>(nearestRank(pct, samples.size()), 1,
                                samples.size());
    return samples[rank - 1];
}

double
tailPercentile(std::size_t n)
{
    static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    for (double pct : kLadder) {
        std::size_t rank = nearestRank(pct, n);
        if (rank >= 1 && n - rank >= 10)
            return pct;
    }
    return 0.0;
}

double
median(std::vector<double> values)
{
    return percentile(values, 50.0);
}

std::vector<std::string>
balancedDraw(std::vector<PoolModel> pool, std::size_t count,
             std::uint64_t seed, const PoolModel &target, double tolerance)
{
    if (count == 0 || pool.size() < count)
        throw std::invalid_argument(
            "model pool of " + std::to_string(pool.size()) +
            " cannot supply " + std::to_string(count) + " draws");
    tlbpf::Rng rng(tlbpf::mix64(seed ^ 0x7065726662656e63ull));
    std::vector<PoolModel> best;
    double best_gap = 1e300;
    for (int attempt = 0; attempt < 200000 && best_gap > tolerance;
         ++attempt) {
        // A partial Fisher-Yates shuffle: the first count are the draw.
        double rate = 0.0, pages = 0.0;
        for (std::size_t i = 0; i < count; ++i) {
            std::swap(pool[i], pool[i + rng.nextBelow(pool.size() - i)]);
            rate += pool[i].noneMissRate;
            pages += pool[i].footprintPages;
        }
        double gap =
            std::max(std::abs(rate - target.noneMissRate) /
                         target.noneMissRate,
                     std::abs(pages - target.footprintPages) /
                         target.footprintPages);
        if (gap < best_gap) {
            best_gap = gap;
            best.assign(pool.begin(),
                        pool.begin() + static_cast<std::ptrdiff_t>(count));
        }
    }
    std::sort(best.begin(), best.end(),
              [](const PoolModel &a, const PoolModel &b) {
                  return a.noneMissRate != b.noneMissRate
                             ? a.noneMissRate < b.noneMissRate
                             : a.name < b.name;
              });
    std::vector<std::string> out;
    for (const PoolModel &m : best)
        out.push_back(m.name);
    return out;
}

namespace
{

void
fnv(std::uint64_t &h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
}

} // namespace

std::uint64_t
rowDigest(const std::vector<tlbpf::SweepResult> &row)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const tlbpf::SweepResult &r : row) {
        fnv(h, r.mechanism.c_str(), r.mechanism.size() + 1);
        const tlbpf::SimResult &c = r.functional;
        const std::uint64_t fields[] = {
            c.refs,           c.misses,           c.pbHits,
            c.demandFetches,  c.prefetchesIssued, c.prefetchesSuppressed,
            c.stateOps,       c.pbEvictedUnused,  c.footprintPages,
            c.contextSwitches};
        fnv(h, fields, sizeof(fields));
    }
    return h;
}

ExpectedTable
ExpectedTable::parse(const std::string &text)
{
    // Lines: "grid <name> <refs>" per grid, then one line per model:
    // "<model>" followed by "<none-miss-rate> <footprint> <digest-hex>"
    // per grid.
    ExpectedTable table;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string head;
        fields >> head;
        if (head == "grid") {
            std::string name;
            fields >> name;
            table.grids.push_back(name);
            continue;
        }
        for (const std::string &grid : table.grids) {
            Cell cell;
            std::string hex;
            if (!(fields >> cell.noneMissRate >> cell.footprintPages >> hex))
                throw std::invalid_argument(
                    "expected values: model '" + head +
                    "' lacks grid '" + grid + "'");
            cell.digest = std::stoull(hex, nullptr, 16);
            table.models[head][grid] = cell;
        }
    }
    if (table.grids.empty() || table.models.empty())
        throw std::invalid_argument(
            "expected values: no grids or no models");
    return table;
}

bool
ExpectedTable::matches(const std::string &model, const std::string &grid,
                       const std::vector<tlbpf::SweepResult> &row) const
{
    auto it = models.find(model);
    if (it == models.end())
        return false;
    auto cell = it->second.find(grid);
    return cell != it->second.end() && cell->second.digest == rowDigest(row);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

Tracer::Tracer(bool enabled) : _enabled(enabled), _epoch(Clock::now())
{
    if (!enabled)
        return;
    // The cost of the now() pair that brackets every span, so self
    // times measure the layer's call and not the clock.
    std::vector<double> pairs;
    for (int i = 0; i < 2001; ++i) {
        auto a = Clock::now();
        auto b = Clock::now();
        pairs.push_back(
            std::chrono::duration<double, std::nano>(b - a).count());
    }
    _clockPairNs = median(pairs);
    _spans.reserve(1 << 16);
}

Tracer &
Tracer::disabled()
{
    static Tracer off(false);
    return off;
}

int
Tracer::open(const char *name, std::int64_t seq)
{
    Span span;
    span.name = name;
    span.parent = _stack.empty() ? -1 : _stack.back();
    span.seq = seq < 0 && span.parent >= 0 ? _spans[span.parent].seq : seq;
    int id = static_cast<int>(_spans.size());
    _spans.push_back(span);
    _stack.push_back(id);
    _spans[id].startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - _epoch)
                             .count();
    return id;
}

void
Tracer::close(int id, std::uint64_t count)
{
    std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - _epoch)
                           .count();
    if (_stack.empty() || _stack.back() != id) {
        // Scopes close in reverse order by construction; anything else
        // is a benchmark bug, and this runs inside a destructor.
        std::fprintf(stderr, "perfbench: span %d closed out of order\n",
                     id);
        std::abort();
    }
    _stack.pop_back();
    _spans[id].endNs = now;
    _spans[id].count = count;
}

std::map<std::string, Tracer::Totals>
Tracer::totals(std::size_t begin, std::size_t end) const
{
    end = std::min(end, _spans.size());
    std::vector<double> wall(_spans.size());
    std::vector<double> self(_spans.size());
    for (std::size_t i = begin; i < end; ++i) {
        wall[i] = std::max(0.0, static_cast<double>(_spans[i].endNs -
                                                    _spans[i].startNs) -
                                    _clockPairNs);
        self[i] = wall[i];
    }
    for (std::size_t i = begin; i < end; ++i)
        if (_spans[i].parent >= 0)
            self[_spans[i].parent] -= wall[i] + _clockPairNs;
    std::map<std::string, Totals> out;
    for (std::size_t i = begin; i < end; ++i) {
        Totals &t = out[_spans[i].name];
        t.selfNs += std::max(0.0, self[i]);
        t.wallNs += wall[i];
        t.count += _spans[i].count;
        ++t.spans;
    }
    return out;
}

void
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write spans to " + path);
    for (const Span &s : _spans)
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%" PRId64
                     ",\"end_ns\":%" PRId64 ",\"parent\":%d,\"seq\":%" PRId64
                     ",\"count\":%" PRIu64 "}\n",
                     s.name, s.startNs, s.endNs, s.parent, s.seq, s.count);
    std::fclose(f);
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metric.value) ? metric.value : 0.0);
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metric.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

} // namespace perfbench
