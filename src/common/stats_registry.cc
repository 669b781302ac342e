#include "common/stats_registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/logging.hh"

namespace smtdram
{

namespace
{

/** Render a double as JSON (no NaN/Inf in the grammar). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

/** The names of @p items, in order. */
template <typename T>
std::vector<std::string>
namesOf(const std::vector<std::pair<std::string, T>> &items)
{
    std::vector<std::string> names;
    names.reserve(items.size());
    for (const auto &item : items)
        names.push_back(item.first);
    return names;
}

/** Panic naming a stat that appears twice in @p names. */
void
checkUnique(const char *kind, std::vector<std::string> names)
{
    std::sort(names.begin(), names.end());
    const auto dup = std::adjacent_find(names.begin(), names.end());
    panic_if(dup != names.end(), "%s '%s' emitted twice in one sample",
             kind, dup->c_str());
}

/** Panic naming the first stat where @p got departs from @p fixed. */
template <typename T>
void
checkShape(const char *kind, const std::vector<std::string> &fixed,
           const std::vector<std::pair<std::string, T>> &got)
{
    std::size_t i = 0;
    while (i < fixed.size() && i < got.size() && fixed[i] == got[i].first)
        ++i;
    if (i < got.size()) {
        const std::string had =
            i < fixed.size() ? "'" + fixed[i] + "'" : "nothing";
        panic("stats sample emits %s '%s' at position %zu, where the "
              "first sample had %s",
              kind, got[i].first.c_str(), i, had.c_str());
    }
    panic_if(i < fixed.size(),
             "stats sample lacks %s '%s' that the first sample had at "
             "position %zu",
             kind, fixed[i].c_str(), i);
}

} // namespace

StatsSample
StatsRegistry::sample() const
{
    StatsSample s;
    s.scalars.reserve(scalarNames_.size());
    s.histograms.reserve(histNames_.size());
    source_(s);
    if (shaped_) {
        checkShape("scalar", scalarNames_, s.scalars);
        checkShape("histogram", histNames_, s.histograms);
        return s;
    }
    scalarNames_ = namesOf(s.scalars);
    histNames_ = namesOf(s.histograms);
    checkUnique("scalar", scalarNames_);
    checkUnique("histogram", histNames_);
    shaped_ = true;
    return s;
}

void
StatsRegistry::setMeta(const std::string &key, const std::string &value)
{
    for (auto &kv : meta_) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    meta_.emplace_back(key, value);
}

void
StatsRegistry::sampleEpoch(Cycle now)
{
    const StatsSample s = sample();
    epochCycles_.push_back(now);
    for (const auto &scalar : s.scalars)
        series_.push_back(scalar.second);
}

double
StatsRegistry::value(const std::string &name) const
{
    const StatsSample s = sample();
    for (const auto &scalar : s.scalars) {
        if (scalar.first == name)
            return scalar.second;
    }
    panic("no scalar '%s' in the stats sample", name.c_str());
}

void
StatsRegistry::writeJson(std::ostream &os, Cycle final_cycle) const
{
    const StatsSample s = sample();
    os << "{\n\"schema\":" << jsonString(kSchemaName)
       << ",\n\"version\":" << kSchemaVersion << ",\n\"meta\":{";
    for (size_t i = 0; i < meta_.size(); ++i) {
        if (i)
            os << ",";
        os << jsonString(meta_[i].first) << ":"
           << jsonString(meta_[i].second);
    }
    os << "},\n\"finalCycle\":" << final_cycle << ",\n\"scalars\":{";
    for (size_t i = 0; i < s.scalars.size(); ++i) {
        if (i)
            os << ",";
        os << "\n" << jsonString(s.scalars[i].first) << ":"
           << jsonNumber(s.scalars[i].second);
    }
    os << "},\n\"histograms\":{";
    for (size_t i = 0; i < s.histograms.size(); ++i) {
        if (i)
            os << ",";
        const LogHistogram &h = s.histograms[i].second;
        os << "\n" << jsonString(s.histograms[i].first) << ":{"
           << "\"count\":" << h.total() << ",\"min\":" << h.min()
           << ",\"max\":" << h.max()
           << ",\"mean\":" << jsonNumber(h.mean())
           << ",\"p50\":" << jsonNumber(h.p50())
           << ",\"p90\":" << jsonNumber(h.p90())
           << ",\"p99\":" << jsonNumber(h.p99())
           << ",\"p999\":" << jsonNumber(h.p999()) << ",\"buckets\":[";
        bool first = true;
        for (size_t b = 0; b < h.numBuckets(); ++b) {
            if (h.bucketCount(b) == 0)
                continue;
            if (!first)
                os << ",";
            first = false;
            os << "[" << LogHistogram::bucketLowerBound(b) << ","
               << h.bucketCount(b) << "]";
        }
        os << "]}";
    }
    os << "},\n\"epochs\":{\"cycle\":[";
    for (size_t e = 0; e < epochCycles_.size(); ++e) {
        if (e)
            os << ",";
        os << epochCycles_[e];
    }
    os << "],\"series\":{";
    const size_t n = s.scalars.size();
    for (size_t i = 0; i < n && !epochCycles_.empty(); ++i) {
        if (i)
            os << ",";
        os << "\n" << jsonString(s.scalars[i].first) << ":[";
        for (size_t e = 0; e < epochCycles_.size(); ++e) {
            if (e)
                os << ",";
            os << jsonNumber(series_[e * n + i]);
        }
        os << "]";
    }
    os << "}}\n}\n";
}

void
StatsRegistry::writeCsv(std::ostream &os, Cycle final_cycle) const
{
    const StatsSample s = sample();
    os << "cycle";
    for (const auto &scalar : s.scalars)
        os << "," << scalar.first;
    os << "\n";
    const size_t n = s.scalars.size();
    for (size_t e = 0; e < epochCycles_.size(); ++e) {
        os << epochCycles_[e];
        for (size_t i = 0; i < n; ++i)
            os << "," << jsonNumber(series_[e * n + i]);
        os << "\n";
    }
    os << final_cycle;
    for (const auto &scalar : s.scalars)
        os << "," << jsonNumber(scalar.second);
    os << "\n";
}

} // namespace smtdram
