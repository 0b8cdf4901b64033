#include "core/report.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "sim/assert.hh"
#include "sim/stats.hh"

namespace cdna::core {

std::string
Report::header()
{
    return "config                    Mb/s    Hyp  DrvOS DrvUsr  GstOS "
           "GstUsr   Idle   drvIrq/s gstIrq/s";
}

std::string
Report::row() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%-22s %7.0f  %5.1f  %5.1f  %5.1f  %5.1f  %5.1f  %5.1f "
                  "  %8.0f %8.0f",
                  label.c_str(), mbps, hypPct, drvOsPct, drvUserPct,
                  guestOsPct, guestUserPct, idlePct, drvIntrPerSec,
                  guestIntrPerSec);
    return buf;
}

bool
Report::anyFaultActivity() const
{
    return faultFramesDropped || faultFramesCorrupted ||
           faultFramesDuplicated || faultDmaDelays || firmwareStalls ||
           guestKills || mailboxTimeouts || ringResyncs ||
           driverDomainKills || firmwareReboots || feReconnects ||
           grantsRevoked || pagesQuarantined || mailboxThrottled ||
           outagePacketsLost || switchDrops;
}

std::string
Report::faultSummary() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  drops: nodesc=%llu nobuf=%llu filter=%llu | faults: "
        "drop=%llu corrupt=%llu dup=%llu dmadelay=%llu fwstall=%llu "
        "kill=%llu | recovery: timeout=%llu resync=%llu",
        static_cast<unsigned long long>(rxDropsNoDesc),
        static_cast<unsigned long long>(rxDropsNoBuf),
        static_cast<unsigned long long>(rxDropsFilter),
        static_cast<unsigned long long>(faultFramesDropped),
        static_cast<unsigned long long>(faultFramesCorrupted),
        static_cast<unsigned long long>(faultFramesDuplicated),
        static_cast<unsigned long long>(faultDmaDelays),
        static_cast<unsigned long long>(firmwareStalls),
        static_cast<unsigned long long>(guestKills),
        static_cast<unsigned long long>(mailboxTimeouts),
        static_cast<unsigned long long>(ringResyncs));
    std::string out = buf;
    if (driverDomainKills || firmwareReboots || feReconnects ||
        grantsRevoked || outagePacketsLost) {
        std::snprintf(
            buf, sizeof(buf),
            " | outage: domkill=%llu fwreboot=%llu reconnect=%llu "
            "revoked=%llu quarantined=%llu lost=%llu",
            static_cast<unsigned long long>(driverDomainKills),
            static_cast<unsigned long long>(firmwareReboots),
            static_cast<unsigned long long>(feReconnects),
            static_cast<unsigned long long>(grantsRevoked),
            static_cast<unsigned long long>(pagesQuarantined),
            static_cast<unsigned long long>(outagePacketsLost));
        out += buf;
    }
    if (switchDrops) {
        std::snprintf(
            buf, sizeof(buf),
            " | fabric: swdrops=%llu (%llu bytes, qpeak=%llu)",
            static_cast<unsigned long long>(switchDrops),
            static_cast<unsigned long long>(switchDropBytes),
            static_cast<unsigned long long>(switchQueuePeakBytes));
        out += buf;
    }
    return out;
}

double
Report::fairness() const
{
    if (perGuestMbps.empty())
        return 1.0;
    double lo = *std::min_element(perGuestMbps.begin(), perGuestMbps.end());
    double hi = *std::max_element(perGuestMbps.begin(), perGuestMbps.end());
    return hi > 0 ? lo / hi : 1.0;
}

const std::vector<ReportColumn> &
reportColumns()
{
#define CDNA_COLUMN(kind, field, k, fmt, src)                             \
    {.key = k, .format = fmt, .source = src, CDNA_ROW_##kind(field)},
#define CDNA_ROW_Real(f) .get = [](const Report &r) -> double { return r.f; }
#define CDNA_ROW_Level CDNA_ROW_Real
#define CDNA_ROW_Computed(f) .get = [](const Report &r) { return r.f(); }
#define CDNA_ROW_Rate(f) CDNA_ROW_Real(f), .rate = &Report::f
#define CDNA_ROW_Count(f) CDNA_ROW_Real(f), .count = &Report::f
#define CDNA_ROW_List(f)                                                  \
    .list = [](const Report &r) -> const std::vector<double> & { return r.f; }
    static const std::vector<ReportColumn> columns = {
#include "core/report_columns.def"
    };
#undef CDNA_ROW_Real
#undef CDNA_ROW_Level
#undef CDNA_ROW_Computed
#undef CDNA_ROW_Rate
#undef CDNA_ROW_Count
#undef CDNA_ROW_List
    return columns;
}

const ReportColumn *
findReportColumn(const std::string &key)
{
    for (const ReportColumn &c : reportColumns())
        if (key == c.key)
            return &c;
    return nullptr;
}

std::vector<CounterSource>
counterSources(const ReportColumn &c)
{
    std::vector<CounterSource> out;
    if (!c.source)
        return out;
    std::string_view rest = c.source;
    while (!rest.empty()) {
        std::string_view one = rest.substr(0, rest.find('+'));
        rest.remove_prefix(std::min(rest.size(), one.size() + 1));
        std::size_t dot = one.rfind('.');
        if (dot == std::string_view::npos)
            out.push_back({"", std::string(one)});
        else
            out.push_back({std::string(one.substr(0, dot)),
                           std::string(one.substr(dot + 1))});
    }
    return out;
}

void
addSourcedCounters(Report &totals, std::string_view component,
                   const sim::StatGroup &stats)
{
    // Stat name -> (source, column) for every sourced column.
    using Feed = std::pair<CounterSource, const ReportColumn *>;
    static const std::unordered_map<std::string, std::vector<Feed>> feeds =
        [] {
            std::unordered_map<std::string, std::vector<Feed>> m;
            for (const ReportColumn &c : reportColumns())
                for (CounterSource &src : counterSources(c)) {
                    SIM_ASSERT(c.count || c.rate,
                               "only rate and counter columns sum stats");
                    m[src.stat].push_back({std::move(src), &c});
                }
            return m;
        }();
    for (const auto &[name, counter] : stats.counters()) {
        auto it = feeds.find(name);
        if (it == feeds.end())
            continue;
        for (const auto &[src, c] : it->second) {
            if (!src.matches(component, name))
                continue;
            if (c->count)
                totals.*c->count += counter->value();
            else
                totals.*c->rate += static_cast<double>(counter->value());
        }
    }
}

std::string
reportToJson(const Report &r)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\n  \"schema_version\": %d,\n  \"label\": \"%s\",\n",
                  kReportSchemaVersion, r.label.c_str());
    std::string out = buf;
    const std::vector<ReportColumn> &columns = reportColumns();
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const ReportColumn &c = columns[i];
        out += "  \"";
        out += c.key;
        out += "\": ";
        if (c.get) {
            std::snprintf(buf, sizeof(buf), c.format, c.get(r));
            out += buf;
        } else {
            const std::vector<double> &values = c.list(r);
            out += '[';
            for (std::size_t k = 0; k < values.size(); ++k) {
                if (k)
                    out += ", ";
                std::snprintf(buf, sizeof(buf), c.format, values[k]);
                out += buf;
            }
            out += ']';
        }
        out += i + 1 < columns.size() ? ",\n" : "\n";
    }
    out += "}\n";
    return out;
}

} // namespace cdna::core
