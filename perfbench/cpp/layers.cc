#include "layers.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char *
layerName(Layer l)
{
    switch (l) {
      case kWorkloadNext:
        return "workload.next";
      case kSimSchedule:
        return "sim.schedule";
      case kL1Access:
        return "cache.l1_access";
      case kUmonObserve:
        return "alloc.umon_observe";
      case kRepartition:
        return "alloc.repartition";
      case kLookup:
        return "array.lookup";
      case kHitUpdate:
        return "partition.hit_update";
      case kWalk:
        return "array.walk";
      case kSelectVictim:
        return "partition.select_victim";
      case kReplace:
        return "array.replace";
      case kFrameDecode:
        return "serve.frame_decode";
      case kJournalWrite:
        return "serve.journal_write";
      case kTenantAccess:
        return "serve.tenant_access";
      case kJoin:
        return "serve.join";
      case kLeave:
        return "serve.leave";
      case kNumLayers:
        break;
    }
    return "unit";
}

bool
layerReportsMicros(Layer l)
{
    return l == kRepartition || l == kJoin || l == kLeave;
}

std::uint64_t
LayerClock::attributedNs() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t v : ns_) {
        sum += v;
    }
    return sum;
}

bool
LayerClock::writeChromeTrace(const std::string &path,
                             const std::string &processName) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().t0;
    const auto us = [base](std::uint64_t t) {
        return static_cast<double>(t - base) / 1000.0;
    };
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":"
                 "0,\"sampled_units\":1},\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
                 "\"tid\":1,\"args\":{\"name\":\"%s\"}}",
                 processName.c_str());
    // Spans arrive unit by unit: a unit marker, then its layers in
    // time order. Close each unit when the next one opens.
    bool open = false;
    std::uint64_t openUnit = 0;
    std::uint64_t lastEnd = 0;
    const auto closeUnit = [&]() {
        if (open) {
            std::fprintf(f,
                         ",\n{\"ph\":\"E\",\"name\":\"unit\",\"cat\":"
                         "\"bench\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                         "\"args\":{\"id\":%llu}}",
                         us(lastEnd),
                         static_cast<unsigned long long>(openUnit));
            open = false;
        }
    };
    for (const Span &s : spans_) {
        if (s.layer == kNumLayers) {
            closeUnit();
            open = true;
            openUnit = s.unit;
            lastEnd = s.t0;
            std::fprintf(f,
                         ",\n{\"ph\":\"B\",\"name\":\"unit\",\"cat\":"
                         "\"bench\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                         "\"args\":{\"id\":%llu}}",
                         us(s.t0),
                         static_cast<unsigned long long>(s.unit));
            continue;
        }
        if (!open || s.unit != openUnit) {
            continue;
        }
        const char *name = layerName(s.layer);
        std::fprintf(f,
                     ",\n{\"ph\":\"B\",\"name\":\"%s\",\"cat\":\"layer\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"args\":{\"id\":"
                     "%llu}}",
                     name, us(s.t0),
                     static_cast<unsigned long long>(s.unit));
        std::fprintf(f,
                     ",\n{\"ph\":\"E\",\"name\":\"%s\",\"cat\":\"layer\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"args\":{\"id\":"
                     "%llu}}",
                     name, us(s.t1),
                     static_cast<unsigned long long>(s.unit));
        lastEnd = std::max(lastEnd, s.t1);
    }
    closeUnit();
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

void
reportLayers(const LayerClock *clock, JsonObject &out)
{
    const double loop =
        clock != nullptr ? static_cast<double>(clock->loopNs()) : 0.0;
    for (int i = 0; i < kNumLayers; ++i) {
        const auto l = static_cast<Layer>(i);
        const std::string name = layerName(l);
        const double calls =
            clock != nullptr ? static_cast<double>(clock->calls(l)) : 0.0;
        const double ns =
            clock != nullptr ? static_cast<double>(clock->ns(l)) : 0.0;
        const double per = calls > 0 ? ns / calls : 0.0;
        if (layerReportsMicros(l)) {
            out.num(name + "_us", per / 1000.0);
        } else {
            out.num(name + "_ns", per);
        }
        out.num(name + ".calls", calls);
        out.num(name + ".self_share", loop > 0 ? ns / loop : 0.0);
    }
    const double attributed =
        clock != nullptr ? static_cast<double>(clock->attributedNs()) : 0;
    out.num("trace.loop_s", loop / 1e9);
    out.num("trace.unattributed_share",
            loop > 0 ? std::max(0.0, loop - attributed) / loop : 0.0);
}

} // namespace perfbench
