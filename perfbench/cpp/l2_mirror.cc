#include "l2_mirror.h"

#include <algorithm>

#include "common/log.h"

namespace perfbench {

using namespace vantage;

namespace {
/// Digest victim-part field when no valid line was evicted (as in
/// Cache::access).
constexpr std::uint64_t kNoVictim = 0xffff;
} // namespace

MirrorL2::MirrorL2(SharedL2 &l2, LayerClock &clock, L2EventLog *log)
    : l2_(l2), mono_(l2.monoCache()), banked_(l2.banked()),
      clock_(clock), log_(log)
{
    const std::uint32_t banks = banked_ ? banked_->numBanks() : 1;
    digests_.resize(banks);
    lastDemotions_.resize(banks, 0);
    rebase();
}

void
MirrorL2::rebase()
{
    for (std::uint32_t b = 0; b < lastDemotions_.size(); ++b) {
        const Cache &c = banked_ ? banked_->bank(b) : *mono_;
        lastDemotions_[b] = c.scheme().demotionCount();
    }
}

void
MirrorL2::fold(std::uint32_t bank, std::uint64_t outcome,
               std::uint64_t victimPart)
{
    const Cache &c = banked_ ? banked_->bank(bank) : *mono_;
    const std::uint64_t dems = c.scheme().demotionCount();
    const std::uint64_t delta = dems - lastDemotions_[bank];
    lastDemotions_[bank] = dems;
    clock_.counts.demotions += delta;
    digests_[bank].fold(outcome | (victimPart << 16) | (delta << 32));
}

AccessResult
MirrorL2::access(Addr addr, PartId part, AccessType type)
{
    if (log_ != nullptr) {
        log_->events.push_back({L2Event::Access, type, part, addr, 0});
        ++log_->accesses;
    }
    const std::uint32_t bank = banked_ ? banked_->bankOf(addr) : 0;
    Cache &cache = banked_ ? banked_->bank(bank) : *mono_;
    CacheArray &array = cache.array();
    PartitionScheme &scheme = cache.scheme();
    ++clock_.counts.l2Accesses;

    const LineId slot = array.lookup(addr);
    clock_.mark(kLookup);
    if (slot != kInvalidLine) {
        if (type == AccessType::Store) {
            array.cold(slot).dirty = true;
        }
        scheme.onHit(array, slot, part);
        fold(bank, 0, kNoVictim);
        ++clock_.counts.l2Hits;
        clock_.mark(kHitUpdate);
        return AccessResult::Hit;
    }

    array.candidates(addr, cands_);
    vantage_assert(!cands_.empty(), "array produced no candidates");
    ++clock_.counts.walks;
    clock_.counts.walkCandidates += cands_.size();
    clock_.mark(kWalk);
    const VictimChoice choice =
        scheme.selectVictim(array, part, addr, cands_);
    clock_.mark(kSelectVictim);
    if (choice.bypass) {
        fold(bank, 2, kNoVictim);
        clock_.mark(kReplace);
        return AccessResult::Miss;
    }

    const LineId victimSlot = cands_[choice.candIdx].slot;
    const Line &victim = array.line(victimSlot);
    const std::uint64_t victimPart =
        victim.valid() ? (victim.part & 0xffff) : kNoVictim;
    if (victim.valid()) {
        if (array.cold(victimSlot).dirty) {
            ++writebacks_;
        }
        scheme.onEvict(array, victimSlot);
    }
    const LineId root = array.replace(addr, cands_, choice.candIdx);
    array.line(root).part = part;
    array.cold(root).dirty = type == AccessType::Store;
    scheme.onInsert(array, root, part);
    fold(bank, 1, victimPart);
    clock_.mark(kReplace);
    return AccessResult::Miss;
}

void
MirrorL2::setAllocations(const std::vector<std::uint32_t> &units,
                         bool epoch)
{
    if (log_ != nullptr) {
        log_->events.push_back(
            {epoch ? L2Event::Epoch : L2Event::Alloc, AccessType::Load,
             0, 0, static_cast<std::uint32_t>(log_->allocs.size())});
        log_->allocs.push_back(units);
    }
    l2_.setAllocations(units);
}

void
MirrorL2::createPartition(PartId part)
{
    if (log_ != nullptr) {
        log_->events.push_back(
            {L2Event::Create, AccessType::Load, part, 0, 0});
    }
    l2_.createPartition(part);
    for (auto &d : digests_) {
        d.fold(3 | (static_cast<std::uint64_t>(part) << 16));
    }
}

void
MirrorL2::destroyPartition(PartId part, bool fold)
{
    if (!fold) {
        l2_.destroyPartition(part);
        if (log_ != nullptr) {
            log_->preRetired = std::max(log_->preRetired, part + 1);
        }
        return;
    }
    if (log_ != nullptr) {
        log_->events.push_back(
            {L2Event::Destroy, AccessType::Load, part, 0, 0});
    }
    l2_.destroyPartition(part);
    for (auto &d : digests_) {
        d.fold(4 | (static_cast<std::uint64_t>(part) << 16));
    }
}

std::uint64_t
MirrorL2::digest() const
{
    if (banked_ == nullptr) {
        return digests_[0].value();
    }
    // BankedCache::finalizeDigest: bank-major fold into a fresh
    // external digest.
    AccessDigest ext;
    for (const AccessDigest &d : digests_) {
        ext.fold(d.value());
    }
    return ext.value();
}

ReplayResult
replayL2Log(const L2EventLog &log,
            const std::function<std::unique_ptr<SharedL2>()> &build,
            std::unique_ptr<Ucp> ucp)
{
    std::unique_ptr<SharedL2> l2 = build();
    for (std::uint32_t s = 0; s < log.preRetired; ++s) {
        l2->destroyPartition(s);
    }
    AccessDigest digest;
    l2->attachDigest(&digest);
    const std::uint32_t quantum = l2->allocationQuantum();

    const std::uint64_t window =
        std::max(kMinReplayWindow, log.accesses / 4 / 4096 * 4096);

    // Every 4096 accesses the chunk just replayed is weighted by the
    // probe run right after it; a window's probe rate is the
    // time-weighted mean over its chunks.
    ReplayResult r;
    HostProbe probe;
    std::uint64_t probeNs = 0; // Excluded from every timing.
    double weighted = 0.0;
    std::uint64_t windowAccesses = 0;
    const std::uint64_t t0 = nowNs();
    std::uint64_t windowStart = t0;
    std::uint64_t chunkStart = t0;
    for (const L2Event &ev : log.events) {
        switch (ev.kind) {
          case L2Event::Access:
            if (ucp) {
                ucp->observe(ev.part, ev.addr);
            }
            l2->access(ev.addr, ev.part, ev.type);
            ++windowAccesses;
            if (windowAccesses % 4096 == 0) {
                const std::uint64_t t = nowNs() - probeNs;
                const std::uint64_t ns = probe.run(kProbeSteps);
                probeNs += ns;
                weighted += static_cast<double>(t - chunkStart) *
                            probeRate(kProbeSteps, ns);
                chunkStart = t;
            }
            if (windowAccesses == window) {
                const double secs =
                    static_cast<double>(chunkStart - windowStart) / 1e9;
                r.windowRates.push_back(static_cast<double>(window) / secs);
                r.probeRates.push_back(weighted / (secs * 1e9));
                windowStart = chunkStart;
                windowAccesses = 0;
                weighted = 0.0;
            }
            break;
          case L2Event::Epoch:
            if (ucp) {
                const std::vector<std::uint32_t> units =
                    ucp->computeAllocations(quantum, 1);
                r.allocMismatch |= units != log.allocs[ev.alloc];
                l2->setAllocations(units);
                ucp->nextInterval();
                break;
            }
            l2->setAllocations(log.allocs[ev.alloc]);
            break;
          case L2Event::Alloc:
            l2->setAllocations(log.allocs[ev.alloc]);
            break;
          case L2Event::Create:
            l2->createPartition(ev.part);
            break;
          case L2Event::Destroy:
            l2->destroyPartition(ev.part);
            break;
        }
    }
    r.seconds = static_cast<double>(nowNs() - t0 - probeNs) / 1e9;
    l2->finalizeDigest();
    r.digest = digest.value();
    r.accesses = log.accesses;
    return r;
}

} // namespace perfbench
