#include "workload/synthetic_stream.hh"

#include <algorithm>

#include "common/logging.hh"

namespace smtdram
{

namespace
{

/** Stable 64-bit mix used to derive per-PC "program text". */
std::uint64_t
stableHash(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Stable uniform double in [0,1) from a PC and a salt. */
double
hash01(std::uint64_t pc, std::uint64_t salt)
{
    return static_cast<double>(stableHash(pc ^ salt) >> 11) * 0x1.0p-53;
}

} // namespace

SyntheticStream::SyntheticStream(const AppProfile &profile,
                                 std::uint64_t seed)
    : profile_(profile),
      rng_(seed ^ stableHash(std::hash<std::string>{}(profile.name))),
      textSalt_(stableHash(std::hash<std::string>{}(profile.name))),
      pc_(kCodeBase),
      // One slot past the code: the return from a call in its last
      // slot lands there.
      loopCounters_(profile.codeBytes / 4 + 1, 0)
{
    fatal_if(profile_.coldBytes < 64, "cold set smaller than a line");
    fatal_if(profile_.hotBytes < 64, "hot set smaller than a line");
    fatal_if(profile_.loadFrac + profile_.storeFrac +
                     profile_.branchFrac >
                 1.0,
             "%s: instruction mix fractions exceed 1",
             profile_.name.c_str());
    if (profile_.coldPattern == AccessPattern::RowHammer) {
        fatal_if(profile_.hammerSides == 0,
                 "%s: rowhammer pattern needs at least one aggressor",
                 profile_.name.c_str());
        fatal_if(profile_.hammerRowStrideBytes < 64 ||
                     profile_.hammerColumnSpanBytes < 64,
                 "%s: hammer stride/span below one line",
                 profile_.name.c_str());
        const std::uint64_t span = 2ULL * profile_.hammerSides *
                                   profile_.hammerRowStrideBytes;
        fatal_if(profile_.coldBytes < span,
                 "%s: cold set smaller than one hammer group "
                 "(%llu < %llu bytes)",
                 profile_.name.c_str(),
                 (unsigned long long)profile_.coldBytes,
                 (unsigned long long)span);
    }
    callStack_.reserve(64);
    phaseOffset_ = rng_.below(std::max(1u, profile_.phasePeriod));
}

std::uint8_t
SyntheticStream::depDistance()
{
    // Chain starts keep the dependence graph a forest (see
    // AppProfile::depFreeFrac).
    if (rng_.chance(profile_.depFreeFrac))
        return 0;
    return static_cast<std::uint8_t>(
        rng_.smallDistance(profile_.depMean, 200));
}

Addr
SyntheticStream::coldAddress()
{
    const std::uint64_t lines = profile_.coldBytes / 64;

    // A short sequential run after each jump models the residual
    // spatial locality real pointer/random codes have (records span
    // more than one line); it is what row-buffer hits under light
    // load come from.
    if (runRemaining_ > 0) {
        --runRemaining_;
        runCursor_ = (runCursor_ + 64) % profile_.coldBytes;
        return kColdBase + runCursor_;
    }

    switch (profile_.coldPattern) {
      case AccessPattern::Streaming: {
        // Round-robin over streamCount lockstep array sweeps.
        const std::uint64_t region =
            profile_.coldBytes / profile_.streamCount;
        const Addr a =
            streamIdx_ * region + (streamCursor_ % region);
        streamIdx_ = (streamIdx_ + 1) % profile_.streamCount;
        if (streamIdx_ == 0) {
            streamCursor_ = (streamCursor_ +
                             profile_.streamStepBytes) % region;
        }
        return kColdBase + a;
      }
      case AccessPattern::Strided: {
        const Addr a = strideCursor_;
        strideCursor_ =
            (strideCursor_ + profile_.strideBytes) % profile_.coldBytes;
        return kColdBase + a;
      }
      case AccessPattern::Random:
      case AccessPattern::PointerChase: {
        runCursor_ = rng_.below(lines) * 64;
        if (profile_.coldRunLines > 1) {
            runRemaining_ = static_cast<std::uint32_t>(
                rng_.below(2 * profile_.coldRunLines - 1));
        }
        return kColdBase + runCursor_ + rng_.below(8) * 8;
      }
      case AccessPattern::RowHammer: {
        const std::uint64_t stride = profile_.hammerRowStrideBytes;
        const std::uint64_t span =
            2ULL * profile_.hammerSides * stride;
        const std::uint32_t groups =
            std::max<std::uint32_t>(
                1, static_cast<std::uint32_t>(std::min<std::uint64_t>(
                       profile_.hammerGroups,
                       profile_.coldBytes / span)));
        const std::uint32_t col_lines = std::max<std::uint32_t>(
            1, profile_.hammerColumnSpanBytes / 64);

        ++hVisit_;
        if (profile_.hammerVictimPeriod > 0 &&
            hVisit_ % profile_.hammerVictimPeriod == 0) {
            // Victim-row read: the odd row offsets between/around the
            // aggressors.  Rotates victims and columns so flips on
            // every victim surface and the lines are not resident.
            const std::uint64_t vrow = 2ULL * hVictimIdx_ + 1;
            const Addr a = static_cast<Addr>(hGroup_) * span +
                           vrow * stride + hVictimCol_ * 64ULL;
            if (++hVictimIdx_ >= profile_.hammerSides) {
                hVictimIdx_ = 0;
                if (++hVictimCol_ >= col_lines)
                    hVictimCol_ = 0;
            }
            return kColdBase + a;
        }

        // Aggressor activation.  Side is the innermost cursor, so
        // consecutive accesses alternate aggressor rows of the same
        // bank — a guaranteed row conflict, i.e. one ACT per access.
        const Addr a = static_cast<Addr>(hGroup_) * span +
                       2ULL * hSide_ * stride + hColumn_ * 64ULL;
        if (++hSide_ >= profile_.hammerSides) {
            hSide_ = 0;
            if (++hColumn_ >= col_lines) {
                hColumn_ = 0;
                hGroup_ = (hGroup_ + 1) % groups;
            }
        }
        return kColdBase + a;
      }
      case AccessPattern::Mixed:
        if (rng_.chance(0.5)) {
            const Addr a = streamCursor_;
            streamCursor_ = (streamCursor_ + 64) % profile_.coldBytes;
            return kColdBase + a;
        }
        runCursor_ = rng_.below(lines) * 64;
        if (profile_.coldRunLines > 1) {
            runRemaining_ = static_cast<std::uint32_t>(
                rng_.below(2 * profile_.coldRunLines - 1));
        }
        return kColdBase + runCursor_ + rng_.below(8) * 8;
    }
    panic("unknown access pattern");
}

void
SyntheticStream::makeBranch(MicroOp &op)
{
    op.cls = OpClass::Branch;

    // Fixed return sites: pop the matching call when one is pending.
    if (hash01(op.pc, textSalt_ ^ 0x1111) < 4.0 * profile_.callFrac &&
        !callStack_.empty()) {
        op.isReturn = true;
        op.taken = true;
        op.nextPc = callStack_.back();
        callStack_.pop_back();
        return;
    }

    // Fixed call sites with stable targets.
    if (hash01(op.pc, textSalt_ ^ 0x2222) < 4.0 * profile_.callFrac) {
        op.isCall = true;
        op.taken = true;
        const std::uint64_t slots = profile_.codeBytes / 4;
        op.nextPc =
            kCodeBase + (stableHash(op.pc ^ textSalt_) % slots) * 4;
        if (callStack_.size() >= 64)
            callStack_.erase(callStack_.begin());
        callStack_.push_back(op.pc + 4);
        return;
    }

    // Conditional branch.  A fixed subset of branch sites is "hard"
    // (data-dependent, random outcome); the rest are loop back-edges
    // taken until a per-site trip count expires — learnable by the
    // local predictor and the BTB.
    const bool hard =
        hash01(op.pc, textSalt_ ^ 0x3333) < 2.0 * profile_.branchNoise;
    if (hard) {
        // Mostly fall through: a 50/50 hard branch would keep
        // re-looping onto itself and dominate the visit mix.
        op.taken = rng_.chance(0.35);
    } else {
        const std::uint32_t slot =
            static_cast<std::uint32_t>((op.pc - kCodeBase) >> 2);
        // A call at that one-past-the-end pc returns further out.
        if (slot >= loopCounters_.size())
            loopCounters_.resize(slot + 1, 0);
        const std::uint32_t trip = 2 + static_cast<std::uint32_t>(
            stableHash(op.pc ^ textSalt_ ^ 0x4444) %
            (2 * profile_.loopLength));
        std::uint16_t &ctr = loopCounters_[slot];
        ++ctr;
        if (ctr >= trip) {
            ctr = 0;
            op.taken = false;
        } else {
            op.taken = true;
        }
    }

    if (op.taken) {
        // Per-PC stable target so the BTB can learn it.  Targets are
        // short backward jumps (loop back-edges), which keeps the hot
        // code window — and therefore the live BTB/predictor working
        // set — small, as in real programs.
        const std::uint64_t slots = profile_.codeBytes / 4;
        const std::uint64_t back =
            8 + stableHash(op.pc ^ textSalt_ ^ 0x5555) % 120;
        const std::uint64_t pc_slot = (op.pc - kCodeBase) / 4;
        op.nextPc = kCodeBase + ((pc_slot + slots - back) % slots) * 4;
    } else {
        op.nextPc = op.pc + 4;
    }
}

MicroOp
SyntheticStream::next()
{
    MicroOp op;
    op.pc = pc_;

    // The instruction class is a pure function of the PC: the stream
    // behaves like a fixed program text being re-executed, which is
    // what makes branch sites and their targets learnable.
    const double u = hash01(pc_, textSalt_);
    const double p_load = profile_.loadFrac;
    const double p_store = p_load + profile_.storeFrac;
    const double p_branch = p_store + profile_.branchFrac;

    // Miss clustering: the cold set is only touched during the
    // memory phase of each period; intensity compensates so the
    // long-run cold fraction matches the profile.
    const bool in_mem_phase =
        profile_.memPhaseFrac >= 1.0 ||
        ((emitted_ + phaseOffset_) % profile_.phasePeriod) <
            static_cast<std::uint64_t>(profile_.memPhaseFrac *
                                       profile_.phasePeriod);
    const double cold_prob =
        in_mem_phase
            ? std::min(1.0, profile_.coldFrac / profile_.memPhaseFrac)
            : 0.0;

    if (u < p_store) {
        const bool is_load = u < p_load;
        op.cls = is_load ? OpClass::Load : OpClass::Store;
        if (rng_.chance(cold_prob)) {
            op.effAddr = coldAddress();
            if (is_load &&
                profile_.coldPattern == AccessPattern::PointerChase) {
                // Depend on this chain's previous load: with C
                // round-robin chains the dependency reaches C cold
                // loads back, sustaining C-deep memory parallelism.
                if (chainHistory_.size() >= profile_.chaseChains) {
                    const std::uint64_t producer =
                        chainHistory_[chainCursor_];
                    const std::uint64_t dist = emitted_ - producer;
                    op.dep1 = static_cast<std::uint8_t>(
                        dist > 200 ? 200 : (dist == 0 ? 1 : dist));
                    chainHistory_[chainCursor_] = emitted_;
                    chainCursor_ = (chainCursor_ + 1) %
                                   profile_.chaseChains;
                } else {
                    chainHistory_.push_back(emitted_);
                }
            }
        } else {
            // Skewed (80/20-style) reuse within the hot set: most
            // references go to a small pinned core, so LRU keeps it
            // resident even when a co-runner churns the shared L1 —
            // uniform reuse would make every line equally stale and
            // overstate SMT cache interference.
            const std::uint64_t pinned =
                std::max<std::uint64_t>(profile_.hotBytes / 8, 64);
            if (rng_.chance(0.8)) {
                op.effAddr = kHotBase + rng_.below(pinned / 8) * 8;
            } else {
                op.effAddr = kHotBase +
                             rng_.below(profile_.hotBytes / 8) * 8;
            }
            op.dep1 = depDistance();
        }
    } else if (u < p_branch) {
        makeBranch(op);
        op.dep1 = depDistance();
    } else {
        // Compute op; long-latency and FP membership are also fixed
        // properties of the site.
        const bool fp =
            hash01(pc_, textSalt_ ^ 0x6666) < profile_.fpOpFrac;
        const bool mul =
            hash01(pc_, textSalt_ ^ 0x7777) < profile_.mulFrac;
        if (fp)
            op.cls = mul ? OpClass::FpMult : OpClass::FpAlu;
        else
            op.cls = mul ? OpClass::IntMult : OpClass::IntAlu;
        op.dep1 = depDistance();
        if (op.dep1 != 0 && rng_.chance(profile_.dep2Frac))
            op.dep2 = depDistance();
    }

    // Advance the PC within the code region.
    if (op.cls == OpClass::Branch && op.taken) {
        pc_ = op.nextPc;
    } else {
        pc_ += 4;
        if (pc_ >= kCodeBase + profile_.codeBytes)
            pc_ = kCodeBase;
        if (op.cls == OpClass::Branch)
            op.nextPc = pc_;
    }

    ++emitted_;
    return op;
}

} // namespace smtdram
