/**
 * @file
 * The runner's issue order as a grouped minimum over per-core ready
 * times: the core with the lowest ready time issues next, and ties go
 * to the lowest core id.
 */

#ifndef ZERODEV_SIM_ISSUE_SCHEDULER_HH
#define ZERODEV_SIM_ISSUE_SCHEDULER_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace zerodev
{

/**
 * Picks the next core to issue. Each core's key packs its ready time
 * above its core id, (ready << idBits) | core, so the smallest key is
 * the lowest ready time with ties to the lowest core: exactly what a
 * linear scan with strict < in ascending core order picks. A finished
 * core's key is kFinished. The keys sit in groups of kGroup (one host
 * cache line), and each group caches its minimum key. next() takes the
 * minimum over the group minima; set() recomputes only the changed
 * core's group. At 128 cores that is 16 + 8 branch-free min steps per
 * access instead of a 128-core scan with a data-dependent branch per
 * core; at 8 cores or fewer it is the one group. A binary winner tree
 * was measured slower: its extra levels per issue cost more than they
 * save at 8 cores.
 */
class IssueScheduler
{
  public:
    static constexpr std::uint32_t kGroup = 8;

    /** Ready time of a core that issues no more. */
    static constexpr Cycle kFinished = ~Cycle{0};

    /** @p cores cores, all finished until set() gives them a time. */
    explicit IssueScheduler(std::uint32_t cores)
        : cores_(cores),
          idBits_(static_cast<std::uint32_t>(std::bit_width(cores - 1))),
          keys_((cores + kGroup - 1) / kGroup * kGroup, kFinished),
          groupMin_(keys_.size() / kGroup, kFinished)
    {
    }

    /** Core to issue next, or cores() when every core has finished. */
    std::uint32_t
    next() const
    {
        Cycle m = kFinished;
        for (const Cycle k : groupMin_)
            m = std::min(m, k);
        if (m == kFinished)
            return cores_;
        return static_cast<std::uint32_t>(m & ((Cycle{1} << idBits_) - 1));
    }

    /** Core @p c can issue at @p ready (kFinished: never again). */
    void
    set(std::uint32_t c, Cycle ready)
    {
        if (ready == kFinished) {
            keys_[c] = kFinished;
        } else {
            // The packed key must stay below kFinished: ready < 2^57
            // cycles at 128 cores, far beyond any simulated run.
            if (ready >= (kFinished >> idBits_))
                panic("ready time %llu overflows the issue scheduler",
                      static_cast<unsigned long long>(ready));
            keys_[c] = (ready << idBits_) | c;
        }
        const std::uint32_t g = c / kGroup;
        const Cycle *k = &keys_[g * kGroup];
        static_assert(kGroup == 8, "the min tree below spans 8 keys");
        groupMin_[g] = std::min(
            std::min(std::min(k[0], k[1]), std::min(k[2], k[3])),
            std::min(std::min(k[4], k[5]), std::min(k[6], k[7])));
    }

  private:
    std::uint32_t cores_;
    std::uint32_t idBits_;         //!< low key bits holding the core id
    std::vector<Cycle> keys_;      //!< padded to whole groups with kFinished
    std::vector<Cycle> groupMin_;  //!< minimum key of each group
};

} // namespace zerodev

#endif // ZERODEV_SIM_ISSUE_SCHEDULER_HH
