/**
 * @file
 * A fixed reference load that is not the simulator, timed next to every
 * unit of simulator work so host time can be read at a reference host
 * speed. Other tenants of a shared host slow the simulator down in
 * episodes of seconds; the reference load, made of what the simulator's
 * host time is made of, slows down with it. It walks two random cycles
 * with branchy integer work at every step: one in a table that fits a
 * core's private L2, one in a table that needs the shared L3. Of walks
 * over 256 KiB to 64 MiB, these two together tracked the simulator's
 * slowdowns best on a shared 4-vCPU Xeon host (correlation 0.82 over
 * 40 repetitions of mt8-migratory-zdev).
 */

#ifndef HOSTBENCH_HOST_REF_HH
#define HOSTBENCH_HOST_REF_HH

#include <cstdint>
#include <vector>

namespace hostbench
{

class HostReference
{
  public:
    HostReference();

    /** Run the fixed reference work once; returns its thread CPU ns. */
    double runNs();

    /** Bytes of the reference tables (resident once built). */
    std::uint64_t bytes() const;

  private:
    /** A random cycle through a table, walked a fixed number of steps. */
    struct Walk
    {
        std::vector<std::uint32_t> next;
        std::uint64_t steps = 0;
        std::uint32_t pos = 0;
    };

    void walk(Walk &w);

    Walk near_, far_;
    std::vector<std::uint64_t> small_;
    std::uint64_t sink_ = 0;
};

} // namespace hostbench

#endif // HOSTBENCH_HOST_REF_HH
