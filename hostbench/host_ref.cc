#include "host_ref.hh"

#include <utility>

#include "span_trace.hh"

namespace hostbench
{

namespace
{

constexpr std::uint32_t kSmallEntries = 1u << 12; // 32 KiB

std::uint64_t
splitmix(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Sattolo's shuffle: one cycle through every entry, so a walk never
 *  settles into a short, cached loop. */
std::vector<std::uint32_t>
randomCycle(std::uint32_t entries, std::uint64_t &s)
{
    std::vector<std::uint32_t> next(entries);
    for (std::uint32_t i = 0; i < entries; ++i)
        next[i] = i;
    for (std::uint32_t i = entries - 1; i > 0; --i)
        std::swap(next[i], next[splitmix(s) % i]);
    return next;
}

} // namespace

HostReference::HostReference() : small_(kSmallEntries)
{
    std::uint64_t s = 0x5eedull;
    near_.next = randomCycle(1u << 16, s); // 256 KiB
    near_.steps = 1u << 18;
    far_.next = randomCycle(1u << 20, s); // 4 MiB
    far_.steps = 1u << 17;
    for (std::uint64_t &x : small_)
        x = splitmix(s);
}

std::uint64_t
HostReference::bytes() const
{
    return (near_.next.size() + far_.next.size()) * sizeof(std::uint32_t) +
           small_.size() * sizeof(std::uint64_t);
}

void
HostReference::walk(Walk &w)
{
    std::uint32_t p = w.pos;
    std::uint64_t h = sink_;
    for (std::uint64_t i = 0; i < w.steps; ++i) {
        p = w.next[p];
        h = (h ^ p) * 0x9e3779b97f4a7c15ull;
        std::uint64_t &slot = small_[h >> 52];
        if (slot & 1)
            slot += h >> 7;
        else
            slot ^= h << 3;
        for (unsigned k = 0; k < 8; ++k) {
            h ^= h >> 29;
            if (h & (1ull << k))
                h += small_[(h >> 40) & (kSmallEntries - 1)];
            else
                h *= 0xbf58476d1ce4e5b9ull;
        }
    }
    w.pos = p;
    sink_ = h;
}

double
HostReference::runNs()
{
    const double t0 = threadCpuNs();
    walk(near_);
    walk(far_);
    return threadCpuNs() - t0;
}

} // namespace hostbench
