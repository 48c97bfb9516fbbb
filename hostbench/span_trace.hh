/**
 * @file
 * In-memory tracing for the traced benchmark pass: whole-phase spans
 * (name, start, end, parent) and per-name duration histograms for calls
 * too frequent to give a span each. Nothing is written until the pass
 * ends; the caller renders everything once, at exit.
 */

#ifndef HOSTBENCH_SPAN_TRACE_HH
#define HOSTBENCH_SPAN_TRACE_HH

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace hostbench
{

using Clock = std::chrono::steady_clock;

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** CPU time the calling thread has run, in ns. Unlike a wall clock it
 *  leaves out time the thread was descheduled, so other load on the
 *  host moves it less. */
inline double
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
}

/**
 * Log-linear histogram of durations in nanoseconds: exact below 64 ns,
 * then 32 sub-buckets per power of two (about 3% resolution). Sums are
 * kept exactly, so means never depend on the bucketing.
 */
class DurationHist
{
  public:
    void
    add(double ns)
    {
        const auto v = static_cast<std::uint64_t>(std::max(ns, 0.0));
        const std::size_t b = bucketOf(v);
        if (b >= counts_.size())
            counts_.resize(b + 1, 0);
        ++counts_[b];
        ++count_;
        sum_ += ns;
    }

    void
    merge(const DurationHist &o)
    {
        if (o.counts_.size() > counts_.size())
            counts_.resize(o.counts_.size(), 0);
        for (std::size_t b = 0; b < o.counts_.size(); ++b)
            counts_[b] += o.counts_[b];
        count_ += o.count_;
        sum_ += o.sum_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Midpoint of the bucket holding the @p q quantile (0 if empty). */
    double
    percentile(double q) const
    {
        if (count_ == 0)
            return 0.0;
        const auto rank = static_cast<std::uint64_t>(
            std::max(1.0, q * static_cast<double>(count_)));
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < counts_.size(); ++b) {
            seen += counts_[b];
            if (seen >= rank)
                return midpoint(b);
        }
        return midpoint(counts_.size() - 1);
    }

  private:
    static constexpr std::uint64_t kExact = 64;
    static constexpr unsigned kSubBits = 5;

    static std::size_t
    bucketOf(std::uint64_t v)
    {
        if (v < kExact)
            return v;
        const unsigned e = 63 - std::countl_zero(v); // >= 6
        const std::uint64_t sub = (v >> (e - kSubBits)) & 31;
        return kExact + (e - 6) * 32 + sub;
    }

    static double
    midpoint(std::size_t b)
    {
        if (b < kExact)
            return static_cast<double>(b);
        const unsigned e = static_cast<unsigned>((b - kExact) / 32) + 6;
        const std::uint64_t sub = (b - kExact) % 32;
        const double width = static_cast<double>(1ull << (e - kSubBits));
        return static_cast<double>((32 + sub) << (e - kSubBits)) +
               width / 2.0;
    }

    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/** One whole-phase span; parent is an index into the span list or -1. */
struct Span
{
    std::string name;
    double startNs = 0.0; //!< since the recorder was created
    double endNs = 0.0;
    int parent = -1;
};

/** Span list plus per-name call histograms, kept in memory. */
class SpanRecorder
{
  public:
    SpanRecorder() : origin_(Clock::now()) {}

    int
    open(const std::string &name)
    {
        Span s;
        s.name = name;
        s.startNs = nsBetween(origin_, Clock::now());
        s.parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    /** Close span @p id; returns its duration in nanoseconds. */
    double
    close(int id)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.endNs = nsBetween(origin_, Clock::now());
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
        return s.endNs - s.startNs;
    }

    DurationHist &hist(const std::string &name) { return hists_[name]; }

    const std::vector<Span> &spans() const { return spans_; }
    const std::map<std::string, DurationHist> &hists() const
    {
        return hists_;
    }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, DurationHist> hists_;
};

/** RAII span; seconds() closes it early and returns its duration. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const std::string &name)
        : rec_(rec), id_(rec.open(name))
    {
    }
    ~ScopedSpan()
    {
        if (!closed_)
            rec_.close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    double
    seconds()
    {
        closed_ = true;
        return rec_.close(id_) / 1e9;
    }

  private:
    SpanRecorder &rec_;
    int id_;
    bool closed_ = false;
};

} // namespace hostbench

#endif // HOSTBENCH_SPAN_TRACE_HH
