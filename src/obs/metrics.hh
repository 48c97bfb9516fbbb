/**
 * @file
 * Live-telemetry metrics registry: counters, gauges and histograms.
 *
 * Only the telemetry layer writes here: worker heartbeats (once every
 * heartbeatEvery accesses) and the sink's job lifecycle, never the
 * simulator's per-access path. At that rate one relaxed atomic per
 * series is enough; a publisher thread rendering the Prometheus
 * exposition reads it without locking out the workers.
 *
 * Registration (MetricsRegistry::counter / gauge / histogram) is
 * mutex-protected and idempotent: asking for an existing (name, labels)
 * series returns the same handle, so components can "re-register" their
 * series without coordination. Handles stay valid for the registry's
 * lifetime (series storage never moves).
 *
 * The registry is runtime-switchable (setEnabled): while disabled,
 * every mutation is dropped.
 */

#ifndef ZERODEV_OBS_METRICS_HH
#define ZERODEV_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace zerodev::obs
{

class MetricsRegistry;

/** Base of every registered series: identity plus the enabled gate. */
class Metric
{
  public:
    enum class Kind : std::uint8_t
    {
        Counter,
        Gauge,
        Histogram,
    };

    virtual ~Metric() = default;

    const std::string &name() const { return name_; }
    const std::string &labels() const { return labels_; }
    const std::string &help() const { return help_; }
    Kind kind() const { return kind_; }

  protected:
    Metric(Kind kind, std::string name, std::string labels,
           std::string help, const std::atomic<bool> *enabled)
        : kind_(kind), name_(std::move(name)), labels_(std::move(labels)),
          help_(std::move(help)), enabled_(enabled)
    {
    }

    bool
    live() const
    {
        return enabled_->load(std::memory_order_relaxed);
    }

  private:
    Kind kind_;
    std::string name_;
    std::string labels_;
    std::string help_;
    const std::atomic<bool> *enabled_;
};

/** Monotonic counter; add() is one relaxed fetch_add. */
class Counter : public Metric
{
  public:
    void
    add(std::uint64_t delta)
    {
        if (live())
            value_.fetch_add(delta, std::memory_order_relaxed);
    }

    void inc() { add(1); }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    Counter(std::string name, std::string labels, std::string help,
            const std::atomic<bool> *enabled)
        : Metric(Kind::Counter, std::move(name), std::move(labels),
                 std::move(help), enabled)
    {
    }

    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (stored as IEEE-754 bits). */
class Gauge : public Metric
{
  public:
    void
    set(double v)
    {
        if (live()) {
            std::uint64_t bits;
            static_assert(sizeof bits == sizeof v);
            __builtin_memcpy(&bits, &v, sizeof bits);
            bits_.store(bits, std::memory_order_relaxed);
        }
    }

    double
    value() const
    {
        const std::uint64_t bits = bits_.load(std::memory_order_relaxed);
        double v;
        __builtin_memcpy(&v, &bits, sizeof v);
        return v;
    }

  private:
    friend class MetricsRegistry;
    Gauge(std::string name, std::string labels, std::string help,
          const std::atomic<bool> *enabled)
        : Metric(Kind::Gauge, std::move(name), std::move(labels),
                 std::move(help), enabled)
    {
    }

    std::atomic<std::uint64_t> bits_{0};
};

/** Fixed-bound histogram (Prometheus classic buckets). observe() is
 *  lock-free: one bucket increment plus a CAS-add into the sum. */
class HistogramMetric : public Metric
{
  public:
    void observe(double v);

    struct Snapshot
    {
        std::vector<double> bounds;        //!< upper bounds, ascending
        std::vector<std::uint64_t> counts; //!< per bucket (non-cumulative,
                                           //!< one extra for +Inf)
        double sum = 0.0;
        std::uint64_t count = 0;
    };

    Snapshot snapshot() const;

    const std::vector<double> &bounds() const { return bounds_; }

  private:
    friend class MetricsRegistry;
    HistogramMetric(std::string name, std::string labels, std::string help,
                    std::vector<double> bounds,
                    const std::atomic<bool> *enabled);

    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_; //!< bounds+1
    std::atomic<std::uint64_t> sumBits_{0};           //!< double bits
};

/**
 * The central registry. One process-wide instance (global()) backs the
 * telemetry sink; tests construct private registries freely.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry the telemetry sink scrapes. */
    static MetricsRegistry &global();

    /** Runtime master switch; mutations are dropped while disabled. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /**
     * Register (or look up) a series. @p labels is a pre-rendered
     * Prometheus label body such as `job="smoke_run0000"` (empty for an
     * unlabelled series); series with the same name share one HELP/TYPE
     * block in the exposition. Asking for an existing series with a
     * different kind is fatal.
     */
    Counter *counter(const std::string &name, const std::string &help,
                     const std::string &labels = "");
    Gauge *gauge(const std::string &name, const std::string &help,
                 const std::string &labels = "");
    HistogramMetric *histogram(const std::string &name,
                               const std::string &help,
                               std::vector<double> bounds,
                               const std::string &labels = "");

    /** Series count (tests). */
    std::size_t size() const;

    /**
     * Render the Prometheus text exposition (version 0.0.4): one
     * HELP/TYPE block per metric name in registration order, then one
     * sample line per series (histograms expand to _bucket/_sum/_count).
     */
    std::string prometheusText() const;

  private:
    Metric *find(const std::string &name, const std::string &labels) const;

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Metric>> series_; //!< registration order
    std::atomic<bool> enabled_{true};
};

/**
 * Validate a Prometheus text exposition: HELP/TYPE comment syntax,
 * legal metric and label names, parseable sample values, TYPE blocks
 * declared at most once and before their samples, and no duplicate
 * (name, labels) series. On failure stores a reason in @p err.
 */
bool checkPrometheusText(const std::string &text,
                         std::string *err = nullptr);

} // namespace zerodev::obs

#endif // ZERODEV_OBS_METRICS_HH
