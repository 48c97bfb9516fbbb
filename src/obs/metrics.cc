#include "obs/metrics.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace zerodev::obs
{

namespace
{

/** fetch_add for a double stored as bits (CAS loop). */
void
atomicAddDouble(std::atomic<std::uint64_t> &bits, double delta)
{
    std::uint64_t old = bits.load(std::memory_order_relaxed);
    for (;;) {
        double cur;
        __builtin_memcpy(&cur, &old, sizeof cur);
        const double next = cur + delta;
        std::uint64_t nextBits;
        __builtin_memcpy(&nextBits, &next, sizeof nextBits);
        if (bits.compare_exchange_weak(old, nextBits,
                                       std::memory_order_relaxed))
            return;
    }
}

double
doubleFromBits(std::uint64_t bits)
{
    double v;
    __builtin_memcpy(&v, &bits, sizeof v);
    return v;
}

/** Render a double the way Prometheus expects: shortest %g spelling
 *  that round-trips exactly (so a 0.1 bucket bound reads `le="0.1"`,
 *  not 17 digits of noise). Integral values keep an integer spelling
 *  for readability. */
std::string
promNumber(double v)
{
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    if (std::isnan(v))
        return "NaN";
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[64];
    for (int prec = 1; prec < 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** `name{labels}` or bare `name`; @p extra is appended inside the
 *  braces after the series labels (used for histogram `le`). */
std::string
sampleName(const std::string &name, const std::string &labels,
           const std::string &extra = "")
{
    std::string body = labels;
    if (!extra.empty()) {
        if (!body.empty())
            body += ",";
        body += extra;
    }
    if (body.empty())
        return name;
    return name + "{" + body + "}";
}

const char *
kindName(Metric::Kind k)
{
    switch (k) {
      case Metric::Kind::Counter:
        return "counter";
      case Metric::Kind::Gauge:
        return "gauge";
      case Metric::Kind::Histogram:
        return "histogram";
    }
    return "untyped";
}

[[noreturn]] void
kindMismatch(const std::string &name)
{
    std::fprintf(stderr,
                 "zerodev: metric '%s' re-registered with a different "
                 "kind\n",
                 name.c_str());
    std::abort();
}

} // namespace

HistogramMetric::HistogramMetric(std::string name, std::string labels,
                                 std::string help,
                                 std::vector<double> bounds,
                                 const std::atomic<bool> *enabled)
    : Metric(Kind::Histogram, std::move(name), std::move(labels),
             std::move(help), enabled),
      bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
}

void
HistogramMetric::observe(double v)
{
    if (!live())
        return;
    std::size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b])
        ++b;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    atomicAddDouble(sumBits_, v);
}

HistogramMetric::Snapshot
HistogramMetric::snapshot() const
{
    Snapshot snap;
    snap.bounds = bounds_;
    for (const std::atomic<std::uint64_t> &b : buckets_) {
        snap.counts.push_back(b.load(std::memory_order_relaxed));
        snap.count += snap.counts.back();
    }
    snap.sum = doubleFromBits(sumBits_.load(std::memory_order_relaxed));
    return snap;
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry reg;
    return reg;
}

Metric *
MetricsRegistry::find(const std::string &name,
                      const std::string &labels) const
{
    for (const std::unique_ptr<Metric> &m : series_) {
        if (m->name() == name && m->labels() == labels)
            return m.get();
    }
    return nullptr;
}

Counter *
MetricsRegistry::counter(const std::string &name, const std::string &help,
                         const std::string &labels)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Metric *m = find(name, labels)) {
        if (m->kind() != Metric::Kind::Counter)
            kindMismatch(name);
        return static_cast<Counter *>(m);
    }
    series_.emplace_back(new Counter(name, labels, help, &enabled_));
    return static_cast<Counter *>(series_.back().get());
}

Gauge *
MetricsRegistry::gauge(const std::string &name, const std::string &help,
                       const std::string &labels)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Metric *m = find(name, labels)) {
        if (m->kind() != Metric::Kind::Gauge)
            kindMismatch(name);
        return static_cast<Gauge *>(m);
    }
    series_.emplace_back(new Gauge(name, labels, help, &enabled_));
    return static_cast<Gauge *>(series_.back().get());
}

HistogramMetric *
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help,
                           std::vector<double> bounds,
                           const std::string &labels)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Metric *m = find(name, labels)) {
        if (m->kind() != Metric::Kind::Histogram)
            kindMismatch(name);
        return static_cast<HistogramMetric *>(m);
    }
    series_.emplace_back(new HistogramMetric(name, labels, help,
                                             std::move(bounds),
                                             &enabled_));
    return static_cast<HistogramMetric *>(series_.back().get());
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return series_.size();
}

std::string
MetricsRegistry::prometheusText() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream out;
    // Group same-name series behind one HELP/TYPE block, preserving
    // first-registration order of the names.
    std::vector<std::string> names;
    for (const std::unique_ptr<Metric> &m : series_) {
        bool seen = false;
        for (const std::string &n : names)
            seen = seen || n == m->name();
        if (!seen)
            names.push_back(m->name());
    }
    for (const std::string &name : names) {
        bool headered = false;
        for (const std::unique_ptr<Metric> &m : series_) {
            if (m->name() != name)
                continue;
            if (!headered) {
                out << "# HELP " << name << " " << m->help() << "\n";
                out << "# TYPE " << name << " "
                    << kindName(m->kind()) << "\n";
                headered = true;
            }
            switch (m->kind()) {
              case Metric::Kind::Counter:
                out << sampleName(name, m->labels()) << " "
                    << static_cast<const Counter *>(m.get())->value()
                    << "\n";
                break;
              case Metric::Kind::Gauge:
                out << sampleName(name, m->labels()) << " "
                    << promNumber(
                           static_cast<const Gauge *>(m.get())->value())
                    << "\n";
                break;
              case Metric::Kind::Histogram: {
                const HistogramMetric::Snapshot snap =
                    static_cast<const HistogramMetric *>(m.get())->snapshot();
                std::uint64_t cum = 0;
                for (std::size_t b = 0; b < snap.counts.size(); ++b) {
                    cum += snap.counts[b];
                    const std::string le =
                        b < snap.bounds.size()
                            ? promNumber(snap.bounds[b])
                            : "+Inf";
                    out << sampleName(name + "_bucket", m->labels(),
                                      "le=\"" + le + "\"")
                        << " " << cum << "\n";
                }
                out << sampleName(name + "_sum", m->labels()) << " "
                    << promNumber(snap.sum) << "\n";
                out << sampleName(name + "_count", m->labels()) << " "
                    << snap.count << "\n";
                break;
              }
            }
        }
    }
    return out.str();
}

namespace
{

bool
validMetricName(const std::string &s)
{
    if (s.empty())
        return false;
    if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_' &&
        s[0] != ':')
        return false;
    for (const char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != ':')
            return false;
    }
    return true;
}

bool
validLabelName(const std::string &s)
{
    if (s.empty())
        return false;
    if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_')
        return false;
    for (const char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
            return false;
    }
    return true;
}

bool
parseSampleValue(const std::string &s)
{
    if (s == "+Inf" || s == "-Inf" || s == "NaN")
        return true;
    if (s.empty())
        return false;
    char *end = nullptr;
    std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0' && end != s.c_str();
}

bool
fail(std::string *err, std::size_t lineNo, const std::string &why)
{
    if (err) {
        *err = "line " + std::to_string(lineNo) + ": " + why;
    }
    return false;
}

/** Strip a histogram/summary sample suffix back to its base name. */
std::string
baseMetricName(const std::string &name)
{
    for (const char *suffix : {"_bucket", "_sum", "_count"}) {
        const std::string suf(suffix);
        if (name.size() > suf.size() &&
            name.compare(name.size() - suf.size(), suf.size(), suf) == 0)
            return name.substr(0, name.size() - suf.size());
    }
    return name;
}

} // namespace

bool
checkPrometheusText(const std::string &text, std::string *err)
{
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    // name -> declared type; tracked so TYPE precedes samples and is
    // declared at most once per name.
    std::vector<std::pair<std::string, std::string>> types;
    std::vector<std::string> seenSeries;  // duplicate detection
    std::vector<std::string> sampledBase; // base names with samples

    const auto typeOf = [&](const std::string &name) -> const std::string * {
        for (const auto &t : types) {
            if (t.first == name)
                return &t.second;
        }
        return nullptr;
    };

    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream ls(line);
            std::string hash, kw, name;
            ls >> hash >> kw >> name;
            if (kw != "HELP" && kw != "TYPE")
                continue; // arbitrary comment: legal
            if (!validMetricName(name))
                return fail(err, lineNo,
                            "bad metric name in # " + kw + ": '" +
                                name + "'");
            if (kw == "TYPE") {
                std::string type;
                ls >> type;
                if (type != "counter" && type != "gauge" &&
                    type != "histogram" && type != "summary" &&
                    type != "untyped")
                    return fail(err, lineNo,
                                "unknown TYPE '" + type + "'");
                if (typeOf(name) != nullptr)
                    return fail(err, lineNo,
                                "duplicate TYPE for '" + name + "'");
                for (const std::string &s : sampledBase) {
                    if (s == name)
                        return fail(err, lineNo,
                                    "TYPE for '" + name +
                                        "' after its samples");
                }
                types.emplace_back(name, type);
            }
            continue;
        }

        // Sample line: name[{labels}] value [timestamp]
        std::size_t i = 0;
        while (i < line.size() && line[i] != '{' && line[i] != ' ')
            ++i;
        const std::string name = line.substr(0, i);
        if (!validMetricName(name))
            return fail(err, lineNo, "bad sample name '" + name + "'");

        std::string labels;
        if (i < line.size() && line[i] == '{') {
            const std::size_t close = line.find('}', i);
            if (close == std::string::npos)
                return fail(err, lineNo, "unterminated label set");
            labels = line.substr(i + 1, close - i - 1);
            i = close + 1;

            // Validate label pairs: name="value",...
            std::size_t p = 0;
            while (p < labels.size()) {
                const std::size_t eq = labels.find('=', p);
                if (eq == std::string::npos)
                    return fail(err, lineNo, "label without '='");
                if (!validLabelName(labels.substr(p, eq - p)))
                    return fail(err, lineNo,
                                "bad label name '" +
                                    labels.substr(p, eq - p) + "'");
                if (eq + 1 >= labels.size() || labels[eq + 1] != '"')
                    return fail(err, lineNo, "label value not quoted");
                std::size_t q = eq + 2;
                while (q < labels.size() &&
                       (labels[q] != '"' || labels[q - 1] == '\\'))
                    ++q;
                if (q >= labels.size())
                    return fail(err, lineNo, "unterminated label value");
                p = q + 1;
                if (p < labels.size()) {
                    if (labels[p] != ',')
                        return fail(err, lineNo,
                                    "expected ',' between labels");
                    ++p;
                }
            }
        }

        if (i >= line.size() || line[i] != ' ')
            return fail(err, lineNo, "missing sample value");
        std::istringstream rest(line.substr(i + 1));
        std::string value, timestamp, extra;
        rest >> value >> timestamp >> extra;
        if (!parseSampleValue(value))
            return fail(err, lineNo,
                        "unparseable sample value '" + value + "'");
        if (!extra.empty())
            return fail(err, lineNo, "trailing tokens after sample");
        if (!timestamp.empty()) {
            char *end = nullptr;
            std::strtoll(timestamp.c_str(), &end, 10);
            if (end == nullptr || *end != '\0')
                return fail(err, lineNo,
                            "bad timestamp '" + timestamp + "'");
        }

        // TYPE (when present) must have preceded its samples; histogram
        // component samples resolve to the base name's TYPE block.
        const std::string base = baseMetricName(name);
        if (typeOf(name) == nullptr && typeOf(base) == nullptr &&
            !types.empty() && name.rfind("zerodev_", 0) == 0)
            return fail(err, lineNo,
                        "sample '" + name + "' has no TYPE block");

        const std::string key = name + "{" + labels + "}";
        for (const std::string &s : seenSeries) {
            if (s == key)
                return fail(err, lineNo,
                            "duplicate series '" + key + "'");
        }
        seenSeries.push_back(key);
        sampledBase.push_back(base);
        if (base != name)
            sampledBase.push_back(name);
    }
    if (err)
        err->clear();
    return true;
}

} // namespace zerodev::obs
