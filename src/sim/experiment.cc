#include "sim/experiment.hh"

#include <atomic>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "common/log.hh"

namespace zerodev
{

namespace
{
std::atomic<int> gFailedClaims{0};

std::vector<std::string>
labelledCells(const std::string &label, const std::vector<double> &vals,
              int precision)
{
    std::vector<std::string> cells;
    cells.reserve(vals.size() + 1);
    cells.push_back(label);
    for (double v : vals)
        cells.push_back(fmt(v, precision));
    return cells;
}
} // namespace

double
speedup(const RunResult &base, const RunResult &test)
{
    if (test.cycles == 0)
        return 0.0;
    return static_cast<double>(base.cycles) /
           static_cast<double>(test.cycles);
}

double
weightedSpeedup(const RunResult &base, const RunResult &test)
{
    const auto ipcs = [](const RunResult &r) {
        std::vector<double> v;
        v.reserve(r.coreCycles.size());
        for (std::uint32_t c = 0; c < r.coreCycles.size(); ++c)
            v.push_back(r.ipc(c));
        return v;
    };
    return weightedSpeedup(ipcs(base), ipcs(test));
}

double
ratio(double test, double base)
{
    return base == 0.0 ? 0.0 : test / base;
}

std::string
fmt(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(std::move(cells));
}

void
Table::addRow(const std::string &label, const std::vector<double> &vals,
              int precision)
{
    addRow(labelledCells(label, vals, precision));
}

void
Table::setRow(std::size_t index, std::vector<std::string> cells)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (index >= rows_.size())
        rows_.resize(index + 1);
    rows_[index] = std::move(cells);
}

void
Table::setRow(std::size_t index, const std::string &label,
              const std::vector<double> &vals, int precision)
{
    setRow(index, labelledCells(label, vals, precision));
}

std::string
Table::render() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i)
        width[i] = headers_[i].size();
    for (const auto &row : rows_) {
        for (std::size_t i = 0; i < row.size() && i < width.size(); ++i)
            width[i] = std::max(width[i], row[i].size());
    }

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size() && i < width.size();
             ++i) {
            os << (i == 0 ? "" : "  ") << std::left
               << std::setw(static_cast<int>(width[i])) << cells[i];
        }
        os << "\n";
    };
    emit(headers_);
    std::string rule;
    for (std::size_t i = 0; i < width.size(); ++i)
        rule += std::string(width[i], '-') + (i + 1 < width.size() ? "  "
                                                                   : "");
    os << rule << "\n";
    for (const auto &row : rows_)
        emit(row);
    return os.str();
}

void
Table::print() const
{
    std::fputs(render().c_str(), stdout);
}

void
claim(bool ok, const std::string &description)
{
    std::printf("[%s] %s\n", ok ? "PASS" : "CHECK", description.c_str());
    if (!ok)
        ++gFailedClaims;
}

int
failedClaims()
{
    return gFailedClaims;
}

} // namespace zerodev
