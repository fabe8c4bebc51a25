#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  size_t index = rank == 0 ? 0 : rank - 1;
  index = std::min(index, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Num(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = Entry{value, unit};
}

bool Report::Has(const std::string& name) const {
  return metrics_.count(name) > 0;
}

double Report::Value(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_run_;
  if (!ok) ++checks_failed_;
  std::printf("check %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
}

void Report::Count(size_t attempted, size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

std::string Report::ContextJson() const {
  std::string out = "{";
  for (size_t i = 0; i < context_.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + JsonEscape(context_[i].first) +
           "\":\"" + JsonEscape(context_[i].second) + "\"";
  }
  return out + "}";
}

void Report::PrintMetrics() const {
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    std::printf("metric %-36s %14.6g %s\n", name.c_str(), e.value,
                e.unit.c_str());
  }
}

std::string Report::FinalLine(const std::vector<std::string>& names) {
  std::string metrics;
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      Check(false, "metric " + name + " was not measured");
      continue;
    }
    metrics += (metrics.empty() ? "\"" : ",\"") + name +
               "\":{\"value\":" + Num(it->second.value) + ",\"unit\":\"" +
               it->second.unit + "\"}";
  }
  return "{\"correct\":" + std::string(correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(std::max<size_t>(1, attempted_)) +
         ",\"failed\":" + std::to_string(failed_) + ",\"metrics\":{" +
         metrics + "}}";
}

std::string Report::FullJson() const {
  std::string out = "{\"context\":" + ContextJson() +
                    ",\"correct\":" + (correct() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) +
                    ",\"metrics\":{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const Entry& e = metrics_.at(order_[i]);
    out += (i == 0 ? "\"" : ",\"") + order_[i] + "\":{\"value\":" +
           Num(e.value) + ",\"unit\":\"" + e.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench
