// Result bookkeeping for the repo benchmark: named metrics with units,
// output checks, request accounting, and the one-line JSON verdict that
// ends every run. Self-contained (no exea code): the measuring stick must
// not move with the code it measures, and the load-generator self-test
// links it without the library layers.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Steady-clock nanoseconds (the one clock every timing here uses).
int64_t NowNs();

// Nearest-rank quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

std::string JsonEscape(const std::string& raw);

// Formats a double with all the digits it carries.
std::string Num(double value);

class Report {
 public:
  // Records (or overwrites) a metric. Every name is printed; which ones
  // reach the final JSON line is decided by FinalLine's `names`.
  void Metric(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Value(const std::string& name) const;

  // Records one output check. A failing check makes the run incorrect
  // and is printed with `what` so the failure says which output broke.
  void Check(bool ok, const std::string& what);

  // Request accounting across every phase of the run.
  void Count(size_t attempted, size_t failed);

  // Run context (machine, build, knobs), echoed as one JSON object.
  void Context(const std::string& key, const std::string& value);
  std::string ContextJson() const;

  bool correct() const { return checks_failed_ == 0 && checks_run_ > 0; }

  // Prints every metric as "name value unit", one per line.
  void PrintMetrics() const;

  // The verdict line: {"correct":..,"attempted":..,"failed":..,
  // "metrics":{name:{"value":..,"unit":..}}} over `names`, each of which
  // must have been recorded (a missing one makes the run incorrect).
  std::string FinalLine(const std::vector<std::string>& names);

  // Every metric and the context as one JSON object (the results file).
  std::string FullJson() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t checks_run_ = 0;
  size_t checks_failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
