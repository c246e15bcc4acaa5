//===- Harness.h - Shared pieces of psc_perfbench ----------------*- C++ -*-===//
///
/// \file
/// Clock and statistics helpers, the seeded generator every workload draws
/// its inputs from, the in-memory span recorder behind `--trace 1`, and the
/// result and check bookkeeping the workloads share.
///
//===----------------------------------------------------------------------===//

#ifndef PSC_PERFBENCH_HARNESS_H
#define PSC_PERFBENCH_HARNESS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// splitmix64: the only source of workload inputs, so one seed always
/// yields one op sequence.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(static_cast<unsigned>(I))]);
  }
  /// Eight lowercase hex digits (fixed length, so renamed sources keep
  /// their size).
  std::string tag();

private:
  uint64_t S;
};

/// Linear-interpolation percentile, \p Q in [0, 1]; 0 for no samples.
double percentile(std::vector<double> V, double Q);
double mean(const std::vector<double> &V);

/// Replaces every whole-word occurrence of \p From in \p Text.
std::string replaceWord(const std::string &Text, const std::string &From,
                        const std::string &To);
/// Replaces the single occurrence of \p From; false if it is absent.
bool replaceOnce(std::string &Text, const std::string &From,
                 const std::string &To);
/// Names of the functions defined in a PSC source (`<type> name(` at the
/// start of a line).
std::vector<std::string> definedFunctions(const std::string &Source);
/// Renames every function \p Source defines to `<name>_<Suffix>`.
std::string renameFunctions(const std::string &Source,
                            const std::string &Suffix);

// --- Tracing ---------------------------------------------------------------

/// One recorded span: a call into one layer's public entry point.
struct SpanRec {
  std::string Name;
  uint64_t StartNs = 0, EndNs = 0;
  int Parent = -1; ///< Index of the enclosing span on the same thread.
  /// Timed op the span belongs to, counting from 1; 0 outside the timed
  /// ops (set-up and the traced runtime and paper passes).
  uint32_t Op = 0;
  uint32_t Tid = 0;
};

/// In-memory span and counter store. Spans are appended under a mutex (the
/// serve workload records from two client threads) and written at exit.
class Tracer {
public:
  bool on() const { return On.load(std::memory_order_relaxed); }
  void setOn(bool V) { On.store(V, std::memory_order_relaxed); }

  int begin(std::string Name);
  void end(int Idx);
  /// Adds \p V to counter \p Key (counts recorded at span boundaries).
  void count(const std::string &Key, double V);
  double counter(const std::string &Key) const;

  /// The op id spans opened on this thread are stamped with.
  static void setOp(uint32_t Op);

  /// Self time (span minus the part its children cover), summed per span
  /// name over the spans whose op id satisfies \p Pick, in ms.
  std::map<std::string, double>
  selfMs(const std::function<bool(uint32_t)> &Pick) const;
  /// Durations (ms) of the spans named \p Name, in order.
  std::vector<double> durations(const std::string &Name) const;

  /// Chrome-trace JSON of every span, with \p Meta in the metadata.
  bool write(const std::string &Path, const std::string &Meta) const;

private:
  std::atomic<bool> On{false};
  mutable std::mutex Mu;
  std::vector<SpanRec> Spans;
  std::map<std::string, double> Counts;
  Clock::time_point T0 = Clock::now();
};

Tracer &tracer();

/// RAII span; free (one branch) when tracing is off.
class Span {
public:
  explicit Span(std::string Name) {
    if (tracer().on())
      Idx = tracer().begin(std::move(Name));
  }
  ~Span() {
    if (Idx >= 0)
      tracer().end(Idx);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int Idx = -1;
};

// --- Results ---------------------------------------------------------------

struct Metric {
  double Value = 0.0;
  std::string Unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

inline void put(Metrics &M, const std::string &Name, double V,
                const char *Unit) {
  M.push_back({Name, {V, Unit}});
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Root = ".";     ///< Checkout root (committed BENCH_*.json).
  std::string SockDir = "."; ///< Where serve binds its unix socket.
  std::string TraceOut;       ///< Span file written at exit (trace runs).
  bool WrongReference = false; ///< Self-test: corrupt one reference value.
};

/// An untraced run sets up this many times and reports the median set-up:
/// a single set-up of a fraction of a second moves with the host's
/// second-to-second speed.
constexpr unsigned SetupReps = 9;

struct RunOutcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  Metrics M;
};

/// Counts one checked op; the first few failures are reported on stderr.
void noteCheck(RunOutcome &Out, const std::string &Why, const char *What);

/// Peak resident set of this process, MiB.
double peakRssMb();

/// Time per pass of the layer span \p Span: the per-op mean when the layer
/// runs inside the timed ops, else its total outside them.
double layerMs(const std::string &Span, unsigned TracedOps);

} // namespace pb

#endif // PSC_PERFBENCH_HARNESS_H
