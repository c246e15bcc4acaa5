//===- Serve.cpp - `serve`: the resident service under a read/edit mix ----===//
///
/// \file
/// An in-process pscd Server on a unix socket (2 pool workers) with two
/// client connections, each a closed loop, the whole process on one CPU. Reads are warm analyze sessions
/// over the ten kernels, so they always hit the L1 module and L3 plan
/// caches. Every 20th session on a connection is an edit: the next
/// version of that connection's own working copy of a kernel (its own
/// module name, its functions renamed, one seeded structural change from
/// the previous version). An edit misses L1, invalidates the previous
/// version's L2/L3 entries and is analyzed cold; reads never touch the
/// working copies. Every response must be ok, and its plan lines must
/// equal standalone renderPlanLines on the same source, computed in
/// set-up; a traced run also checks that a reads-only window hits the L1
/// and L3 caches every time.
///
/// An op is one connection's cycle of 20 sessions: 19 reads and the edit
/// that closes it. Single-session latency is bimodal (a read either finds
/// a free pool worker or queues behind an edit's cold analysis), so its
/// tail is reported per layer (service.read_p90_ms), not as the op tail.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/DepOracle.h"
#include "frontend/Frontend.h"
#include "parallel/PlanLines.h"
#include "pspdg/PSPDGBuilder.h"
#include "service/Client.h"
#include "service/Server.h"
#include "workloads/Workloads.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <sched.h>
#include <thread>
#include <unistd.h>

using namespace psc;
using namespace psc::service;
using namespace pb;

namespace {

constexpr unsigned Connections = 2;
constexpr unsigned EditEvery = 20;
constexpr unsigned Shapes = 3;

/// What `pscc --plans` prints for \p Source: the PS-PDG plan lines of
/// every function with loops, computed without the service.
std::string standalonePlans(const std::string &Source, const std::string &Name) {
  CompileResult CR;
  {
    Span S("frontend.compile");
    CR = compileSource(Source, Name);
  }
  if (!CR.ok())
    throw std::runtime_error(Name + " does not compile: " + compileError(CR));
  std::string Lines;
  for (const auto &F : CR.M->functions()) {
    if (F->isDeclaration())
      continue;
    std::unique_ptr<FunctionAnalysis> FA;
    {
      Span S("ir.function_analysis");
      FA = std::make_unique<FunctionAnalysis>(*F);
    }
    if (FA->loopInfo().loops().empty())
      continue;
    DepOracleStack Stack(*FA);
    std::unique_ptr<PSPDG> G;
    {
      Span S("pspdg.build");
      G = buildPSPDG(*FA, Stack);
    }
    Span S("parallel.views");
    AbstractionView View(AbstractionKind::PSPDG, *FA, Stack, G.get());
    Lines += renderPlanLines(*FA, View);
  }
  return Lines;
}

/// The number after "<Key>": inside the \p Section object of statsJson().
double statOf(const std::string &Json, const char *Section, const char *Key) {
  size_t Pos = Json.find("\"" + std::string(Section) + "\"");
  if (Pos == std::string::npos)
    return 0.0;
  std::string K = "\"" + std::string(Key) + "\":";
  Pos = Json.find(K, Pos);
  return Pos == std::string::npos ? 0.0
                                  : std::atof(Json.c_str() + Pos + K.size());
}

/// A top-level number of statsJson().
double topLevel(const std::string &Json, const char *Key) {
  std::string K = "\"" + std::string(Key) + "\":";
  size_t Pos = Json.find(K);
  return Pos == std::string::npos ? 0.0
                                  : std::atof(Json.c_str() + Pos + K.size());
}

double delta(const std::string &A, const std::string &B, const char *Section,
             const char *Key) {
  return statOf(B, Section, Key) - statOf(A, Section, Key);
}

double hitRate(const std::string &A, const std::string &B,
               const char *Section) {
  double H = delta(A, B, Section, "hits");
  double N = H + delta(A, B, Section, "misses");
  return N > 0 ? H / N : 0.0;
}

double stageMean(const std::string &A, const std::string &B,
                 const char *Section) {
  double N = delta(A, B, Section, "count");
  return N > 0 ? delta(A, B, Section, "total_ms") / N : 0.0;
}

struct Session {
  bool Edit = false;
  double ClientMs = 0.0, ServerMs = 0.0;
};

class ServeBench {
  struct Kernel {
    std::string Name, Source, Ref;
  };
  /// One connection's working copy of one kernel.
  struct Copy {
    std::string Module, Base;
    std::string Ref[Shapes]; ///< Plan lines of each edit shape.
    unsigned Version = 0, Shape = 0;
  };
  struct Conn {
    std::vector<Copy> Copies;
    Rng R{0};
    std::vector<unsigned> ReadOrder, EditOrder;
    size_t ReadPos = 0, EditPos = 0;
    uint64_t Ordinal = 0;
    std::vector<Session> Sessions;
    std::vector<double> OpMs; ///< Completed 20-session cycles.
    uint64_t Failed = 0, Attempted = 0;
    std::string FirstFailure;
  };

  const Options &O;
  std::string Sock;
  std::vector<Kernel> Kernels;
  Conn Conns[Connections];
  std::unique_ptr<Server> S;

public:
  explicit ServeBench(const Options &O)
      : O(O), Sock(O.SockDir + "/pb-" + std::to_string(::getpid()) + ".sock") {}

  ~ServeBench() {
    if (S)
      S->stop();
  }

  void setup() {
    for (const Workload &W : extendedWorkloads())
      Kernels.push_back({W.Name, W.Source, standalonePlans(W.Source, W.Name)});
    if (O.WrongReference)
      Kernels.front().Ref += "x";
    for (unsigned C = 0; C < Connections; ++C) {
      Conn &Cn = Conns[C];
      Cn.R = Rng(O.Seed * 7919 + C);
      for (const Kernel &K : Kernels) {
        Copy Cp;
        Cp.Module = "wc" + std::to_string(C) + "_" + K.Name;
        Cp.Base = renameFunctions(K.Source, "w" + std::to_string(C));
        for (unsigned Sh = 0; Sh < Shapes; ++Sh)
          Cp.Ref[Sh] = standalonePlans(editSource(Cp, 0, Sh), Cp.Module);
        Cn.Copies.push_back(std::move(Cp));
      }
    }
    ServerConfig Cfg;
    Cfg.SocketPath = Sock;
    Cfg.PoolThreads = 2;
    S = std::make_unique<Server>(Cfg);
    std::string Err;
    if (!S->start(Err))
      throw std::runtime_error("server: " + Err);
  }

  /// The untimed warm-up pass: every connection reads each kernel, seats
  /// version 0 of each working copy, and reads each kernel again.
  void warmUp(RunOutcome &Out) {
    runClients([&](Client &Cl, Conn &Cn) {
      for (unsigned K = 0; K < Kernels.size(); ++K)
        request(Cl, Cn, readRequest(K), Kernels[K].Ref, false);
      for (Copy &Cp : Cn.Copies)
        request(Cl, Cn, editRequest(Cp), Cp.Ref[Cp.Shape], true);
      for (unsigned K = 0; K < Kernels.size(); ++K)
        request(Cl, Cn, readRequest(K), Kernels[K].Ref, false);
    });
    collect(Out, "warm-up session");
  }

  /// A closed-loop window of \p Seconds; returns its wall time in s.
  double window(double Seconds, bool Traced, bool ReadsOnly,
                unsigned ReadsOnlySessions = 0) {
    std::atomic<uint32_t> OpIds{0};
    Clock::time_point Deadline =
        Clock::now() + std::chrono::microseconds(
                           static_cast<long long>(Seconds * 1e6));
    Clock::time_point T0 = Clock::now();
    tracer().setOn(Traced);
    runClients([&](Client &Cl, Conn &Cn) {
      Cn.Ordinal = 0;
      Clock::time_point OpStart = Clock::now();
      for (unsigned N = 0; ReadsOnly ? N < ReadsOnlySessions
                                     : Clock::now() < Deadline;
           ++N) {
        bool Edit = !ReadsOnly && ++Cn.Ordinal % EditEvery == 0;
        Message Req;
        const std::string *Ref;
        if (Edit) {
          Copy &Cp = Cn.Copies[next(Cn.EditOrder, Cn.EditPos, Cn.R)];
          Cp.Shape = (Cp.Shape + 1 + Cn.R.below(Shapes - 1)) % Shapes;
          ++Cp.Version;
          Req = editRequest(Cp);
          Ref = &Cp.Ref[Cp.Shape];
        } else {
          unsigned K = next(Cn.ReadOrder, Cn.ReadPos, Cn.R);
          Req = readRequest(K);
          Ref = &Kernels[K].Ref;
        }
        Tracer::setOp(++OpIds);
        if (!request(Cl, Cn, Req, *Ref, Edit))
          break;
        if (Edit) {
          Cn.OpMs.push_back(msSince(OpStart));
          OpStart = Clock::now();
        }
      }
    });
    tracer().setOn(false);
    return msSince(T0) / 1e3;
  }

  /// Folds the connections' sessions into \p Out; returns them, and the
  /// completed ops in \p OpMs.
  std::vector<Session> collect(RunOutcome &Out, const char *What,
                               std::vector<double> *OpMs = nullptr) {
    std::vector<Session> All;
    for (Conn &Cn : Conns) {
      All.insert(All.end(), Cn.Sessions.begin(), Cn.Sessions.end());
      if (OpMs)
        OpMs->insert(OpMs->end(), Cn.OpMs.begin(), Cn.OpMs.end());
      Cn.OpMs.clear();
      Out.Attempted += Cn.Attempted;
      Out.Failed += Cn.Failed;
      if (Cn.Failed)
        std::fprintf(stderr, "perfbench: %llu %s(s) failed, first: %s\n",
                     static_cast<unsigned long long>(Cn.Failed), What,
                     Cn.FirstFailure.c_str());
      Cn.Sessions.clear();
      Cn.Attempted = Cn.Failed = 0;
      Cn.FirstFailure.clear();
    }
    return All;
  }

  std::string stats() const { return S->statsJson(); }

  unsigned numKernels() const { return static_cast<unsigned>(Kernels.size()); }

private:
  static std::string editSource(const Copy &Cp, unsigned Version,
                                unsigned Shape) {
    // The comment makes every version's text new (an L1 miss); the shape
    // is the structural change (a new body hash: an L2/L3 miss).
    std::string Src = "// " + Cp.Module + " version " +
                      std::to_string(Version) + "\nint bench_edit;\n" + Cp.Base;
    std::string Pad;
    for (unsigned I = 0; I <= Shape; ++I)
      Pad += "  bench_edit = bench_edit + 1;\n";
    size_t Ret = Src.rfind("  return 0;\n}");
    if (Ret == std::string::npos)
      throw std::runtime_error(Cp.Module + ": no place for the edit");
    Src.insert(Ret, Pad);
    return Src;
  }

  Message readRequest(unsigned K) const {
    return {{"op", "session"},
            {"mode", "analyze"},
            {"name", Kernels[K].Name},
            {"source", Kernels[K].Source}};
  }

  static Message editRequest(const Copy &Cp) {
    return {{"op", "session"},
            {"mode", "analyze"},
            {"name", Cp.Module},
            {"source", editSource(Cp, Cp.Version, Cp.Shape)}};
  }

  /// Next index of a seeded cyclic order, reshuffled every cycle.
  unsigned next(std::vector<unsigned> &Order, size_t &Pos, Rng &R) const {
    if (Pos == Order.size()) {
      Order.clear();
      for (unsigned K = 0; K < Kernels.size(); ++K)
        Order.push_back(K);
      R.shuffle(Order);
      Pos = 0;
    }
    return Order[Pos++];
  }

  /// One round trip, checked; false when the connection is unusable.
  bool request(Client &Cl, Conn &Cn, const Message &Req,
               const std::string &Ref, bool Edit) {
    Message Resp;
    std::string Err;
    bool Sent;
    Session Ses;
    Ses.Edit = Edit;
    Clock::time_point T0 = Clock::now();
    {
      Span Sp(Edit ? "service.edit" : "service.read");
      Sent = Cl.request(Req, Resp, Err);
    }
    Ses.ClientMs = msSince(T0);
    ++Cn.Attempted;
    std::string Why;
    if (!Sent)
      Why = "transport: " + Err;
    else if (field(Resp, "ok") != "1")
      Why = "error response: " + field(Resp, "error");
    else if (field(Resp, "plans") != Ref)
      Why = field(Req, "name") + ": served plans differ from standalone";
    if (!Why.empty() && Cn.Failed++ == 0)
      Cn.FirstFailure = Why;
    Ses.ServerMs = std::atof(field(Resp, "latency_ms").c_str());
    Cn.Sessions.push_back(Ses);
    return Sent;
  }

  void runClients(const std::function<void(Client &, Conn &)> &Body) {
    std::atomic<unsigned> Ready{0};
    std::vector<std::thread> Ts;
    for (unsigned C = 0; C < Connections; ++C)
      Ts.emplace_back([&, C] {
        Client Cl;
        std::string Err;
        bool Up = Cl.connect(Sock, Err);
        ++Ready;
        while (Ready.load() < Connections)
          std::this_thread::yield();
        if (!Up) {
          ++Conns[C].Attempted;
          if (Conns[C].Failed++ == 0)
            Conns[C].FirstFailure = "connect: " + Err;
          return;
        }
        Body(Cl, Conns[C]);
      });
    for (std::thread &T : Ts)
      T.join();
  }
};

/// Pins the calling thread, and so every thread it starts later, to the
/// CPU it runs on. A session is a chain of cross-thread hand-offs (client,
/// connection thread, pool worker and back), and on a VM a hand-off to a
/// vCPU the hypervisor has preempted waits until that vCPU runs again:
/// unpinned, at 4-9% host steal the session rate fell by 15-30%, at 20% by
/// 3-5x. On one CPU the hand-offs stay local, so a preemption stalls the
/// run only while it lasts; the two pool workers still run concurrently,
/// interleaved.
void pinToOneCpu() {
  int Cpu = sched_getcpu();
  if (Cpu < 0)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

} // namespace

RunOutcome pb::runServe(const Options &O) {
  pinToOneCpu();
  RunOutcome Out;
  std::unique_ptr<ServeBench> B;
  std::vector<double> SetupS;
  unsigned Reps = O.Trace ? 1 : SetupReps;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    B.reset();
    tracer().setOn(O.Trace);
    Tracer::setOp(0);
    Clock::time_point T0 = Clock::now();
    B = std::make_unique<ServeBench>(O);
    B->setup();
    tracer().setOn(false);
    B->warmUp(Out);
    SetupS.push_back(msSince(T0) / 1e3);
  }

  double Half = O.Trace ? O.Seconds / 2 : O.Seconds;
  double WallS = B->window(Half, false, false);
  std::vector<double> OpMs;
  B->collect(Out, "session", &OpMs);
  if (!O.Trace) {
    put(Out.M, "ops_per_s", OpMs.size() / WallS, "1/s");
    put(Out.M, "op_p50_ms", percentile(OpMs, 0.5), "ms");
    put(Out.M, "op_p90_ms", percentile(OpMs, 0.9), "ms");
    put(Out.M, "setup_s", percentile(SetupS, 0.5), "s");
    put(Out.M, "peak_rss_mb", peakRssMb(), "MB");
    return Out;
  }

  std::string Before = B->stats();
  double TracedWallS = B->window(Half, true, false);
  std::string After = B->stats();
  uint64_t FailedBefore = Out.Failed;
  std::vector<double> TracedOpMs;
  std::vector<Session> Traced = B->collect(Out, "session", &TracedOpMs);
  double Errors = static_cast<double>(Out.Failed - FailedBefore);
  // A reads-only window: two read passes per connection, which must be
  // served from the L1 module and L3 plan caches alone.
  B->window(0, false, true, 2 * B->numKernels());
  std::string AfterReads = B->stats();
  B->collect(Out, "session");
  double L1 = hitRate(After, AfterReads, "module_cache");
  double L3 = hitRate(After, AfterReads, "plan_cache");
  noteCheck(Out,
            L1 == 1.0 && L3 == 1.0
                ? ""
                : "L1 hit rate " + std::to_string(L1) + ", L3 hit rate " +
                      std::to_string(L3) + ", expected 1",
            "reads-only window");

  std::vector<double> ReadMs, EditMs, ServerMs;
  for (const Session &S : Traced) {
    (S.Edit ? EditMs : ReadMs).push_back(S.ClientMs);
    ServerMs.push_back(S.ServerMs);
  }
  Metrics &M = Out.M;
  for (const char *L : {"frontend.compile", "ir.function_analysis",
                        "pspdg.build", "parallel.views"})
    put(M, std::string(L) + "_ms", layerMs(L, 0), "ms");
  put(M, "service.hit_ms", percentile(ReadMs, 0.5), "ms");
  put(M, "service.read_p90_ms", percentile(ReadMs, 0.9), "ms");
  put(M, "service.edit_ms", mean(EditMs), "ms");
  put(M, "service.server_session_ms", percentile(ServerMs, 0.5), "ms");
  put(M, "service.l1_hit_rate", L1, "ratio");
  put(M, "service.l2_hit_rate", hitRate(Before, After, "memo_cache"), "ratio");
  put(M, "service.l3_hit_rate", L3, "ratio");
  put(M, "service.invalidations",
      delta(Before, After, "memo_cache", "invalidations") +
          delta(Before, After, "plan_cache", "invalidations"),
      "count");
  put(M, "service.analysis_builds",
      topLevel(After, "analysis_builds") - topLevel(Before, "analysis_builds"),
      "count");
  put(M, "service.stage_compile_ms", stageMean(Before, After, "stage_compile"),
      "ms");
  put(M, "service.stage_plan_ms", stageMean(Before, After, "stage_plan"), "ms");
  put(M, "service.error_sessions", Errors, "count");
  put(M, "trace_overhead_pct",
      ((OpMs.size() / WallS) / (TracedOpMs.size() / TracedWallS) - 1.0) *
          100.0,
      "%");
  return Out;
}
