//===- Execute.cpp - The runtime pass of a traced analyze run -------------===//
///
/// \file
/// Runs twelve programs with ParallelRuntime::run on 2 workers: the ten
/// kernels, plus two inputs that break their training profile (UA with a
/// non-coprime permutation stride, RX with the cold reset sweep switched
/// on). The pass first compiles every program, trains a DepProfiler profile
/// on each kernel's own input (the adversarial pair reuses its clean
/// twin's), builds speculative PS-PDG plans (grain auto, 2 workers) and
/// decodes. Every round of twelve runs is checked: kernel outputs against
/// Workload's expected checksums, adversarial outputs against a sequential
/// run of the walker engine; each adversarial input must misspeculate
/// exactly once and every other program never, and CG, UA and RX (and
/// their adversarial twins) must run speculative loops. Next to each round,
/// a sequential bytecode run of every program gives the speedup baseline.
///
/// The pass runs once per traced analyze run and feeds only per-layer
/// metrics. As a workload of its own its pass time followed host steal
/// (workers and HELIX gates wait in yield loops, so one preempted vCPU
/// stalls the whole pass): over ten seeds the IQR/median of its median
/// pass time was 0.41, wider than any bound the benchmark may set.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "emulator/Interpreter.h"
#include "frontend/Frontend.h"
#include "profiling/DepProfiler.h"
#include "runtime/ParallelRuntime.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

using namespace psc;
using namespace pb;

namespace {

constexpr unsigned Rounds = 10;

class ExecutePass {
  // Declaration order matters: the runtime refers to the plan, the plan
  // and the decoded module to the module.
  struct Program {
    std::string Name, Source;
    long Expected = 0;        ///< Kernels: the checksum printed last.
    Program *Twin = nullptr;  ///< Adversarial: the kernel it perturbs.
    bool Speculates = false;  ///< Must run at least one speculative loop.
    std::unique_ptr<Module> M;
    DepProfile Profile;
    RuntimePlan Plan;
    std::unique_ptr<ParallelRuntime> RT;
    std::unique_ptr<BytecodeModule> SeqBC; ///< Sequential baseline.
    std::vector<std::string> RefOutput;    ///< Adversarial: walker output.
    int64_t RefExit = 0;
    ParallelRunResult Last;
  };
  std::vector<std::unique_ptr<Program>> Programs;
  std::vector<Program *> Order;
  double PeakOverlay = 0.0;

public:
  void setup() {
    for (const Workload &W : extendedWorkloads()) {
      auto P = std::make_unique<Program>();
      P->Name = W.Name;
      P->Source = W.Source;
      P->Expected = W.ExpectedChecksum;
      P->Speculates = P->Name == "CG" || P->Name == "UA" || P->Name == "RX";
      Programs.push_back(std::move(P));
    }
    addAdversarial("UA", "i * 167 + 3", "i * 166 + 3");
    addAdversarial("RX", "int reset_len = 0;", "int reset_len = 4;");

    for (auto &P : Programs) {
      {
        Span S("frontend.compile");
        CompileResult CR = compileSource(P->Source, P->Name);
        if (!CR.ok())
          throw std::runtime_error(P->Name + " does not compile: " +
                                   compileError(CR));
        P->M = std::move(CR.M);
      }
      if (!P->Twin) {
        Span S("profiling.train");
        ModuleAnalyses MA(*P->M);
        DepProfiler Prof(MA);
        Interpreter I(*P->M);
        I.addObserver(&Prof);
        I.run();
        P->Profile = Prof.takeProfile();
      }
      const DepProfile &Profile = P->Twin ? P->Twin->Profile : P->Profile;
      {
        Span S("runtime.plan_build");
        P->Plan = buildRuntimePlan(*P->M, AbstractionKind::PSPDG, 2,
                                   FeatureSet(), DepOracleConfig({}, &Profile),
                                   grainAuto(2));
      }
      P->RT = std::make_unique<ParallelRuntime>(*P->M, P->Plan);
      P->SeqBC = std::make_unique<BytecodeModule>(*P->M);
      if (P->Twin) {
        Interpreter Walker(*P->M);
        Walker.setEngine(ExecEngineKind::Walker);
        RunResult R = Walker.run();
        P->RefOutput = R.Output;
        P->RefExit = R.ExitValue;
      }
      Order.push_back(P.get());
    }
  }

  /// One round: every program once under its plan, in seeded order, then
  /// once sequentially. Returns why the round's outputs are wrong, or "".
  std::string round(Rng &R) {
    R.shuffle(Order);
    for (Program *P : Order) {
      Span S("runtime.run." + P->Name);
      P->Last = P->RT->run();
    }
    std::string Why;
    for (Program *P : Order) {
      countLoops(*P);
      if (Why.empty())
        Why = check(*P);
    }
    for (Program *P : Order) {
      Interpreter I(*P->M);
      I.setBytecode(P->SeqBC.get());
      RunResult Seq;
      {
        Span S("emulator.seq_run." + P->Name);
        Seq = I.run();
      }
      tracer().count("emulator.seq_instrs",
                     static_cast<double>(Seq.InstructionsExecuted));
    }
    return Why;
  }

  void layerMetrics(Metrics &Out) {
    put(Out, "profiling.train_ms", layerMs("profiling.train", 0), "ms");
    double SeqMs = 0.0;
    for (Program *P : Order) {
      std::vector<double> Par = tracer().durations("runtime.run." + P->Name);
      std::vector<double> Seq =
          tracer().durations("emulator.seq_run." + P->Name);
      for (double Ms : Seq)
        SeqMs += Ms;
      double ParP50 = percentile(Par, 0.5);
      put(Out, "runtime.run_ms." + P->Name, ParP50, "ms");
      put(Out, "runtime.speedup." + P->Name,
          ParP50 > 0 ? percentile(Seq, 0.5) / ParP50 : 0.0, "x");
      put(Out, "runtime.misspeculations." + P->Name,
          tracer().counter("runtime.misspeculations." + P->Name) / Rounds,
          "count");
    }
    put(Out, "emulator.instrs_per_s",
        SeqMs > 0 ? tracer().counter("emulator.seq_instrs") / (SeqMs / 1e3)
                  : 0.0,
        "1/s");
    for (const char *C :
         {"runtime.parallel_invocations", "runtime.iterations",
          "runtime.spec_invocations", "runtime.misspeculations",
          "runtime.spec_log_entries"})
      put(Out, C, tracer().counter(C) / Rounds, "count");
    double SpecInv = tracer().counter("runtime.spec_invocations");
    put(Out, "runtime.spec_commit_ratio",
        SpecInv > 0
            ? 1.0 - tracer().counter("runtime.misspeculations") / SpecInv
            : 0.0,
        "ratio");
    put(Out, "runtime.peak_overlay_bytes", PeakOverlay, "B");
  }

private:
  void addAdversarial(const std::string &Twin, const std::string &From,
                      const std::string &To) {
    Program *Clean = nullptr;
    for (auto &P : Programs)
      if (P->Name == Twin)
        Clean = P.get();
    auto P = std::make_unique<Program>();
    P->Name = Twin + "_adv";
    P->Source = Clean ? Clean->Source : "";
    if (!Clean || !replaceOnce(P->Source, From, To))
      throw std::runtime_error("cannot derive " + P->Name + " from " + Twin);
    P->Twin = Clean;
    P->Speculates = true;
    Programs.push_back(std::move(P));
  }

  static std::string check(const Program &P) {
    const ParallelRunResult &L = P.Last;
    if (!L.ok())
      return P.Name + ": " + (L.Error.empty() ? "did not complete" : L.Error);
    if (P.Twin && (L.R.Output != P.RefOutput || L.R.ExitValue != P.RefExit))
      return P.Name + ": output differs from the sequential walker run";
    if (!P.Twin && (L.R.Output.empty() ||
                    L.R.Output.back() != std::to_string(P.Expected)))
      return P.Name + ": checksum differs from Workload::ExpectedChecksum";
    uint64_t Misspecs = 0, SpecInvocations = 0;
    for (const LoopExecStat &S : L.Loops) {
      Misspecs += S.Misspeculations;
      if (S.Speculative)
        SpecInvocations += S.Invocations;
    }
    uint64_t Want = P.Twin ? 1 : 0;
    if (Misspecs != Want)
      return P.Name + ": " + std::to_string(Misspecs) +
             " misspeculations, expected " + std::to_string(Want);
    if (P.Speculates && SpecInvocations == 0)
      return P.Name + ": no speculative loop ran";
    return "";
  }

  void countLoops(const Program &P) {
    Tracer &T = tracer();
    for (const LoopExecStat &L : P.Last.Loops) {
      if (L.Kind != ScheduleKind::Sequential) {
        T.count("runtime.parallel_invocations",
                static_cast<double>(L.Invocations));
        T.count("runtime.iterations", static_cast<double>(L.Iterations));
      }
      if (L.Speculative)
        T.count("runtime.spec_invocations",
                static_cast<double>(L.Invocations));
      T.count("runtime.misspeculations",
              static_cast<double>(L.Misspeculations));
      T.count("runtime.misspeculations." + P.Name,
              static_cast<double>(L.Misspeculations));
      T.count("runtime.spec_log_entries",
              static_cast<double>(L.SpecLogEntries));
      PeakOverlay =
          std::max(PeakOverlay, static_cast<double>(L.PeakOverlayBytes));
    }
  }
};

} // namespace

void pb::executePass(const Options &O, RunOutcome &Out) {
  ExecutePass X;
  X.setup();
  Rng R(O.Seed ^ 0xe7ecULL);
  for (unsigned I = 0; I < Rounds; ++I)
    noteCheck(Out, X.round(R), "runtime round");
  X.layerMetrics(Out.M);
}
