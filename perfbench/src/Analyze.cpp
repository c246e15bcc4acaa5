//===- Analyze.cpp - `analyze`: compile and plan the whole corpus ---------===//
///
/// \file
/// One op compiles and plans all ten kernels on one thread, the way
/// `pscc --plans` / `--run-parallel` does before anything runs: per defined
/// function a FunctionAnalysis, a fresh oracle stack with buildDepEdges,
/// the PS-PDG, and the PDG / J&K / PS-PDG views with their plan lines; then
/// the runtime plan (PS-PDG, 2 workers, grain auto). Every op renames the
/// kernels' functions with a seeded tag, so each op's sources are new to
/// the process and no cross-op cache can make the pass warm. The edges of
/// every function are checked against the frozen reference analysis
/// outside the timed op.
///
/// A traced run then measures the two layers the op does not reach, once
/// each: the runtime (Execute.cpp) and the paper's Fig. 13 / Fig. 14
/// experiment (Paper.cpp).
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/DepOracle.h"
#include "analysis/ReferenceDependence.h"
#include "frontend/Frontend.h"
#include "parallel/PlanLines.h"
#include "pspdg/PSPDGBuilder.h"
#include "runtime/Schedule.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <tuple>

using namespace psc;
using namespace pb;

namespace {

using EdgeKey = std::tuple<unsigned, unsigned, int, bool, std::set<unsigned>,
                           std::set<unsigned>, const Value *, bool, bool>;

std::vector<EdgeKey> canonical(const FunctionAnalysis &FA,
                               const std::vector<DepEdge> &Edges) {
  std::vector<EdgeKey> Keys;
  for (const DepEdge &E : Edges)
    Keys.emplace_back(FA.indexOf(E.Src), FA.indexOf(E.Dst),
                      static_cast<int>(E.Kind), E.Intra, E.CarriedAtHeaders,
                      E.MustCarriedAtHeaders, E.MemObject, E.IsIVDep, E.IsIO);
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

class Analyze {
  struct FnState {
    std::unique_ptr<FunctionAnalysis> FA;
    std::vector<DepEdge> Edges;
  };
  // Declaration order is destruction order in reverse: the plan and the
  // analyses refer into the module.
  struct ModState {
    std::unique_ptr<Module> M;
    std::vector<FnState> Fns;
    RuntimePlan Plan;
  };

  struct Kernel {
    std::string Name, Source;
  };
  std::vector<Kernel> Kernels;
  bool WrongReference = false;

  std::vector<std::pair<std::string, std::string>> OpSources; // name, text
  std::vector<ModState> Mods;
  std::string CompileError;

public:
  /// Everything before the first timed op except the warm-up pass.
  void setup(const Options &O) {
    // A traced run corrupts only the paper tables instead, so that the
    // self-test sees the paper check fail on its own.
    WrongReference = O.WrongReference && !O.Trace;
    for (const Workload &W : extendedWorkloads())
      Kernels.push_back({W.Name, W.Source});
  }

  /// Untimed: draws the next op's sources and releases the last op's state.
  void prepareOp(Rng &R) {
    Mods.clear();
    CompileError.clear();
    OpSources.clear();
    std::string Tag = R.tag();
    for (const Kernel &K : Kernels)
      OpSources.push_back({K.Name + "_" + Tag, renameFunctions(K.Source, Tag)});
    R.shuffle(OpSources);
  }

  /// The timed pass.
  void runOp() {
    bool Traced = tracer().on();
    for (const auto &[Name, Source] : OpSources) {
      ModState MS;
      {
        Span S("frontend.compile");
        CompileResult CR = compileSource(Source, Name);
        if (!CR.ok()) {
          CompileError = Name + ": " + compileError(CR);
          continue;
        }
        MS.M = std::move(CR.M);
      }
      for (const auto &F : MS.M->functions()) {
        if (F->isDeclaration())
          continue;
        FnState FS;
        {
          Span S("ir.function_analysis");
          FS.FA = std::make_unique<FunctionAnalysis>(*F);
        }
        std::unique_ptr<DepOracleStack> Stack;
        {
          Span S("analysis.dep_edges");
          Stack = std::make_unique<DepOracleStack>(*FS.FA);
          FS.Edges = buildDepEdges(*Stack);
        }
        std::unique_ptr<PSPDG> G;
        {
          Span S("pspdg.build");
          G = buildPSPDG(*FS.FA, *Stack);
        }
        std::string PSPDGLines;
        {
          Span S("parallel.views");
          for (AbstractionKind K : {AbstractionKind::PDG, AbstractionKind::JK,
                                    AbstractionKind::PSPDG}) {
            AbstractionView V(K, *FS.FA, *Stack,
                              K == AbstractionKind::PSPDG ? G.get()
                                                          : nullptr);
            PSPDGLines = renderPlanLines(*FS.FA, V);
          }
        }
        if (Traced)
          countFunction(*F, *Stack, PSPDGLines);
        MS.Fns.push_back(std::move(FS));
      }
      {
        Span S("runtime.plan_build");
        MS.Plan = buildRuntimePlan(*MS.M, AbstractionKind::PSPDG, 2,
                                   FeatureSet(), {}, grainAuto(2));
      }
      if (Traced)
        for (const auto &[Key, LS] : MS.Plan.Loops)
          tracer().count("runtime.loops_demoted",
                         LS.Reason.find("below parallel grain") !=
                                 std::string::npos
                             ? 1
                             : 0);
      Mods.push_back(std::move(MS));
    }
  }

  /// Untimed: checks the last op's edges; empty when they are right.
  std::string checkOp() {
    if (!CompileError.empty())
      return "compile failed: " + CompileError;
    bool First = true;
    for (ModState &MS : Mods)
      for (FnState &FS : MS.Fns) {
        std::vector<DepEdge> Ref;
        {
          Span S("analysis.reference_edges");
          Ref = referenceDepEdges(*FS.FA);
        }
        if (WrongReference && First && !Ref.empty())
          Ref.pop_back();
        First = false;
        if (canonical(*FS.FA, FS.Edges) != canonical(*FS.FA, Ref))
          return "dependence edges of @" + FS.FA->function().getName() +
                 " differ from referenceDepEdges";
      }
    return "";
  }

  /// The per-layer metrics of \p Ops traced ops.
  void layerMetrics(Metrics &Out, unsigned Ops) {
    for (const char *L :
         {"frontend.compile", "ir.function_analysis", "analysis.dep_edges",
          "analysis.reference_edges", "pspdg.build", "parallel.views",
          "runtime.plan_build"})
      put(Out, std::string(L) + "_ms", layerMs(L, Ops), "ms");
    double Q = tracer().counter("analysis.oracle_queries");
    double Answered = tracer().counter("analysis.oracle_answered");
    put(Out, "analysis.oracle_queries", Q / Ops, "count");
    put(Out, "analysis.oracle_hit_rate",
        Q > 0 ? tracer().counter("analysis.oracle_hits") / Q : 0.0, "ratio");
    put(Out, "analysis.oracle_nodep_ratio",
        Answered > 0 ? tracer().counter("analysis.oracle_nodep") / Answered
                     : 0.0,
        "ratio");
    for (const char *C : {"frontend.ir_instrs", "parallel.loops",
                          "parallel.doall_loops", "runtime.loops_demoted"})
      put(Out, C, tracer().counter(C) / Ops, "count");
  }

private:
  static void countFunction(const Function &F, const DepOracleStack &Stack,
                            const std::string &PSPDGLines) {
    Tracer &T = tracer();
    T.count("frontend.ir_instrs", static_cast<double>(F.getInstructionCount()));
    T.count("analysis.oracle_queries",
            static_cast<double>(Stack.cacheStats().Queries));
    T.count("analysis.oracle_hits",
            static_cast<double>(Stack.cacheStats().Hits));
    for (const DepOracleStack::OracleStats &S : Stack.oracleStats()) {
      T.count("analysis.oracle_answered", static_cast<double>(S.Answered));
      T.count("analysis.oracle_nodep", static_cast<double>(S.NoDep));
    }
    // One plan line per loop; a DOALL loop's line says so.
    for (size_t Pos = 0; (Pos = PSPDGLines.find('\n', Pos)) !=
                         std::string::npos;
         ++Pos)
      T.count("parallel.loops", 1);
    for (size_t Pos = 0; (Pos = PSPDGLines.find(" DOALL", Pos)) !=
                         std::string::npos;
         ++Pos)
      T.count("parallel.doall_loops", 1);
  }
};

} // namespace

RunOutcome pb::runAnalyze(const Options &O) {
  RunOutcome Out;
  Rng R(O.Seed);
  std::unique_ptr<Analyze> W;
  std::vector<double> SetupS;
  // An untraced run sets up once before its window and again at evenly
  // spaced points in it, so that its set-ups meet the host in the same
  // states as its ops (the host's speed moves in phases of seconds). A
  // traced run sets up once and records that set-up's calls as op 0.
  unsigned Reps = O.Trace ? 1 : SetupReps;
  auto SetUp = [&] {
    W.reset();
    tracer().setOn(O.Trace);
    Tracer::setOp(0);
    Rng WarmR(O.Seed ^ 0x5eedULL);
    Clock::time_point T0 = Clock::now();
    W = std::make_unique<Analyze>();
    W->setup(O);
    tracer().setOn(false);
    W->prepareOp(WarmR);
    W->runOp();
    SetupS.push_back(msSince(T0) / 1e3);
    noteCheck(Out, W->checkOp(), "warm-up pass");
  };
  SetUp();

  // Untimed ops, then (traced runs) traced ops over the second half.
  auto Window = [&](double Seconds, bool Traced, std::vector<double> &OpMs) {
    Clock::time_point Start = Clock::now();
    while (OpMs.empty() || msSince(Start) < Seconds * 1e3) {
      if (SetupS.size() < Reps &&
          msSince(Start) >= Seconds * 1e3 * SetupS.size() / Reps)
        SetUp();
      W->prepareOp(R);
      if (Traced) {
        tracer().setOn(true);
        Tracer::setOp(static_cast<uint32_t>(OpMs.size() + 1));
      }
      Clock::time_point T0 = Clock::now();
      W->runOp();
      OpMs.push_back(msSince(T0));
      noteCheck(Out, W->checkOp(), "op");
      tracer().setOn(false);
    }
  };

  std::vector<double> OpMs, TracedMs;
  Window(O.Trace ? O.Seconds / 2 : O.Seconds, false, OpMs);
  while (SetupS.size() < Reps)
    SetUp();
  // Every op and set-up time goes to the log, for diagnosing spread.
  std::fprintf(stderr, "op ms:");
  for (double Ms : OpMs)
    std::fprintf(stderr, " %.1f", Ms);
  std::fprintf(stderr, "\nsetup s:");
  for (double S : SetupS)
    std::fprintf(stderr, " %.3f", S);
  std::fprintf(stderr, "\n");
  if (!O.Trace) {
    put(Out.M, "ops_per_s", 1e3 / mean(OpMs), "1/s");
    put(Out.M, "op_p50_ms", percentile(OpMs, 0.5), "ms");
    put(Out.M, "op_p90_ms", percentile(OpMs, 0.9), "ms");
    put(Out.M, "setup_s", percentile(SetupS, 0.5), "s");
    put(Out.M, "peak_rss_mb", peakRssMb(), "MB");
    return Out;
  }
  Window(O.Seconds / 2, true, TracedMs);
  W->layerMetrics(Out.M, static_cast<unsigned>(TracedMs.size()));
  put(Out.M, "trace_overhead_pct",
      (mean(TracedMs) / mean(OpMs) - 1.0) * 100.0, "%");

  tracer().setOn(true);
  Tracer::setOp(0);
  executePass(O, Out);
  paperPass(O, Out);
  tracer().setOn(false);
  return Out;
}
