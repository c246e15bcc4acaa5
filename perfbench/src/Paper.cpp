//===- Paper.cpp - The paper's Fig. 13 and Fig. 14 tables, traced --------===//
///
/// \file
/// One pass produces both tables for the eight NAS kernels, as
/// bench_fig13_options / bench_fig14_critical_path do: a coverage profile,
/// enumerateOptions under OpenMP, PDG, J&K and PS-PDG, and
/// evaluateCriticalPaths. Fig. 14 is then decomposed into its public
/// pieces (four CriticalPathModels, four evaluated runs, four plain runs).
/// Every count and critical path is checked against the committed
/// BENCH_fig13.json / BENCH_fig14.json.
///
/// The pass runs once per traced analyze run and feeds only per-layer
/// metrics: as a workload of its own its pass time swung between two
/// host-speed regimes (about 1.5 s and 2.2 s on the same 4-vCPU VM,
/// whatever the seed or address layout), wider than any bound the
/// benchmark can set.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "emulator/Coverage.h"
#include "emulator/CriticalPath.h"
#include "frontend/Frontend.h"
#include "parallel/PlanEnumerator.h"
#include "workloads/Workloads.h"

#include <fstream>
#include <stdexcept>

using namespace psc;
using namespace pb;

namespace {

const AbstractionKind Kinds[4] = {AbstractionKind::OpenMP,
                                  AbstractionKind::PDG, AbstractionKind::JK,
                                  AbstractionKind::PSPDG};
const char *Fig14Engines[4] = {"openmp", "pdg", "jk", "pspdg"};

/// The records of a committed BENCH_*.json, as raw value tokens keyed by
/// (workload, engine, field). The files are written one record per line
/// by bench/BenchUtil.h's writeBenchJson.
using RefTable = std::map<std::string, std::string>;

std::string refKey(const std::string &W, const std::string &E,
                   const std::string &Field) {
  return W + "|" + E + "|" + Field;
}

RefTable loadRecords(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  RefTable T;
  std::string Line;
  while (std::getline(In, Line)) {
    std::map<std::string, std::string> Fields;
    size_t Pos = 0;
    while ((Pos = Line.find('"', Pos)) != std::string::npos) {
      size_t KeyEnd = Line.find('"', Pos + 1);
      if (KeyEnd == std::string::npos || Line.compare(KeyEnd, 3, "\": ") != 0)
        break;
      std::string Key = Line.substr(Pos + 1, KeyEnd - Pos - 1);
      size_t V = KeyEnd + 3, VEnd;
      if (Line[V] == '"') {
        VEnd = Line.find('"', V + 1);
        Fields[Key] = Line.substr(V + 1, VEnd - V - 1);
        ++VEnd;
      } else {
        VEnd = Line.find_first_of(",}", V);
        Fields[Key] = Line.substr(V, VEnd - V);
      }
      Pos = VEnd;
    }
    if (!Fields.count("workload") || !Fields.count("engine"))
      continue;
    for (const auto &[K, V] : Fields)
      T[refKey(Fields["workload"], Fields["engine"], K)] = V;
  }
  return T;
}

/// A metric as writeBenchJson prints it: integral values exactly, others
/// with four decimals.
std::string asRecorded(double V) {
  if (V == static_cast<double>(static_cast<long long>(V)))
    return std::to_string(static_cast<long long>(V));
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.4f", V);
  return Buf;
}

double criticalPath(const CriticalPathReport &R, int I) {
  const double V[4] = {R.OpenMP, R.PDG, R.JK, R.PSPDG};
  return V[I];
}

/// Both tables; returns why they differ from the committed ones, or "".
std::string paperTables(const Options &O) {
  RefTable Fig13 = loadRecords(O.Root + "/BENCH_fig13.json");
  RefTable Fig14 = loadRecords(O.Root + "/BENCH_fig14.json");
  if (O.WrongReference) {
    std::string &V = Fig13[refKey("BT", "PS-PDG", "options")];
    V = std::to_string(std::stoll(V) + 1);
  }
  EnumeratorConfig Cfg; // the paper's 56 cores x 8 chunk sizes
  Tracer &T = tracer();
  for (const Workload &W : nasWorkloads()) {
    CompileResult CR = compileSource(W.Source, W.Name);
    if (!CR.ok())
      return W.Name + " does not compile";
    std::unique_ptr<Module> M = std::move(CR.M);
    CoverageMap Coverage;
    {
      Span S("emulator.coverage");
      ModuleAnalyses MA(*M);
      CoverageProfiler Cov(MA);
      Interpreter I(*M);
      I.addObserver(&Cov);
      I.run();
      Coverage = Cov.coverage();
    }
    for (int I = 0; I < 4; ++I) {
      OptionCount C;
      {
        Span S("parallel.enumerate");
        C = enumerateOptions(*M, Kinds[I], Cfg, &Coverage);
      }
      const char *E = abstractionName(Kinds[I]);
      if (Fig13[refKey(W.Name, E, "options")] != std::to_string(C.Total) ||
          Fig13[refKey(W.Name, E, "loops_considered")] !=
              std::to_string(C.LoopsConsidered) ||
          Fig13[refKey(W.Name, E, "doall_loops")] !=
              std::to_string(C.DOALLLoops))
        return W.Name + " " + E + ": option counts differ from "
                                  "BENCH_fig13.json";
    }
    CriticalPathReport CP;
    {
      Span S("emulator.critical_paths");
      CP = evaluateCriticalPaths(*M);
    }
    // The same four evaluations through their public pieces, next to
    // four plain runs: where Fig. 14's time goes, and what the observer
    // costs.
    for (int I = 0; I < 4; ++I) {
      std::unique_ptr<CriticalPathModel> Model;
      {
        Span S("emulator.cp_model");
        Model = std::make_unique<CriticalPathModel>(*M, Kinds[I]);
      }
      CriticalPathEvaluator Eval(*Model);
      RunResult R;
      {
        Span S("emulator.cp_eval");
        Interpreter Interp(*M);
        Interp.addObserver(&Eval);
        R = Interp.run();
      }
      T.count("emulator.cp_dyn_instrs",
              static_cast<double>(R.InstructionsExecuted));
      {
        Span S("emulator.plain_run");
        Interpreter Plain(*M);
        Plain.run();
      }
      const char *E = Fig14Engines[I];
      if (Fig14[refKey(W.Name, E, "critical_path")] !=
              asRecorded(criticalPath(CP, I)) ||
          Eval.criticalPath() != criticalPath(CP, I) ||
          Fig14[refKey(W.Name, E, "seq_instrs")] !=
              std::to_string(CP.TotalDynamicInstructions))
        return W.Name + " " + E + ": critical path differs from "
                                  "BENCH_fig14.json";
    }
  }
  return "";
}

} // namespace

void pb::paperPass(const Options &O, RunOutcome &Out) {
  noteCheck(Out, paperTables(O), "paper pass");
  for (const char *L : {"parallel.enumerate", "emulator.critical_paths",
                        "emulator.cp_model", "emulator.cp_eval"})
    put(Out.M, std::string(L) + "_ms", layerMs(L, 0), "ms");
  put(Out.M, "emulator.cp_dyn_instrs",
      tracer().counter("emulator.cp_dyn_instrs"), "count");
  double Plain = layerMs("emulator.plain_run", 0);
  put(Out.M, "emulator.cp_observer_overhead",
      Plain > 0 ? layerMs("emulator.cp_eval", 0) / Plain : 0.0, "x");
}
