//===- Workloads.h - The perfbench workloads and traced passes ---*- C++ -*-===//

#ifndef PSC_PERFBENCH_WORKLOADS_H
#define PSC_PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include "frontend/Frontend.h"
#include "runtime/Schedule.h"

namespace pb {

/// `pscc --grain=auto` for \p Workers workers, fixed rather than capped by
/// the machine's core count so every machine builds the same plans.
inline psc::GrainConfig grainAuto(unsigned Workers) {
  psc::GrainConfig G;
  G.Enabled = true;
  G.Workers = Workers;
  return G;
}

/// The first diagnostic of a failed compile.
inline std::string compileError(const psc::CompileResult &CR) {
  return CR.Diagnostics.empty() ? "compilation failed" : CR.Diagnostics.front();
}

RunOutcome runAnalyze(const Options &O);
RunOutcome runServe(const Options &O);

/// The runtime pass of a traced analyze run: speculative parallel runs of
/// the ten kernels and two adversarial inputs, each round one checked op
/// in \p Out, plus the runtime's per-layer metrics.
void executePass(const Options &O, RunOutcome &Out);
/// The paper's Fig. 13 / Fig. 14 pass over the NAS kernels in a traced
/// analyze run: one op in \p Out, checked against the committed tables,
/// plus its per-layer metrics.
void paperPass(const Options &O, RunOutcome &Out);

} // namespace pb

#endif // PSC_PERFBENCH_WORKLOADS_H
