//===- Harness.cpp - Shared pieces of psc_perfbench -----------------------===//

#include "Harness.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>
#include <thread>

using namespace pb;

std::string Rng::tag() {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%08x", static_cast<unsigned>(next()));
  return Buf;
}

double pb::percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double pb::mean(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return V.empty() ? 0.0 : S / static_cast<double>(V.size());
}

static bool isIdent(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

std::string pb::replaceWord(const std::string &Text, const std::string &From,
                            const std::string &To) {
  std::string Out;
  size_t Pos = 0;
  while (true) {
    size_t Hit = Text.find(From, Pos);
    if (Hit == std::string::npos)
      break;
    size_t After = Hit + From.size();
    bool Whole = (Hit == 0 || !isIdent(Text[Hit - 1])) &&
                 (After >= Text.size() || !isIdent(Text[After]));
    Out.append(Text, Pos, Hit - Pos);
    Out += Whole ? To : From;
    Pos = After;
  }
  Out.append(Text, Pos, std::string::npos);
  return Out;
}

bool pb::replaceOnce(std::string &Text, const std::string &From,
                     const std::string &To) {
  size_t Hit = Text.find(From);
  if (Hit == std::string::npos || Text.find(From, Hit + 1) != std::string::npos)
    return false;
  Text.replace(Hit, From.size(), To);
  return true;
}

std::vector<std::string> pb::definedFunctions(const std::string &Source) {
  std::vector<std::string> Names;
  size_t LineStart = 0;
  while (LineStart < Source.size()) {
    size_t End = Source.find('\n', LineStart);
    if (End == std::string::npos)
      End = Source.size();
    std::string Line = Source.substr(LineStart, End - LineStart);
    for (const char *Ty : {"int ", "double ", "void "}) {
      std::string T = Ty;
      if (Line.compare(0, T.size(), T) != 0)
        continue;
      size_t NameEnd = T.size();
      while (NameEnd < Line.size() && isIdent(Line[NameEnd]))
        ++NameEnd;
      if (NameEnd > T.size() && NameEnd < Line.size() && Line[NameEnd] == '(')
        Names.push_back(Line.substr(T.size(), NameEnd - T.size()));
    }
    LineStart = End + 1;
  }
  return Names;
}

std::string pb::renameFunctions(const std::string &Source,
                                const std::string &Suffix) {
  std::string Out = Source;
  for (const std::string &F : definedFunctions(Source))
    Out = replaceWord(Out, F, F + "_" + Suffix);
  return Out;
}

// --- Tracing ---------------------------------------------------------------

namespace {
thread_local std::vector<int> OpenSpans;
thread_local uint32_t CurrentOp = 0;

uint32_t threadId() {
  static std::mutex Mu;
  static std::map<std::thread::id, uint32_t> Ids;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Ids.find(std::this_thread::get_id());
  if (It != Ids.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Ids.size());
  Ids[std::this_thread::get_id()] = Id;
  return Id;
}
} // namespace

Tracer &pb::tracer() {
  static Tracer T;
  return T;
}

void Tracer::setOp(uint32_t Op) { CurrentOp = Op; }

int Tracer::begin(std::string Name) {
  thread_local uint32_t Tid = threadId();
  SpanRec R;
  R.Name = std::move(Name);
  R.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  R.Op = CurrentOp;
  R.Tid = Tid;
  int Idx;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Idx = static_cast<int>(Spans.size());
    R.StartNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
            .count());
    Spans.push_back(std::move(R));
  }
  OpenSpans.push_back(Idx);
  return Idx;
}

void Tracer::end(int Idx) {
  uint64_t Now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
          .count());
  OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[Idx].EndNs = Now;
}

void Tracer::count(const std::string &Key, double V) {
  std::lock_guard<std::mutex> Lock(Mu);
  Counts[Key] += V;
}

double Tracer::counter(const std::string &Key) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counts.find(Key);
  return It == Counts.end() ? 0.0 : It->second;
}

std::map<std::string, double>
Tracer::selfMs(const std::function<bool(uint32_t)> &Pick) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<double> ChildNs(Spans.size(), 0.0);
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += static_cast<double>(S.EndNs - S.StartNs);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Pick(Spans[I].Op))
      Out[Spans[I].Name] +=
          (static_cast<double>(Spans[I].EndNs - Spans[I].StartNs) -
           ChildNs[I]) /
          1e6;
  return Out;
}

std::vector<double> Tracer::durations(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<double> Out;
  for (const SpanRec &S : Spans)
    if (S.Name == Name)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs) / 1e6);
  return Out;
}

bool Tracer::write(const std::string &Path, const std::string &Meta) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  OS << "{\"metadata\": " << Meta << ",\n\"traceEvents\": [\n";
  char Buf[160];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"op\": %u, \"parent\": %d}}",
                  S.Tid, S.StartNs / 1e3, (S.EndNs - S.StartNs) / 1e3, S.Op,
                  S.Parent);
    OS << "{\"name\": \"" << S.Name << "\", " << Buf
       << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  OS << "]}\n";
  return static_cast<bool>(OS);
}

// --- Results ---------------------------------------------------------------

void pb::noteCheck(RunOutcome &Out, const std::string &Why, const char *What) {
  ++Out.Attempted;
  if (Why.empty())
    return;
  if (++Out.Failed <= 5)
    std::fprintf(stderr, "perfbench: %s failed its check: %s\n", What,
                 Why.c_str());
}

double pb::peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

double pb::layerMs(const std::string &SpanName, unsigned TracedOps) {
  std::map<std::string, double> InOps =
      tracer().selfMs([](uint32_t Op) { return Op >= 1; });
  auto It = InOps.find(SpanName);
  if (It != InOps.end() && TracedOps > 0)
    return It->second / TracedOps;
  std::map<std::string, double> InSetup =
      tracer().selfMs([](uint32_t Op) { return Op == 0; });
  It = InSetup.find(SpanName);
  return It == InSetup.end() ? 0.0 : It->second;
}
