//===- Serve.cpp - Workload `serve`: the daemon warm path -----------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The only workload that exercises the service protocol and the api
/// warm path. Set-up starts an in-process service::Daemon on a
/// CobaltService and warms it with one full-suite check frame. Then four
/// service::Client connections run a closed loop for the run's duration:
///
///   op A  check frames (98%): the full suite (one in four) or one random
///         definition, served from the memo/verdict cache — reads;
///   op B  run frames (2%): a ~70-statement generated program, optimized
///         uncached — engine work on the service's two-job pool.
///
/// The one-in-four share of full-suite checks is bench/bench_service's
/// mix (60% single-definition, 20% full-suite checks) without its ping
/// and stats frames. The 2% share of run frames is a choice, not a
/// measured traffic mix: it stands for clients that mostly ask for
/// verdicts and now and then optimize a program.
///
/// Mixing the two means a change that speeds up reads but queues them
/// behind runs shows in the check-frame tail. Every response must equal
/// the first response to the same request.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "api/ReportJson.h"
#include "ir/Generator.h"
#include "ir/Printer.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Protocol.h"

#include <filesystem>
#include <map>
#include <random>
#include <thread>
#include <unistd.h>

using namespace cobalt;

namespace perfbench {
namespace {

constexpr unsigned Clients = 4;
constexpr unsigned RunFrameEvery = 50; ///< Of each client's frames: 2%.
/// Of the check frames: bench_service's 20 full-suite to 60
/// single-definition checks.
constexpr unsigned FullSuitePercent = 25;
constexpr unsigned RunPrograms = 8;
/// Generator seed of the run-frame programs; --seed sets each client's
/// frame schedule.
constexpr uint64_t CorpusSeed = 2003;

/// One distinct request: its payload and what the service does for it.
struct Frame {
  std::string Payload;
  bool Run = false;
  std::vector<std::string> Only; ///< Check frames: definitions asked for.
  std::string Program;           ///< Run frames: program text.
  unsigned Statements = 0;
};

struct ServeSetup {
  std::shared_ptr<api::CobaltService> Svc;
  std::unique_ptr<service::Daemon> Daemon;
  std::vector<Frame> Frames; ///< Check frames first, then run frames.
  size_t NumCheck = 0;
};

std::vector<Frame> makeFrames(const api::CobaltService &Svc,
                              size_t &NumCheck) {
  std::vector<Frame> Frames;
  Frames.push_back({service::makeCheckRequest({}), false, {}, {}, 0});
  for (const PureAnalysis &A : Svc.analyses())
    Frames.push_back({service::makeCheckRequest({A.Name}), false, {A.Name}, {}, 0});
  for (const Optimization &O : Svc.optimizations())
    Frames.push_back({service::makeCheckRequest({O.Name}), false, {O.Name}, {}, 0});
  NumCheck = Frames.size();
  std::mt19937_64 Rng(CorpusSeed);
  while (Frames.size() < NumCheck + RunPrograms) {
    ir::GenOptions G;
    G.NumStmts = 10 + static_cast<unsigned>(Rng() % 8);
    ir::Program P = ir::generateProgram(G, Rng());
    unsigned N = statementCount(P);
    if (N < 60 || N > 80)
      continue;
    Frame F;
    F.Run = true;
    F.Program = ir::toString(P);
    F.Statements = N;
    F.Payload = service::makeRunRequest(F.Program, {}, false);
    Frames.push_back(std::move(F));
  }
  return Frames;
}

/// Picks frame \p N of one client's seeded schedule. Run frames come at
/// a fixed stride (offset per client) rather than by coin flip: their
/// cost dominates a client's time, so a random share would make the
/// frame rate swing with the draw.
const Frame &nextFrame(const ServeSetup &S, std::mt19937_64 &Rng, uint64_t N,
                       unsigned Client) {
  if ((N + Client * RunFrameEvery / Clients) % RunFrameEvery ==
      RunFrameEvery - 1)
    return S.Frames[S.NumCheck + Rng() % (S.Frames.size() - S.NumCheck)];
  if (Rng() % 100 < FullSuitePercent)
    return S.Frames[0];
  return S.Frames[1 + Rng() % (S.NumCheck - 1)];
}

std::string socketPath(int I) {
  return ".bench_out/serve-" + std::to_string(::getpid()) + "-" +
         std::to_string(I) + ".sock";
}

ServeSetup setUp(int Index, Result &R) {
  ServeSetup S;
  R.Values["core.parse_cobalt_s"] = parseStdlib();
  S.Svc = buildService(baseConfig());
  S.Frames = makeFrames(*S.Svc, S.NumCheck);
  std::filesystem::create_directories(".bench_out");
  S.Daemon = std::make_unique<service::Daemon>(S.Svc, socketPath(Index));
  if (support::Error E = S.Daemon->start(); E.failed())
    fatal("daemon did not start: " + E.Message);
  service::Client C;
  if (support::Error E = C.connect(S.Daemon->socketPath()); E.failed())
    fatal("cannot connect to the daemon: " + E.Message);
  support::Expected<std::string> Warm = C.request(S.Frames[0].Payload);
  std::optional<service::JsonValue> Doc =
      Warm ? service::parseJson(*Warm) : std::nullopt;
  const service::JsonValue *Exit = Doc ? Doc->find("exit") : nullptr;
  if (!Exit || Exit->asI64(-1) != 0)
    fatal("warm-up check of the suite did not prove it sound");
  return S;
}

/// First response seen for each distinct request; later responses must
/// equal it byte for byte.
class ResponseLedger {
public:
  explicit ResponseLedger(size_t N) : First(N) {}
  bool matches(size_t Frame, const std::string &Response) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!First[Frame]) {
      std::optional<service::JsonValue> Doc = service::parseJson(Response);
      const service::JsonValue *Status = Doc ? Doc->find("status") : nullptr;
      if (!Status || Status->asString() != "ok")
        return false;
      First[Frame] = Response;
    }
    return *First[Frame] == Response;
  }

private:
  std::mutex Mutex;
  std::vector<std::optional<std::string>> First;
};

unsigned definitionsAsked(const ServeSetup &S, const Frame &F) {
  return F.Only.empty() ? static_cast<unsigned>(S.Svc->definitionCount())
                        : static_cast<unsigned>(F.Only.size());
}

void tracedServe(const ServeSetup &S, const Options &Opts,
                 support::Telemetry &Tel, Result &R) {
  // One client sends the same seeded frame sequence untraced, then
  // traced: sequential frames keep each span attributable.
  std::mt19937_64 Rng(Opts.Seed);
  std::vector<size_t> Seq;
  for (uint64_t I = 0; I < 3000; ++I)
    Seq.push_back(
        static_cast<size_t>(&nextFrame(S, Rng, I, 0) - S.Frames.data()));
  service::Client C;
  if (support::Error E = C.connect(S.Daemon->socketPath()); E.failed())
    fatal("cannot connect to the daemon: " + E.Message);
  ResponseLedger Ledger(S.Frames.size());
  Samples CheckUs; ///< Client-side check-frame latency, traced pass.
  auto Send = [&](bool Traced) {
    std::vector<std::string> Responses;
    for (size_t F : Seq) {
      support::TraceIdScope Id(support::mintTraceId());
      support::Expected<std::string> Resp = std::string();
      double Us = 1e6 * timed("op.frame", [&] {
        support::TraceSpan Call("bench", "service.request");
        Resp = C.request(S.Frames[F].Payload);
      });
      if (Traced && !S.Frames[F].Run)
        CheckUs.add(Us);
      ++R.Attempted;
      if (!Resp || !Ledger.matches(F, *Resp)) {
        ++R.Failed;
        continue;
      }
      Responses.push_back(Resp.take());
    }
    return Responses;
  };

  auto Start = Clock::now();
  Send(false);
  double Untraced = secondsSince(Start);
  support::TelemetryScope On(&Tel);
  unsigned HitsBefore = S.Svc->cacheHits();
  Start = Clock::now();
  std::vector<std::string> Responses = Send(true);
  double Traced = secondsSince(Start);
  unsigned Hits = S.Svc->cacheHits() - HitsBefore;
  double Asked = 0;
  for (size_t F : Seq)
    if (!S.Frames[F].Run)
      Asked += definitionsAsked(S, S.Frames[F]);

  // Client-side parsing of the responses.
  Samples ParseUs;
  double Bytes = 0;
  for (const std::string &Resp : Responses) {
    Bytes += static_cast<double>(Resp.size());
    bool Parsed = false;
    ParseUs.add(1e6 * timed("service.parse_json", [&] {
      Parsed = service::parseJson(Resp).has_value();
    }));
    R.Failed += !Parsed;
  }

  // The check frames of the same sequence, in-process on the warm
  // service, so that the overhead below compares the same mix of
  // requests; each distinct run frame once.
  Samples WarmUs, EmitUs, RunS;
  double ParseS = 0;
  std::string Out;
  for (size_t F : Seq) {
    if (S.Frames[F].Run)
      continue;
    api::CheckRequest CR;
    CR.Only = S.Frames[F].Only;
    api::CheckResponse CResp;
    WarmUs.add(1e6 * timed("api.check", [&] { CResp = S.Svc->check(CR); }));
    Out.clear();
    EmitUs.add(1e6 * timed("api.emit_json", [&] {
      api::emitDefinitionsJson(Out, CResp.Suite.Reports);
    }));
  }
  for (const Frame &F : S.Frames) {
    if (!F.Run)
      continue;
    api::PipelineRequest PR;
    ParseS += timed("ir.parse",
                    [&] { PR.Prog = *S.Svc->parseProgram(F.Program); });
    api::PipelineResponse PResp;
    RunS.add(timed("api.run", [&] { PResp = S.Svc->run(std::move(PR)); }));
    Out.clear();
    EmitUs.add(1e6 * timed("api.emit_json", [&] {
      api::emitPipelineJson(Out, PResp.Result.Reports);
    }));
  }

  R.Values["api.check_warm_us"] = WarmUs.median();
  R.Values["api.run_s"] = RunS.median();
  R.Values["api.emit_json_us"] = EmitUs.median();
  R.Values["service.overhead_us"] = CheckUs.median() - WarmUs.median();
  R.Values["service.parse_json_us"] = ParseUs.median();
  R.Values["service.frame_bytes"] =
      Responses.empty() ? 0 : Bytes / static_cast<double>(Responses.size());
  R.Values["support.cache_hit_ratio"] = Asked > 0 ? Hits / Asked : 0;
  R.Values["ir.parse_s"] = ParseS;
  R.Values["trace.overhead_frac"] = (Traced - Untraced) / Untraced;
}

} // namespace

Result runServe(const Options &Opts, support::Telemetry &Tel) {
  Result R;
  // Set-up includes the warm-up prove (~3 s), so it is repeated only
  // three times; the last daemon is the one measured.
  ServeSetup S = repeatSetUp(3, R, [&](int I) { return setUp(I, R); });
  if (Opts.Trace) {
    tracedServe(S, Opts, Tel, R);
    S.Daemon->stop();
    return R;
  }

  struct ClientStats {
    Samples CheckMs;
    PerInput RunMs;
    uint64_t Frames = 0, Failed = 0;
    double Asked = 0, RunStatements = 0;
  };
  std::vector<ClientStats> Stats(Clients);
  ResponseLedger Ledger(S.Frames.size());
  unsigned HitsBefore = S.Svc->cacheHits();
  auto Start = Clock::now();
  auto Deadline = Start + std::chrono::duration<double>(Opts.Seconds);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      ClientStats &St = Stats[I];
      std::mt19937_64 Rng(Opts.Seed * Clients + I);
      service::Client C;
      if (C.connect(S.Daemon->socketPath()).failed()) {
        ++St.Failed;
        ++St.Frames;
        return;
      }
      for (uint64_t N = 0; Clock::now() < Deadline; ++N) {
        const Frame &F = nextFrame(S, Rng, N, I);
        auto OpStart = Clock::now();
        support::Expected<std::string> Resp = C.request(F.Payload);
        double Ms = secondsSince(OpStart) * 1e3;
        ++St.Frames;
        if (!Resp ||
            !Ledger.matches(static_cast<size_t>(&F - S.Frames.data()), *Resp)) {
          ++St.Failed;
          continue;
        }
        if (F.Run) {
          St.RunMs.add(static_cast<size_t>(&F - S.Frames.data()), Ms);
          St.RunStatements += F.Statements;
        } else {
          St.CheckMs.add(Ms);
          St.Asked += definitionsAsked(S, F);
        }
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  double Wall = secondsSince(Start);
  S.Daemon->stop();

  ClientStats All;
  for (const ClientStats &St : Stats) {
    All.CheckMs.V.insert(All.CheckMs.V.end(), St.CheckMs.V.begin(),
                         St.CheckMs.V.end());
    for (const auto &[Frame, Ms] : St.RunMs.ByInput)
      for (double X : Ms.V)
        All.RunMs.add(Frame, X);
    All.Frames += St.Frames;
    All.Failed += St.Failed;
    All.Asked += St.Asked;
    All.RunStatements += St.RunStatements;
  }
  R.Attempted = All.Frames;
  R.Failed = All.Failed;
  R.Values["op_a_p50_ms"] = All.CheckMs.median();
  setTail(R, All.CheckMs, 0.99, "p99 of the check-frame timings");
  R.Values["op_b_p50_ms"] = All.RunMs.medians().median();
  R.OpASamples = All.CheckMs.size();
  R.OpBSamples = All.RunMs.size();
  R.Values["quality"] =
      All.Asked > 0 ? (S.Svc->cacheHits() - HitsBefore) / All.Asked : 0;
  std::printf("serve: %zu check frames (p50 %.3f ms, p99 %.3f ms), %zu run "
              "frames (%.1f%%, p50 %.1f ms), %.0f frames/s and %.0f run-frame "
              "statements/s from %u clients\n",
              All.CheckMs.size(), All.CheckMs.median(),
              R.Values["op_a_tail_ms"], All.RunMs.size(),
              100.0 * static_cast<double>(All.RunMs.size()) /
                  static_cast<double>(All.Frames),
              R.Values["op_b_p50_ms"], static_cast<double>(All.Frames) / Wall,
              All.RunStatements / Wall, Clients);
  return R;
}

} // namespace perfbench
