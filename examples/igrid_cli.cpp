// igrid_cli — command-line front end to the IntelliGrid library.
//
//   igrid_cli validate <workflow.txt>        check a Section 2 workflow text
//   igrid_cli lower <workflow.txt>           print the activity/transition graph
//   igrid_cli plan [seed]                    GP-plan the virolab case
//   igrid_cli simulate <workflow.txt>        dry-run fitness vs the virolab case
//   igrid_cli enact <workflow.txt> [seed]    execute on the simulated grid
//   igrid_cli engine [cases] [shards] [--data-dir <dir>]  sharded enactment demo;
//     with --data-dir the engine journals durably and recovers on restart
//   igrid_cli chaos [seed] [drop%] [cases] [--data-dir <dir>] [--wire]
//     enact under message fault injection; --wire routes every message
//     through the binary codec so chaos drops real frames
//   igrid_cli metrics [cases] [shards]       engine workload -> Prometheus text
//   igrid_cli trace <workflow.txt|demo> [--out file]  enact -> Chrome trace JSON
//   igrid_cli store <dir> [--populate N] [--compact]  inspect a durable data dir
//   igrid_cli wire [messages]                binary ACL encoding: bytes, interning, decode
//   igrid_cli demo                           plan + enact the paper's case study
//
// Workflow files contain the concrete syntax, e.g.
//   BEGIN, POD; P3DR1=P3DR; {ITERATIVE {COND R.Value > 8}
//     {POR; {FORK {P3DR2=P3DR} {P3DR3=P3DR} {P3DR4=P3DR} JOIN}; PSF}}, END
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "engine/engine.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "planner/convert.hpp"
#include "planner/evaluate.hpp"
#include "planner/gp.hpp"
#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "store/storage_engine.hpp"
#include "util/strings.hpp"
#include "wire/channel.hpp"
#include "wire/codec.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/structure.hpp"
#include "wfl/validate.hpp"
#include "wfl/xml_io.hpp"

using namespace ig;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: igrid_cli <validate|lower|plan|simulate|enact|engine|metrics|trace|demo>"
               " [args]\n"
               "  validate <workflow.txt>      parse + structural validation\n"
               "  lower    <workflow.txt>      print the lowered graph\n"
               "  plan     [seed]              GP-plan the virolab case\n"
               "  simulate <workflow.txt>      dry-run fitness for the virolab case\n"
               "  enact    <workflow.txt> [seed]  run on the simulated grid\n"
               "  engine   [cases] [shards] [--data-dir <dir>]  sharded multi-case "
               "enactment demo\n"
               "  chaos    [seed] [drop%%] [cases] [--data-dir <dir>] [--wire]  enact "
               "under message fault injection\n"
               "  metrics  [cases] [shards]    engine workload, Prometheus text on stdout\n"
               "  trace    <workflow.txt|demo> [--out file]  enacted spans as Chrome trace\n"
               "  store    <dir> [--populate N] [--compact]  inspect a durable data dir\n"
               "  wire     [messages]          binary ACL encoding: bytes, interning, decode\n"
               "  demo                         plan + enact the paper's case study\n");
  return 2;
}

/// Preflight for every durable command: a data dir the store cannot
/// possibly use (uncreatable or unwritable) fails fast with exit 1 and one
/// stderr line, instead of a stack trace from deep inside the engine.
bool data_dir_usable(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: data dir '%s' is unusable: %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  if (::access(dir.c_str(), W_OK | X_OK) != 0) {
    std::fprintf(stderr, "error: data dir '%s' is not writable: %s\n", dir.c_str(),
                 std::strerror(errno));
    return false;
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

wfl::ProcessDescription load_process(const std::string& path) {
  const std::string text = read_file(path);
  // Accept either the concrete workflow syntax or a <process> XML document.
  if (text.find("<process") != std::string::npos)
    return wfl::process_from_xml_string(text);
  return wfl::lower_to_process(wfl::parse_flow(text), path);
}

int cmd_validate(const std::string& path) {
  const wfl::ProcessDescription process = load_process(path);
  const auto errors = wfl::validate(process);
  std::printf("%s: %zu activities (%zu end-user), %zu transitions\n", path.c_str(),
              process.activity_count(), process.end_user_activity_count(),
              process.transition_count());
  if (errors.empty()) {
    std::printf("valid\n");
    return 0;
  }
  std::printf("INVALID:\n%s", wfl::to_string(errors).c_str());
  return 1;
}

int cmd_lower(const std::string& path) {
  const wfl::ProcessDescription process = load_process(path);
  std::printf("%s", process.to_display_string().c_str());
  std::printf("\nworkflow text: %s\n", wfl::lift_from_process(process).to_text().c_str());
  return 0;
}

int cmd_plan(std::uint64_t seed) {
  planner::PlanningProblem problem = planner::PlanningProblem::from_case(
      virolab::make_case_description(), virolab::make_catalogue());
  planner::GpConfig config;
  config.seed = seed;
  const planner::GpResult result = planner::run_gp(problem, config);
  std::printf("fitness %.4f  (fv %.2f, fg %.2f, size %zu) after %zu evaluations\n",
              result.best_fitness.overall, result.best_fitness.validity,
              result.best_fitness.goal, result.best_fitness.size, result.evaluations);
  std::printf("%s\n", planner::to_flow_expr(result.best_plan).to_text().c_str());
  std::printf("%s", result.best_plan.to_tree_string().c_str());
  return result.best_fitness.goal >= 1.0 ? 0 : 1;
}

int cmd_simulate(const std::string& path) {
  const wfl::ProcessDescription process = load_process(path);
  const planner::PlanNode plan = planner::from_process(process);
  planner::PlanningProblem problem = planner::PlanningProblem::from_case(
      virolab::make_case_description(), virolab::make_catalogue());
  planner::PlanEvaluator evaluator(problem);
  const planner::Fitness fitness = evaluator.evaluate(plan);
  std::printf("f=%.4f fv=%.4f fg=%.4f fr=%.4f size=%zu flows=%zu%s\n", fitness.overall,
              fitness.validity, fitness.goal, fitness.representation, fitness.size,
              fitness.flows, fitness.flows_truncated ? " (truncated)" : "");
  return 0;
}

class CliUser : public agent::Agent {
 public:
  CliUser(std::string name, wfl::ProcessDescription process)
      : Agent(std::move(name)), process_(std::move(process)) {}
  void on_start() override {
    agent::AclMessage request;
    request.performative = agent::Performative::Request;
    request.receiver = svc::names::kCoordination;
    request.protocol = svc::protocols::kEnactCase;
    request.content = wfl::process_to_xml_string(process_);
    request.params["case-xml"] = wfl::case_to_xml_string(virolab::make_case_description());
    send(std::move(request));
  }
  void handle_message(const agent::AclMessage& message) override {
    if (message.protocol == svc::protocols::kCaseCompleted) outcome = message;
  }
  wfl::ProcessDescription process_;
  agent::AclMessage outcome;
};

int cmd_enact(const std::string& path, std::uint64_t seed) {
  svc::EnvironmentOptions options;
  options.seed = seed;
  auto environment = svc::make_environment(options);
  auto& user = environment->platform().spawn<CliUser>("cli", load_process(path));
  environment->run();
  std::printf("success=%s makespan=%s activities=%s failures=%s replans=%s\n",
              user.outcome.param("success").c_str(), user.outcome.param("makespan").c_str(),
              user.outcome.param("activities-executed").c_str(),
              user.outcome.param("dispatch-failures").c_str(),
              user.outcome.param("replans").c_str());
  if (user.outcome.param("success") != "true") {
    std::printf("error: %s\n", user.outcome.param("error").c_str());
    return 1;
  }
  return 0;
}

/// A case with no outcome to show (e.g. Evicted past the retention
/// horizon) still gets its line, with its state.
void print_outcomeless_case(const engine::EnactmentEngine& engine, engine::CaseId id) {
  std::printf("  case %llu: %s\n", static_cast<unsigned long long>(id),
              std::string(engine::to_string(engine.status(id))).c_str());
}

int cmd_engine(std::size_t cases, std::size_t shards, const std::string& data_dir) {
  if (!data_dir.empty() && !data_dir_usable(data_dir)) return 1;
  engine::EngineConfig config;
  config.shards = shards;
  config.queue_capacity = cases + 4;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 3;
  config.storage.data_dir = data_dir;  // empty = in-memory (historical default)
  engine::EnactmentEngine engine(config);

  if (!data_dir.empty())
    std::printf("durable engine at '%s': %zu case(s) recovered from the journal\n",
                data_dir.c_str(), engine.metrics().recovered);
  std::printf("submitting %zu fig10 cases across %zu shard(s)...\n", cases, shards);
  std::vector<engine::CaseId> ids;
  for (std::size_t i = 0; i < cases; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i % 2);
    const engine::CaseId id = engine.submit(virolab::make_fig10_process(),
                                            virolab::make_case_description(), tenant);
    if (id == engine::kInvalidCase) {
      std::printf("  case %zu rejected (queue full)\n", i + 1);
      continue;
    }
    ids.push_back(id);
  }
  engine.drain();

  for (const engine::CaseId id : ids) {
    const auto outcome = engine.result(id);
    if (!outcome.has_value()) {
      print_outcomeless_case(engine, id);
      continue;
    }
    std::printf("  case %llu: %s on shard %zu, makespan %.1f, %d activities%s%s\n",
                static_cast<unsigned long long>(id),
                std::string(engine::to_string(outcome->state)).c_str(), outcome->shard,
                outcome->makespan, outcome->activities_executed,
                outcome->engine_retries > 0 ? ", retried" : "",
                outcome->error.empty() ? "" : (", error: " + outcome->error).c_str());
  }

  const engine::EngineMetrics metrics = engine.metrics();
  std::printf("engine: %zu submitted, %zu recovered, %zu completed, %zu failed, "
              "%zu retried, p50 latency %.3fs; %zu outcomes retained, %zu evicted\n",
              metrics.submitted, metrics.recovered, metrics.completed, metrics.failed,
              metrics.retried, metrics.latency_p50, metrics.cases_retained,
              metrics.cases_evicted);
  for (std::size_t i = 0; i < metrics.shards.size(); ++i)
    std::printf("  shard %zu: %zu run, %zu completed, utilization %.0f%%\n", i,
                metrics.shards[i].cases_run, metrics.shards[i].cases_completed,
                metrics.shards[i].utilization * 100.0);
  return metrics.completed == metrics.submitted ? 0 : 1;
}

int cmd_chaos(std::uint64_t seed, std::uint64_t drop_percent, std::size_t cases,
              const std::string& data_dir, bool wire) {
  if (!data_dir.empty() && !data_dir_usable(data_dir)) return 1;
  const double drop = static_cast<double>(drop_percent) / 100.0;
  engine::EngineConfig config;
  config.shards = 1;  // one shard keeps the chaotic run bit-reproducible
  config.queue_capacity = cases + 4;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 3;
  config.environment.heartbeat_period = 5.0;
  config.environment.wire_transport = wire;
  config.storage.data_dir = data_dir;
  // Tighten the request layer so dropped dispatches re-send within a
  // makespan (the defaults assume an honest transport).
  config.environment.coordination.exec_policy = {300.0, 3, 0.5, 10.0};
  config.environment.coordination.replan_policy = {300.0, 2, 0.5, 10.0};
  agent::ChaosRule rule;
  rule.match.receiver = "ac-*";  // everything bound for a container
  rule.drop = drop;
  rule.delay = drop / 2.0;
  config.environment.chaos.rules.push_back(rule);
  config.environment.chaos.seed = seed;
  engine::EnactmentEngine engine(config);

  if (!data_dir.empty())
    std::printf("durable chaos run at '%s': %zu case(s) recovered from the journal\n",
                data_dir.c_str(), engine.metrics().recovered);
  std::printf("enacting %zu fig10 cases, dropping %llu%% of container-bound "
              "messages (seed %llu)%s...\n",
              cases, static_cast<unsigned long long>(drop_percent),
              static_cast<unsigned long long>(seed),
              wire ? ", frames crossing the binary wire codec" : "");
  std::vector<engine::CaseId> ids;
  for (std::size_t i = 0; i < cases; ++i) {
    const double resolution = 8.0 - 0.04 * static_cast<double>(i);
    ids.push_back(engine.submit(virolab::make_fig10_process(resolution),
                                virolab::make_case_description(resolution)));
  }
  engine.drain();

  for (const engine::CaseId id : ids) {
    const auto outcome = engine.result(id);
    if (!outcome.has_value()) {
      print_outcomeless_case(engine, id);
      continue;
    }
    std::printf("  case %llu: %s, makespan %.1f%s%s\n",
                static_cast<unsigned long long>(id),
                std::string(engine::to_string(outcome->state)).c_str(), outcome->makespan,
                outcome->engine_retries > 0 ? ", retried" : "",
                outcome->error.empty() ? "" : (", error: " + outcome->error).c_str());
  }

  const engine::EngineMetrics metrics = engine.metrics();
  const double recovery =
      cases > 0 ? static_cast<double>(metrics.completed) / static_cast<double>(cases) : 0.0;
  std::printf("chaos: %zu faults injected, %zu request retries, %zu dead letters, "
              "%zu containers recovered\n",
              metrics.faults_injected, metrics.request_retries, metrics.dead_letters,
              metrics.containers_recovered);
  if (wire) {
    // The shard's wire link counts in the engine's registry as frames cross
    // it, so these reads are current without any refresh.
    const obs::Labels shard0 = {{"shard", "0"}};
    std::printf("wire: %llu frames (%llu bytes), %llu intern hits, %llu decode errors\n",
                static_cast<unsigned long long>(
                    engine.registry().counter("wire_frames_total", shard0).value()),
                static_cast<unsigned long long>(
                    engine.registry().counter("wire_bytes_total", shard0).value()),
                static_cast<unsigned long long>(
                    engine.registry().counter("wire_intern_hits_total", shard0).value()),
                static_cast<unsigned long long>(
                    engine.registry().counter("wire_decode_errors_total", shard0).value()));
  }
  std::printf("recovery: %zu/%zu cases completed (%.0f%%)\n", metrics.completed, cases,
              recovery * 100.0);
  return recovery >= 0.95 ? 0 : 1;
}

int cmd_metrics(std::size_t cases, std::size_t shards) {
  engine::EngineConfig config;
  config.shards = shards;
  config.queue_capacity = cases + 4;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 3;
  engine::EnactmentEngine engine(config);

  for (std::size_t i = 0; i < cases; ++i)
    engine.submit(virolab::make_fig10_process(), virolab::make_case_description(),
                  "tenant-" + std::to_string(i % 2));
  engine.drain();

  // Every component counts in the engine's registry as it goes, so this
  // scrape is current. Only the state gauges (queue depths, running cases,
  // uptime) wait for a metrics() call, which this command does not make.
  const std::string exposition = obs::to_prometheus(engine.registry().snapshot());
  std::string problem;
  if (!obs::validate_prometheus(exposition, &problem)) {
    std::fprintf(stderr, "error: exposition failed validation: %s\n", problem.c_str());
    return 1;
  }
  std::fputs(exposition.c_str(), stdout);
  return 0;
}

int cmd_trace(const std::string& source, const std::string& out_path) {
  svc::EnvironmentOptions options;
  options.span_tracing = true;
  auto environment = svc::make_environment(options);
  const wfl::ProcessDescription process =
      source == "demo" ? virolab::make_fig10_process() : load_process(source);
  auto& user = environment->platform().spawn<CliUser>("cli", process);
  environment->run();
  if (user.outcome.param("success") != "true") {
    std::fprintf(stderr, "error: enactment failed: %s\n",
                 user.outcome.param("error").c_str());
    return 1;
  }

  const std::vector<obs::Span> spans = environment->tracer().spans();
  const std::string trace = obs::to_chrome_trace(spans);
  std::string problem;
  if (!obs::validate_json(trace, &problem)) {
    std::fprintf(stderr, "error: trace is not valid JSON: %s\n", problem.c_str());
    return 1;
  }
  // Every end-user activity the workflow declares must have been traced at
  // least once (loops legitimately trace the same activity several times).
  for (const wfl::Activity& activity : process.activities()) {
    if (activity.kind != wfl::ActivityKind::EndUser) continue;
    bool traced = false;
    for (const obs::Span& span : spans) {
      if (span.kind == obs::SpanKind::Activity && span.name == activity.name) {
        traced = true;
        break;
      }
    }
    if (!traced) {
      std::fprintf(stderr, "error: activity '%s' produced no span\n",
                   activity.name.c_str());
      return 1;
    }
  }

  if (out_path.empty()) {
    std::fputs(trace.c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
      return 1;
    }
    out << trace << '\n';
  }
  std::fprintf(stderr, "%zu spans, trace valid%s%s\n", spans.size(),
               out_path.empty() ? "" : ", written to ", out_path.c_str());
  return 0;
}

int cmd_store(const std::string& dir, std::uint64_t populate, bool compact) {
  if (!data_dir_usable(dir)) return 1;
  store::Options options;
  options.data_dir = dir;
  options.segment_size = 64 * 1024;  // small segments so demos roll over
  if (populate > 0) {
    // Write a recognisable workload (puts, a few erases, journal events),
    // then close so the inspection below exercises a genuine recovery.
    store::StorageEngine writer(options);
    for (std::uint64_t i = 0; i < populate; ++i) {
      const std::string key = "demo/key-" + std::to_string(i);
      writer.put(key, "value-" + std::to_string(i));
      writer.append_event("demo", "event-" + std::to_string(i));
    }
    for (std::uint64_t i = 0; i < populate; i += 4)
      writer.erase("demo/key-" + std::to_string(i));
    writer.commit();
    std::printf("populated '%s' with %llu puts + events (every 4th key erased)\n",
                dir.c_str(), static_cast<unsigned long long>(populate));
  }

  std::size_t replayed_events = 0;
  store::StorageEngine engine(options, [&](std::string_view, std::string_view) {
    ++replayed_events;
  });
  store::StoreStats stats = engine.stats();
  if (!stats.durable) {
    std::fprintf(stderr, "error: '%s' did not open in durable mode\n", dir.c_str());
    return 1;
  }
  std::printf("store '%s'\n", dir.c_str());
  std::printf("  keys               %llu\n", static_cast<unsigned long long>(stats.keys));
  std::printf("  wal segments       %llu\n", static_cast<unsigned long long>(stats.segments));
  std::printf("  wal records        %llu (%llu bytes)\n",
              static_cast<unsigned long long>(stats.wal.records),
              static_cast<unsigned long long>(stats.wal.bytes));
  std::printf("  last lsn           %llu\n", static_cast<unsigned long long>(stats.last_lsn));
  std::printf("  last snapshot lsn  %llu\n",
              static_cast<unsigned long long>(stats.snapshot_lsn));
  std::printf("  replayed records   %llu (%zu journal events)\n",
              static_cast<unsigned long long>(stats.replayed_records), replayed_events);
  std::printf("  torn tail repaired %llu\n",
              static_cast<unsigned long long>(stats.wal.torn_tail_repaired));
  std::printf("  recovery           %.2f ms\n", stats.recovery_ms);

  if (compact) {
    if (!engine.snapshot()) {
      std::fprintf(stderr, "error: snapshot failed\n");
      return 1;
    }
    stats = engine.stats();
    std::printf("compacted: %llu segment(s) removed, %llu live, snapshot lsn %llu\n",
                static_cast<unsigned long long>(stats.segments_compacted),
                static_cast<unsigned long long>(stats.segments),
                static_cast<unsigned long long>(stats.snapshot_lsn));
  }

  const auto keys = engine.keys_with_prefix("");
  const std::size_t shown = keys.size() < 8 ? keys.size() : 8;
  for (std::size_t i = 0; i < shown; ++i)
    std::printf("  key[%zu] %s\n", i, keys[i].c_str());
  if (keys.size() > shown) std::printf("  ... %zu more\n", keys.size() - shown);
  return 0;
}

int cmd_wire(std::size_t messages) {
  // The binary ACL encoding of a representative exchange: the codec sends
  // the protocol vocabulary once and ids after.
  wire::Encoder encoder;
  std::string frames;
  agent::AclMessage message;
  message.performative = agent::Performative::Request;
  message.sender = "coordination";
  message.receiver = "ac-3";
  message.protocol = svc::protocols::kEnactCase;
  message.ontology = "grid-standard";
  for (std::size_t i = 0; i < messages; ++i) {
    message.conversation_id = "case-" + std::to_string(i);
    message.params["activity"] = "mc-gen-" + std::to_string(i);
    message.params["deadline"] = "12.5";
    encoder.encode(message, frames);
  }
  wire::Stream stream;
  stream.feed_bytes(frames);
  const std::size_t delivered = stream.receive([](const wire::WireMessageView&) {});
  const wire::EncoderStats stats = encoder.stats();
  std::printf("%zu messages: binary %llu bytes (%.1f/msg)\n", messages,
              static_cast<unsigned long long>(stats.frame_bytes),
              static_cast<double>(stats.frame_bytes) / static_cast<double>(messages));
  std::printf("intern table: %zu entries, %llu hits, %llu definitions\n",
              encoder.intern_size(), static_cast<unsigned long long>(stats.intern_hits),
              static_cast<unsigned long long>(stats.intern_misses));
  std::printf("decoded %zu/%zu frames, %llu errors\n", delivered, messages,
              static_cast<unsigned long long>(stream.decode_errors()));
  return delivered == messages ? 0 : 1;
}

int cmd_demo() {
  std::printf("== planning the 3DSD case (Table 1 parameters) ==\n");
  if (cmd_plan(2004) != 0) return 1;
  std::printf("\n== enacting the paper's Figure 10 workflow ==\n");
  svc::EnvironmentOptions options;
  auto environment = svc::make_environment(options);
  auto& user =
      environment->platform().spawn<CliUser>("cli", virolab::make_fig10_process());
  environment->run();
  std::printf("success=%s makespan=%s activities=%s\n",
              user.outcome.param("success").c_str(), user.outcome.param("makespan").c_str(),
              user.outcome.param("activities-executed").c_str());
  return user.outcome.param("success") == "true" ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // Numeric arguments parse strictly; a typo reports its position instead of
  // aborting on an uncaught std::invalid_argument.
  const auto uint_arg = [&](int index, std::uint64_t fallback) {
    if (argc <= index) return fallback;
    const auto value = ig::util::parse_uint(argv[index]);
    if (!value.has_value()) {
      std::fprintf(stderr, "error: argument %d ('%s') is not a non-negative integer\n", index,
                   argv[index]);
      std::exit(1);
    }
    return *value;
  };
  try {
    if (command == "validate" && argc >= 3) return cmd_validate(argv[2]);
    if (command == "lower" && argc >= 3) return cmd_lower(argv[2]);
    if (command == "plan") return cmd_plan(uint_arg(2, 1));
    if (command == "simulate" && argc >= 3) return cmd_simulate(argv[2]);
    if (command == "enact" && argc >= 3) return cmd_enact(argv[2], uint_arg(3, 42));
    // engine/chaos mix positional numbers with flags: strip the flags first,
    // then bind the remaining positionals in order.
    if (command == "engine" || command == "chaos") {
      std::string data_dir;
      bool wire = false;
      std::vector<std::uint64_t> positional;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--data-dir" && i + 1 < argc) {
          data_dir = argv[++i];
          continue;
        }
        if (arg == "--wire") {
          wire = true;
          continue;
        }
        const auto value = ig::util::parse_uint(arg);
        if (!value.has_value()) {
          std::fprintf(stderr, "error: argument %d ('%s') is not a non-negative integer\n",
                       i, arg.c_str());
          return 1;
        }
        positional.push_back(*value);
      }
      const auto pos = [&](std::size_t index, std::uint64_t fallback) {
        return index < positional.size() ? positional[index] : fallback;
      };
      if (command == "engine")
        return cmd_engine(pos(0, 6), pos(1, 2), data_dir);
      return cmd_chaos(pos(0, 2004), pos(1, 20), pos(2, 4), data_dir, wire);
    }
    if (command == "metrics") return cmd_metrics(uint_arg(2, 4), uint_arg(3, 2));
    if (command == "trace" && argc >= 3) {
      std::string out_path;
      for (int i = 3; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
      return cmd_trace(argv[2], out_path);
    }
    if (command == "store" && argc >= 3) {
      std::uint64_t populate = 0;
      bool compact = false;
      for (int i = 3; i < argc; ++i) {
        if (std::string(argv[i]) == "--compact") compact = true;
        if (std::string(argv[i]) == "--populate" && i + 1 < argc)
          populate = uint_arg(i + 1, 0);
      }
      return cmd_store(argv[2], populate, compact);
    }
    if (command == "wire") return cmd_wire(uint_arg(2, 1000));
    if (command == "demo") return cmd_demo();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return usage();
}
