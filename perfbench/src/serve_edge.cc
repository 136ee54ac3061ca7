// serve_edge: an in-process Service behind the event-loop Unix-socket
// frontend, driven by this process as the client.
//
// After set-up, the seeded request stream goes to the served Service in a
// closed loop, one request at a time. Each phase sends a fixed number of
// requests, sized at kNominalRps so that it lasts about as long as named
// here; the same seed and --seconds always send the same requests, so the
// pattern table, and with it memory, grows the same on every run:
//   warm-up    kWarmupS through Service::HandleLine, not measured;
//   measured   --seconds through Service::HandleLine, in process;
//   socket     kSocketShare of --seconds over one connection to the
//              listener; with the same checks replayed in process right
//              after, this gives the frontend's cost.
// The end-to-end figures come from the in-process phase: on a shared 4-vCPU
// host the socket round trip's thread wake-ups swung its median by 40%
// between runs, several times the service's own variation.
// Verification follows: every reply ok, every socket check report
// byte-identical to an in-process Service::HandleLine of the same request on
// a fresh service, and the resident dataset's final contracts equal a fresh
// learn over its final corpus.
//
// The traffic mix: checks of 1-8 held-out edge ToR configs with their site
// metadata (about half the configs repeat an earlier variant, so they can hit
// the parse/index caches; the rest carry a fresh edit, a tenth of those a
// never-seen line), a few check_batch requests, and one update in twenty that
// upserts an edited config into a resident dataset persisted in a store_dir.
//
// Requests are kept as compact specs and rendered to JSON just before they
// are sent, and replies are reduced to digests as they arrive, so the
// client's own memory stays small next to the service's.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "src/contracts/contract_io.h"
#include "src/datagen/generator.h"
#include "src/format/json.h"
#include "src/learn/learner.h"
#include "src/service/service.h"
#include "src/service/socket_server.h"
#include "src/store/store.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using concord::GeneratedCorpus;
using concord::JsonValue;

constexpr int kTrainSites = 8;     // Contract set and resident dataset: 32 configs.
constexpr int kHeldOutSites = 16;  // Checked configs: 64 devices.
// Frozen a little below the 480 requests/s the commit that introduced the
// benchmark served on a 4-vCPU machine.
constexpr double kNominalRps = 450;
constexpr double kWarmupS = 1.0;
constexpr double kSocketShare = 0.2;
constexpr int kSetups = 7;
constexpr double kUpdateShare = 0.05;
constexpr double kBatchShare = 0.03;
constexpr double kRepeatShare = 0.5;
constexpr double kNewLineShare = 0.1;

GeneratedCorpus EdgeCorpus(uint64_t seed, int sites) {
  concord::Knobs knobs;
  knobs.Set("role", "tor");
  knobs.Set("sites", std::to_string(sites));
  return concord::GenerateFamily(concord::GeneratorRegistry::Global(), "edge", seed, knobs);
}

// "E2-site7-dev3.cfg" -> "site7"; "site7.meta.json" -> "site7".
std::string SiteOf(const std::string& name) {
  size_t begin = name.find("site");
  size_t end = name.find_first_of("-.", begin);
  return name.substr(begin, end - begin);
}

// One config of a request: a device's text, edited when version > 0. An edit
// suffixes the first interface description (a new content key, same
// patterns) and, with new_line, appends a line no config has carried (a new
// pattern, so the contract set's pattern table grows).
struct Item {
  uint32_t device = 0;
  uint64_t version = 0;
  bool new_line = false;
};

std::string Variant(const concord::GeneratedConfig& base, const Item& item) {
  std::string out = base.text;
  if (item.version == 0) {
    return out;
  }
  size_t pos = out.find("description ");
  if (pos != std::string::npos) {
    size_t eol = out.find('\n', pos);
    out.insert(eol == std::string::npos ? out.size() : eol, "-r" + std::to_string(item.version));
  }
  if (item.new_line) {
    std::string word = "probe";
    for (uint64_t v = item.version; v > 0; v /= 26) {
      word += static_cast<char>('a' + v % 26);
    }
    out += word + " enable\n";
  }
  return out;
}

JsonValue Doc(const std::string& name, const std::string& text) {
  JsonValue doc = JsonValue::Object();
  doc.Set("name", JsonValue::String(name));
  doc.Set("text", JsonValue::String(text));
  return doc;
}

enum class Kind { kCheck, kBatch, kUpdate };

// A request before rendering. A check has one group of held-out items, a
// check_batch one group per sub-request, an update one item of the training
// corpus. `sites` index the held-out metadata documents sent along.
struct Spec {
  Kind kind = Kind::kCheck;
  uint64_t id = 0;
  std::vector<std::vector<Item>> groups;
  std::vector<size_t> sites;
};

// The seeded request stream. Everything the service sees comes from here.
class Traffic {
 public:
  explicit Traffic(uint64_t seed)
      : rng_(seed ^ 0x5E4BEull),
        train_(EdgeCorpus(seed, kTrainSites)),
        held_out_(EdgeCorpus(HeldOutSeed(seed), kHeldOutSites)),
        current_(held_out_.configs.size()),
        resident_(train_.configs.size()) {
    std::map<std::string, size_t> site_index;
    for (const concord::GeneratedConfig& meta : held_out_.metadata) {
      site_index[SiteOf(meta.name)] = site_metadata_.size();
      site_metadata_.push_back(&meta);
      site_devices_.emplace_back();
    }
    for (size_t i = 0; i < held_out_.configs.size(); ++i) {
      site_devices_.at(site_index.at(SiteOf(held_out_.configs[i].name)))
          .push_back(static_cast<uint32_t>(i));
      current_[i].device = static_cast<uint32_t>(i);
    }
    for (size_t i = 0; i < train_.configs.size(); ++i) {
      resident_[i].device = static_cast<uint32_t>(i);
    }
  }

  const GeneratedCorpus& train() const { return train_; }

  // The resident dataset's definition: the training corpus with its metadata.
  std::string LearnLine() const {
    JsonValue request = Envelope("learn", 0);
    request.Set("dataset", JsonValue::String("resident"));
    JsonValue configs = JsonValue::Array();
    for (const concord::GeneratedConfig& config : train_.configs) {
      configs.Append(Doc(config.name, config.text));
    }
    request.Set("configs", std::move(configs));
    JsonValue metadata = JsonValue::Array();
    for (const concord::GeneratedConfig& meta : train_.metadata) {
      metadata.Append(Doc(meta.name, meta.text));
    }
    request.Set("metadata", std::move(metadata));
    return request.Serialize();
  }

  Spec Next() {
    Spec spec;
    spec.id = next_id_++;
    double r = rng_.NextDouble();
    if (r < kUpdateShare) {
      // Updates cycle through the resident configs, so two updates of one
      // config are a whole cycle apart and apply in the order they were sent.
      spec.kind = Kind::kUpdate;
      Item& item = resident_[updates_++ % resident_.size()];
      item.version = ++version_;
      spec.groups.push_back({item});
    } else if (r < kUpdateShare + kBatchShare) {
      spec.kind = Kind::kBatch;
      for (uint64_t i = rng_.Range(2, 3); i > 0; --i) {
        spec.groups.push_back(Items(rng_.Range(1, 4), &spec.sites));
      }
      std::sort(spec.sites.begin(), spec.sites.end());
      spec.sites.erase(std::unique(spec.sites.begin(), spec.sites.end()), spec.sites.end());
    } else {
      spec.groups.push_back(Items(rng_.Range(1, 8), &spec.sites));
    }
    return spec;
  }

  std::string Render(const Spec& spec) const {
    if (spec.kind == Kind::kUpdate) {
      JsonValue request = Envelope("update", spec.id);
      request.Set("dataset", JsonValue::String("resident"));
      request.Set("configs", Configs(train_, spec.groups[0]));
      return request.Serialize();
    }
    JsonValue request = Envelope(spec.kind == Kind::kBatch ? "check_batch" : "check", spec.id);
    request.Set("contracts", JsonValue::String("edge"));
    JsonValue metadata = JsonValue::Array();
    for (size_t site : spec.sites) {
      metadata.Append(Doc(site_metadata_[site]->name, site_metadata_[site]->text));
    }
    request.Set("metadata", std::move(metadata));
    if (spec.kind == Kind::kCheck) {
      request.Set("configs", Configs(held_out_, spec.groups[0]));
    } else {
      JsonValue subs = JsonValue::Array();
      for (const std::vector<Item>& group : spec.groups) {
        JsonValue sub = JsonValue::Object();
        sub.Set("configs", Configs(held_out_, group));
        subs.Append(std::move(sub));
      }
      request.Set("requests", std::move(subs));
    }
    return request.Serialize();
  }

  // The resident corpus once every update generated so far has been applied.
  std::map<std::string, std::string> Resident() const {
    std::map<std::string, std::string> corpus;
    for (const Item& item : resident_) {
      corpus[train_.configs[item.device].name] = Variant(train_.configs[item.device], item);
    }
    return corpus;
  }

 private:
  static JsonValue Envelope(const char* verb, uint64_t id) {
    JsonValue request = JsonValue::Object();
    request.Set("v", JsonValue::Number(int64_t{1}));
    if (id != 0) {
      request.Set("id", JsonValue::Number(static_cast<int64_t>(id)));
    }
    request.Set("verb", JsonValue::String(verb));
    return request;
  }

  static JsonValue Configs(const GeneratedCorpus& corpus, const std::vector<Item>& items) {
    JsonValue configs = JsonValue::Array();
    for (const Item& item : items) {
      const concord::GeneratedConfig& base = corpus.configs[item.device];
      configs.Append(Doc(base.name, Variant(base, item)));
    }
    return configs;
  }

  // `count` held-out configs from consecutive sites, starting at a random
  // one; each repeats its device's latest variant or becomes a fresh edit.
  std::vector<Item> Items(size_t count, std::vector<size_t>* sites) {
    std::vector<Item> items;
    for (size_t site = rng_.Below(site_devices_.size()); items.size() < count; ++site) {
      size_t s = site % site_devices_.size();
      sites->push_back(s);
      for (uint32_t device : site_devices_[s]) {
        if (items.size() == count) {
          break;
        }
        if (rng_.NextDouble() >= kRepeatShare) {
          current_[device].version = ++version_;
          current_[device].new_line = rng_.NextDouble() < kNewLineShare;
        }
        items.push_back(current_[device]);
      }
    }
    return items;
  }

  concord::SplitMix64 rng_;
  GeneratedCorpus train_;
  GeneratedCorpus held_out_;
  std::vector<const concord::GeneratedConfig*> site_metadata_;
  std::vector<std::vector<uint32_t>> site_devices_;
  std::vector<Item> current_;   // Latest variant of each held-out config.
  std::vector<Item> resident_;  // Latest variant of each resident config.
  uint64_t version_ = 0;
  uint64_t next_id_ = 1;
  size_t updates_ = 0;
};

// What verification needs from a reply, taken as it arrives.
struct Reply {
  bool received = false;
  bool ok = false;
  std::string code;      // Error code of a failed reply.
  uint64_t reports = 0;  // Digest of every "report" object (each batch slot's).
  int64_t cache_hits = 0, cache_misses = 0, index_hits = 0, index_misses = 0;
  int64_t mine_hits = 0, mine_misses = 0;
};

int64_t IntAfter(const std::string& text, const char* key) {
  size_t pos = text.find(key);
  return pos == std::string::npos ? 0 : std::atoll(text.c_str() + pos + std::strlen(key));
}

// The end of the JSON value starting at `begin` (an object), skipping strings.
size_t ValueEnd(const std::string& text, size_t begin) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = begin; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      return i + 1;
    }
  }
  return text.size();
}

Reply Summarize(const std::string& text) {
  Reply reply;
  reply.received = true;
  reply.ok = text.find("\"ok\":true") != std::string::npos &&
             text.find("\"ok\":false") == std::string::npos;
  if (!reply.ok) {
    size_t pos = text.find("\"code\":\"");
    reply.code = pos == std::string::npos
                     ? "unparseable"
                     : text.substr(pos + 8, text.find('"', pos + 8) - pos - 8);
    return reply;
  }
  const std::string key = "\"report\":";
  for (size_t pos = text.find(key); pos != std::string::npos; pos = text.find(key, pos)) {
    size_t begin = pos + key.size();
    size_t end = ValueEnd(text, begin);
    reply.reports = reply.reports * 0x100000001b3ull ^ Digest(text.substr(begin, end - begin));
    pos = end;
  }
  reply.cache_hits = IntAfter(text, "\"cache_hits\":");
  reply.cache_misses = IntAfter(text, "\"cache_misses\":");
  reply.index_hits = IntAfter(text, "\"index_cache_hits\":");
  reply.index_misses = IntAfter(text, "\"index_cache_misses\":");
  reply.mine_hits = IntAfter(text, "\"mine_hits\":");
  reply.mine_misses = IntAfter(text, "\"mine_misses\":");
  return reply;
}

// One NDJSON client connection.
class Client {
 public:
  explicit Client(const std::string& path) {
    std::string error;
    for (int attempt = 0; attempt < 2000 && fd_ < 0; ++attempt) {
      fd_ = concord::DialUnixClient(path, &error);
      if (fd_ < 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (fd_ < 0) {
      throw std::runtime_error("cannot connect: " + error);
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void Send(const std::string& line) {
    std::string payload = line + "\n";
    for (size_t sent = 0; sent < payload.size();) {
      ssize_t n = ::write(fd_, payload.data() + sent, payload.size() - sent);
      if (n <= 0) {
        throw std::runtime_error("socket write failed");
      }
      sent += static_cast<size_t>(n);
    }
  }

  std::string Receive() {
    while (true) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        throw std::runtime_error("socket closed before the reply");
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

concord::ServiceOptions ServiceOptionsFor(const std::string& store_dir) {
  concord::ServiceOptions options;
  options.parallelism = kWorkers;
  options.store_dir = store_dir;
  return options;
}

// A Service with its contract set and resident dataset, listening on a Unix
// socket from a server thread until destroyed.
class Server {
 public:
  Server(const std::string& contracts_path, const std::string& learn_line,
         const std::string& store_dir, const std::string& socket_path)
      : service_(ServiceOptionsFor(store_dir)) {
    std::string error;
    if (!service_.LoadContracts("edge", contracts_path, &error)) {
      throw std::runtime_error("loading contracts: " + error);
    }
    std::string reply = service_.HandleLine(learn_line);
    if (!Summarize(reply).ok) {
      throw std::runtime_error("resident learn failed: " + reply.substr(0, 300));
    }
    concord::SocketServerOptions options;
    options.install_signal_handlers = false;
    options.idle_timeout_ms = 0;
    // One frontend worker: the busy threads (event loop, the worker or the
    // pool threads it waits on, the client) then fit in 4 cores.
    options.workers = 1;
    options.max_inflight = 1024;
    options.max_inflight_per_client = 0;
    thread_ = std::thread([this, socket_path, options] {
      concord::RunServiceSocket(service_, socket_path, err_, nullptr, options);
    });
  }
  ~Server() {
    service_.RequestShutdown();
    thread_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  concord::Service& service() { return service_; }

 private:
  concord::Service service_;
  std::ostringstream err_;
  std::thread thread_;
};

enum class Phase { kWarmup, kMeasured, kSocket };

// One request of the closed loop and what came back.
struct Sample {
  Spec spec;
  Phase phase = Phase::kWarmup;
  double ms = 0;  // Request to reply.
  Reply reply;
};

std::string ReadResidentContracts(const std::string& store_dir) {
  concord::DurableStore store(store_dir);
  auto info = store.GetDataset("resident");
  if (!info) {
    return "";
  }
  return store.GetObject(concord::RecordType::kContracts, info->contracts_key, "contracts")
      .value_or("");
}

// `concord learn` over a name-ordered corpus with the training metadata.
std::string FreshLearn(const std::map<std::string, std::string>& configs,
                       const GeneratedCorpus& metadata_source) {
  GeneratedCorpus corpus;
  for (const auto& [name, text] : configs) {
    corpus.configs.push_back(concord::GeneratedConfig{name, text});
  }
  corpus.metadata = metadata_source.metadata;
  concord::Dataset dataset = concord::ParseCorpus(corpus);
  concord::LearnOptions options;
  options.parallelism = kWorkers;
  return concord::SerializeContracts(concord::Learner(options).Learn(dataset).set,
                                     dataset.patterns);
}

int64_t StatsPatterns(concord::Service& service) {
  auto reply = JsonValue::Parse(service.HandleLine("{\"v\":1,\"verb\":\"stats\"}"));
  if (reply) {
    if (const JsonValue* sets = reply->Find("contract_sets")) {
      for (const JsonValue& set : sets->items()) {
        if (set.GetString("name").value_or("") == "edge") {
          return set.GetInt("patterns").value_or(0);
        }
      }
    }
  }
  return 0;
}

// Replays the update requests in process on two fresh services, one with a
// store_dir and one without, taking turns so both see the same host load;
// returns the with-store median update time minus the without-store one, ms.
double StoreWriteMs(const Traffic& traffic, const std::string& contracts_path,
                    const std::string& store_dir, const std::vector<Spec>& specs) {
  concord::Service with_store(ServiceOptionsFor(store_dir));
  concord::Service without_store(ServiceOptionsFor(""));
  std::string error;
  for (concord::Service* service : {&with_store, &without_store}) {
    service->LoadContracts("edge", contracts_path, &error);
    service->HandleLine(traffic.LearnLine());
  }
  std::vector<double> with_ms, without_ms;
  for (const Spec& spec : specs) {
    if (spec.kind == Kind::kUpdate) {
      std::string line = traffic.Render(spec);
      for (auto [service, ms] : {std::pair{&with_store, &with_ms},
                                 std::pair{&without_store, &without_ms}}) {
        Clock::time_point start = Clock::now();
        service->HandleLine(line);
        ms->push_back(SecondsSince(start) * 1e3);
      }
    }
  }
  return Median(with_ms) - Median(without_ms);
}

double Ratio(int64_t hits, int64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

}  // namespace

Result RunServeEdge(const Args& args) {
  Result result;
  const fs::path dir = fs::path(args.out_dir) / ("serve-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Relative to the working directory, clear of the sun_path length limit.
  const std::string socket_path = (dir / "s.sock").string();

  // Inputs: the edge ToR contract set, learned from the training corpus with
  // its site metadata, and the request stream.
  Traffic traffic(args.seed);
  const std::string contracts_path = (dir / "edge.json").string();
  std::ofstream(contracts_path) << FreshLearn(traffic.Resident(), traffic.train());
  const std::string learn_line = traffic.LearnLine();

  // Set-up: Service construction to the first connection the listener
  // accepts, covering the contract load and checker plan, the resident learn
  // (and its store write), and the listener coming up. Repeated; the last
  // one serves.
  std::vector<double> setup_s;
  std::unique_ptr<Server> server;
  std::unique_ptr<Client> client;
  for (int i = 0; i < kSetups; ++i) {
    client.reset();
    server.reset();
    fs::remove_all(dir / "store");
    Clock::time_point start = Clock::now();
    server = std::make_unique<Server>(contracts_path, learn_line, (dir / "store").string(),
                                      socket_path);
    client = std::make_unique<Client>(socket_path);
    setup_s.push_back(SecondsSince(start));
  }
  const int64_t patterns_before = StatsPatterns(server->service());

  // Sends the stream's next seconds * kNominalRps requests, over the socket
  // in the socket phase and in process otherwise; returns the time taken. A
  // failed send or receive ends the phase and leaves its request without a
  // reply.
  std::vector<Sample> samples;
  auto drive = [&](Phase phase, double seconds) {
    const Clock::time_point start = Clock::now();
    for (int64_t n = 0; static_cast<double>(n) < seconds * kNominalRps; ++n) {
      Sample& sample = samples.emplace_back();
      sample.spec = traffic.Next();
      sample.phase = phase;
      const bool over_socket = phase == Phase::kSocket;
      const std::string line = traffic.Render(sample.spec);
      std::string reply;
      const Clock::time_point sent = Clock::now();
      try {
        if (over_socket) {
          client->Send(line);
          reply = client->Receive();
        } else {
          reply = server->service().HandleLine(line);
        }
      } catch (const std::exception& e) {
        result.Fail(std::string("connection failed: ") + e.what());
        break;
      }
      sample.ms = SecondsSince(sent) * 1e3;
      sample.reply = Summarize(reply);
    }
    return SecondsSince(start);
  };
  drive(Phase::kWarmup, kWarmupS);
  const double rss_after_warmup = CurrentRssMb();
  const double measured_s = drive(Phase::kMeasured, args.seconds);
  drive(Phase::kSocket, args.seconds * kSocketShare);
  const int64_t patterns_after = StatsPatterns(server->service());
  const double rss_end = CurrentRssMb();
  client.reset();
  server.reset();
  const std::string persisted = ReadResidentContracts((dir / "store").string());

  // Verification: every reply ok, and every socket check's reports identical
  // to an in-process HandleLine of the same request.
  concord::Service reference(ServiceOptionsFor(""));
  {
    std::string error;
    if (!reference.LoadContracts("edge", contracts_path, &error)) {
      throw std::runtime_error("loading contracts: " + error);
    }
  }
  std::vector<double> check_ms, update_ms, batch_ms;
  // Checks of the socket phase: round trips, and the in-process replay.
  std::vector<double> socket_check_ms, handle_check_ms;
  Reply totals;
  int64_t shed = 0;
  int64_t measured = 0;
  for (const Sample& sample : samples) {
    const Spec& spec = sample.spec;
    const Reply& reply = sample.reply;
    ++result.attempted;
    if (!reply.received) {
      ++result.failed;
      result.Fail("request " + std::to_string(spec.id) + " got no reply");
      continue;
    }
    if (!reply.ok) {
      ++result.failed;
      if (reply.code == "overloaded" || reply.code == "rate_limited") {
        ++shed;
      } else {
        result.Fail("request " + std::to_string(spec.id) + " failed: " + reply.code);
      }
      continue;
    }
    totals.cache_hits += reply.cache_hits;
    totals.cache_misses += reply.cache_misses;
    totals.index_hits += reply.index_hits;
    totals.index_misses += reply.index_misses;
    totals.mine_hits += reply.mine_hits;
    totals.mine_misses += reply.mine_misses;
    if (sample.phase == Phase::kMeasured) {
      ++measured;
      (spec.kind == Kind::kCheck    ? check_ms
       : spec.kind == Kind::kUpdate ? update_ms
                                    : batch_ms)
          .push_back(sample.ms);
    }
    if (sample.phase != Phase::kSocket || spec.kind == Kind::kUpdate) {
      continue;
    }
    const std::string line = traffic.Render(spec);
    const Clock::time_point start = Clock::now();
    const std::string expected = reference.HandleLine(line);
    if (spec.kind == Kind::kCheck) {
      socket_check_ms.push_back(sample.ms);
      handle_check_ms.push_back(SecondsSince(start) * 1e3);
    }
    if (Summarize(expected).reports != reply.reports) {
      ++result.failed;
      result.Fail("request " + std::to_string(spec.id) +
                  ": socket report differs from in-process HandleLine");
    }
  }
  const std::string fresh = FreshLearn(traffic.Resident(), traffic.train());
  if (persisted.empty() || persisted != fresh) {
    result.Fail("resident dataset contracts (" + std::to_string(persisted.size()) +
                " bytes) differ from a fresh learn over its final corpus (" +
                std::to_string(fresh.size()) + " bytes)");
  }
  result.notes.push_back(
      "serve_edge: seed=" + std::to_string(args.seed) + "; " + std::to_string(check_ms.size()) +
      " checks, " + std::to_string(update_ms.size()) + " updates, " +
      std::to_string(batch_ms.size()) + " batches measured in process, " +
      std::to_string(socket_check_ms.size()) + " socket checks verified; shed " +
      std::to_string(shed) +
      "; patterns " + std::to_string(patterns_before) + "->" + std::to_string(patterns_after) +
      "; check p99 " + std::to_string(Quantile(check_ms, 0.99)) + " ms, update p50 " +
      std::to_string(Median(update_ms)) + " ms");

  if (!args.trace) {
    fs::remove_all(dir);
    result.Set("ops_per_s", static_cast<double>(measured) / measured_s, "1/s");
    result.Set("setup_s", Median(setup_s), "s");
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }
  std::vector<Spec> specs;
  for (const Sample& sample : samples) {
    specs.push_back(sample.spec);
  }
  const double store_write_ms =
      StoreWriteMs(traffic, contracts_path, (dir / "replay-store").string(), specs);
  fs::remove_all(dir);
  result.Set("service.handle_p50_ms", Median(check_ms), "ms");
  result.Set("service.frontend_ms", Median(socket_check_ms) - Median(handle_check_ms), "ms");
  result.Set("service.cache_hit_ratio", Ratio(totals.cache_hits, totals.cache_misses), "ratio");
  result.Set("service.index_cache_hit_ratio", Ratio(totals.index_hits, totals.index_misses),
             "ratio");
  result.Set("service.shed", static_cast<double>(shed), "count");
  result.Set("service.check_p99_ms", Quantile(check_ms, 0.99), "ms");
  result.Set("service.update_p50_ms", Median(update_ms), "ms");
  result.Set("service.check_batch_p50_ms", Median(batch_ms), "ms");
  result.Set("service.rss_growth_mb", rss_end - rss_after_warmup, "MB");
  result.Set("store.update_write_ms", store_write_ms, "ms");
  result.Set("learn.artifact_mine_hit_ratio", Ratio(totals.mine_hits, totals.mine_misses),
             "ratio");
  result.Set("pattern.table_growth", static_cast<double>(patterns_after - patterns_before),
             "count");
  return result;
}

}  // namespace perfbench
