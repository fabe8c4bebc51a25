#include "serve/server.h"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/logging.h"
#include "util/parse.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace exea::serve {
namespace {

// Every op HandleLine dispatches; each gets its own serve.op.* counter.
constexpr std::string_view kOps[] = {
    "align", "explain", "neighbors", "repair_status", "stats",
    "load_snapshot", "engine_status", "shutdown"};

// ------------------------------------------------------- flat JSON parser

class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& text) : text_(text) {}

  StatusOr<std::map<std::string, std::string>> Parse() {
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    std::map<std::string, std::string> fields;
    SkipSpace();
    if (Consume('}')) return FinishedAt(fields);
    while (true) {
      SkipSpace();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after key");
      SkipSpace();
      auto value = ParseValue();
      if (!value.ok()) return value.status();
      fields[*key] = *value;
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return FinishedAt(fields);
      return Error("expected ',' or '}'");
    }
  }

 private:
  StatusOr<std::map<std::string, std::string>> FinishedAt(
      std::map<std::string, std::string>& fields) {
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return std::move(fields);
  }

  Status Error(const std::string& what) {
    return Status::InvalidArgument(
        StrFormat("malformed request (%s at byte %zu)", what.c_str(), pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape");
          }
          // The protocol's names are ASCII/UTF-8 pass-through; encode the
          // code point as UTF-8 (BMP only — surrogate pairs rejected).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate \\u escape unsupported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  StatusOr<std::string> ParseValue() {
    if (pos_ >= text_.size()) return Error("missing value");
    char c = text_[pos_];
    if (c == '"') return ParseString();
    if (c == '{' || c == '[') return Error("nested values unsupported");
    // Bare scalar: number / true / false / null, taken as literal text.
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ' ' && text_[pos_] != '\t') {
      ++pos_;
    }
    if (pos_ == start) return Error("missing value");
    return text_.substr(start, pos_ - start);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------- rendering

std::string ErrorResponse(const Status& status) {
  return StrFormat("{\"ok\":false,\"code\":\"%s\",\"error\":\"%s\"}",
                   StatusCodeName(status.code()),
                   JsonEscape(status.message()).c_str());
}

std::string AlignResultJson(const AlignResult& result) {
  std::ostringstream out;
  out << "{\"entity\":\"" << JsonEscape(result.source) << "\",\"index\":\""
      << JsonEscape(result.index) << "\",\"aligned\":[";
  for (size_t i = 0; i < result.aligned.size(); ++i) {
    out << (i == 0 ? "" : ",") << '"' << JsonEscape(result.aligned[i]) << '"';
  }
  out << "],\"candidates\":[";
  for (size_t i = 0; i < result.candidates.size(); ++i) {
    out << (i == 0 ? "" : ",") << "{\"entity\":\""
        << JsonEscape(result.candidates[i].first) << "\",\"score\":"
        << StrFormat("%.6f", result.candidates[i].second) << "}";
  }
  out << "]}";
  return out.str();
}

std::string RequireField(const std::map<std::string, std::string>& fields,
                         const std::string& key, Status& status) {
  auto it = fields.find(key);
  if (it == fields.end() || it->second.empty()) {
    status = Status::InvalidArgument("missing required field: " + key);
    return "";
  }
  return it->second;
}

// Reads one '\n'-terminated line of at most `max_bytes` bytes into `line`.
// A longer line is drained to its newline without being buffered (the
// request cap must bound memory, not just request size) and reported via
// `truncated`; `line` then holds only the measured length in
// `truncated_bytes`. Returns false on EOF with nothing read.
bool ReadLineBounded(std::istream& in, size_t max_bytes, std::string& line,
                     bool& truncated, size_t& truncated_bytes) {
  line.clear();
  truncated = false;
  truncated_bytes = 0;
  char c;
  while (in.get(c)) {
    if (c == '\n') return true;
    if (line.size() >= max_bytes) {
      truncated = true;
      truncated_bytes = line.size() + 1;
      while (in.get(c) && c != '\n') ++truncated_bytes;
      return true;
    }
    line.push_back(c);
  }
  return !line.empty();
}

}  // namespace

StatusOr<std::map<std::string, std::string>> ParseFlatJson(
    const std::string& line) {
  return FlatJsonParser(line).Parse();
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

Server::Server(QueryEngine* engine, const ServerOptions& options)
    : engine_(engine),
      options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : engine->mutable_registry()),
      requests_(registry_->GetCounter("serve.requests")),
      ok_(registry_->GetCounter("serve.ok")),
      errors_(registry_->GetCounter("serve.errors")),
      malformed_(registry_->GetCounter("serve.malformed")),
      oversized_(registry_->GetCounter("serve.oversized")),
      deadline_exceeded_(registry_->GetCounter("serve.deadline_exceeded")),
      rejected_(registry_->GetCounter("serve.rejected")),
      shed_(registry_->GetCounter("serve.shed")),
      latency_ms_(registry_->GetHistogram("serve.latency_ms")),
      op_none_(registry_->GetCounter("serve.op.(none)")),
      op_unknown_(registry_->GetCounter("serve.op.(unknown)")) {
  for (std::string_view op : kOps) {
    op_counters_.emplace_back(
        op, &registry_->GetCounter("serve.op." + std::string(op)));
  }
}

obs::Counter& Server::OpCounter(const std::string& op) {
  if (op.empty()) return op_none_;
  for (const auto& [name, counter] : op_counters_) {
    if (op == name) return *counter;
  }
  return op_unknown_;
}

std::string Server::RejectOversized(size_t observed_bytes) {
  requests_.Increment();
  errors_.Increment();
  oversized_.Increment();
  return ErrorResponse(Status::OutOfRange(
      StrFormat("request line of %zu bytes exceeds the %zu-byte cap",
                observed_bytes, options_.max_request_bytes)));
}

std::string Server::RejectQueueFull() {
  requests_.Increment();
  errors_.Increment();
  rejected_.Increment();
  return ErrorResponse(
      Status::Unavailable("server overloaded: request queue is full"));
}

std::string Server::ShedExpired(double queue_wait_ms) {
  requests_.Increment();
  errors_.Increment();
  deadline_exceeded_.Increment();
  shed_.Increment();
  latency_ms_.Record(queue_wait_ms);
  return ErrorResponse(Status::DeadlineExceeded(
      "deadline expired before processing (shed from queue)"));
}

std::string Server::HandleLine(const std::string& line) {
  if (line.size() > options_.max_request_bytes) {
    return RejectOversized(line.size());
  }
  WallTimer timer;
  std::string response;

  auto fields = ParseFlatJson(line);
  std::string op;
  if (fields.ok()) {
    auto it = fields->find("op");
    op = it == fields->end() ? "" : it->second;
  }
  // Arrival accounting happens before dispatch so a stats response
  // includes its own request, matching the single-threaded behavior.
  requests_.Increment();
  if (!fields.ok()) {
    malformed_.Increment();
    errors_.Increment();
  } else {
    OpCounter(op).Increment();
  }
  if (!fields.ok()) {
    response = ErrorResponse(fields.status());
  } else {
    Deadline deadline(options_.deadline_seconds);
    Status field_error = Status::Ok();

    // Optional per-request deadline override. The value is client data:
    // parse it checked and keep it inside [1ms, 1h] so a hostile request
    // cannot pin a worker forever or wrap the deadline arithmetic.
    auto deadline_it = fields->find("deadline_ms");
    if (deadline_it != fields->end()) {
      constexpr int64_t kMaxDeadlineMs = 3'600'000;
      int64_t deadline_ms = 0;
      Status parsed =
          util::ParseInt64(deadline_it->second, 1, kMaxDeadlineMs, &deadline_ms);
      if (!parsed.ok()) {
        field_error = Status::InvalidArgument(
            "field 'deadline_ms' must be an integer in [1, 3600000]: " +
            parsed.message());
      } else {
        deadline = Deadline(static_cast<double>(deadline_ms) / 1000.0);
      }
    }

    if (!field_error.ok()) {
      response = ErrorResponse(field_error);
    } else if (op == "align") {
      std::vector<std::string> entities;
      auto batch_it = fields->find("entities");
      if (batch_it != fields->end()) {
        for (const std::string& name : Split(batch_it->second, ',')) {
          if (!name.empty()) entities.push_back(name);
        }
      } else {
        std::string entity = RequireField(*fields, "entity", field_error);
        if (field_error.ok()) entities.push_back(entity);
      }
      // Optional per-request candidate cap. Applied at render time only,
      // so the engine (and the async path's coalescer, which must stay
      // byte-identical to the reference server) computes the same results
      // either way; the response just carries fewer candidates.
      int top_k = 0;  // 0 = the engine's configured top_k
      auto k_it = fields->find("k");
      if (k_it != fields->end() && field_error.ok()) {
        constexpr int32_t kMaxRequestTopK = 1000;
        int32_t parsed_k = 0;
        Status parsed =
            util::ParseInt32(k_it->second, 1, kMaxRequestTopK, &parsed_k);
        if (!parsed.ok()) {
          field_error = Status::InvalidArgument(
              "field 'k' must be an integer in [1, 1000]: " +
              parsed.message());
        } else {
          top_k = parsed_k;
        }
      }
      if (!field_error.ok()) {
        response = ErrorResponse(field_error);
      } else {
        auto results = align_dispatcher_
                           ? align_dispatcher_(entities, deadline)
                           : engine_->AlignBatch(entities, deadline);
        auto render = [top_k](const AlignResult& result) {
          if (top_k == 0 ||
              result.candidates.size() <= static_cast<size_t>(top_k)) {
            return AlignResultJson(result);
          }
          AlignResult trimmed = result;
          trimmed.candidates.resize(top_k);
          return AlignResultJson(trimmed);
        };
        if (!results.ok()) {
          response = ErrorResponse(results.status());
        } else if (batch_it != fields->end()) {
          std::ostringstream out;
          out << "{\"ok\":true,\"op\":\"align\",\"results\":[";
          for (size_t i = 0; i < results->size(); ++i) {
            out << (i == 0 ? "" : ",") << render((*results)[i]);
          }
          out << "]}";
          response = out.str();
        } else {
          response = "{\"ok\":true,\"op\":\"align\",\"result\":" +
                     render((*results)[0]) + "}";
        }
      }
    } else if (op == "explain") {
      std::string source = RequireField(*fields, "source", field_error);
      std::string target = RequireField(*fields, "target", field_error);
      if (!field_error.ok()) {
        response = ErrorResponse(field_error);
      } else {
        auto result = engine_->Explain(source, target, deadline);
        if (!result.ok()) {
          response = ErrorResponse(result.status());
        } else {
          response = StrFormat(
              "{\"ok\":true,\"op\":\"explain\",\"cache_hit\":%s,"
              "\"confidence\":%.6f,\"result\":%s}",
              result->cache_hit ? "true" : "false", result->confidence,
              result->json.c_str());
        }
      }
    } else if (op == "neighbors") {
      std::string entity = RequireField(*fields, "entity", field_error);
      // `side` is client data: the old atoi here silently mapped garbage
      // to side 0, which the engine then rejected with a confusing error
      // (or worse, would serve if 0 ever became meaningful). Checked
      // parse → INVALID_ARGUMENT naming the field.
      int32_t side = 1;
      auto side_it = fields->find("side");
      if (side_it != fields->end() && field_error.ok()) {
        Status parsed = util::ParseInt32(side_it->second, 1, 2, &side);
        if (!parsed.ok()) {
          field_error = Status::InvalidArgument(
              "field 'side' must be 1 or 2: " + parsed.message());
        }
      }
      if (!field_error.ok()) {
        response = ErrorResponse(field_error);
      } else {
        auto result = engine_->Neighbors(entity, side, deadline);
        if (!result.ok()) {
          response = ErrorResponse(result.status());
        } else {
          std::ostringstream out;
          out << "{\"ok\":true,\"op\":\"neighbors\",\"entity\":\""
              << JsonEscape(result->entity) << "\",\"edges\":[";
          for (size_t i = 0; i < result->edges.size(); ++i) {
            const NeighborEdge& edge = result->edges[i];
            out << (i == 0 ? "" : ",") << "{\"relation\":\""
                << JsonEscape(edge.relation) << "\",\"neighbor\":\""
                << JsonEscape(edge.neighbor) << "\",\"direction\":\""
                << (edge.outgoing ? "out" : "in") << "\"}";
          }
          out << "]}";
          response = out.str();
        }
      }
    } else if (op == "repair_status") {
      std::string source = RequireField(*fields, "source", field_error);
      std::string target = RequireField(*fields, "target", field_error);
      if (!field_error.ok()) {
        response = ErrorResponse(field_error);
      } else {
        auto result = engine_->RepairStatus(source, target, deadline);
        if (!result.ok()) {
          response = ErrorResponse(result.status());
        } else {
          std::ostringstream out;
          out << "{\"ok\":true,\"op\":\"repair_status\",\"in_base\":"
              << (result->in_base ? "true" : "false") << ",\"in_repaired\":"
              << (result->in_repaired ? "true" : "false") << ",\"verdict\":\""
              << result->verdict << "\",\"repaired_targets\":[";
          for (size_t i = 0; i < result->repaired_targets.size(); ++i) {
            out << (i == 0 ? "" : ",") << '"'
                << JsonEscape(result->repaired_targets[i]) << '"';
          }
          out << "]}";
          response = out.str();
        }
      }
    } else if (op == "stats") {
      response = "{\"ok\":true,\"op\":\"stats\",\"stats\":" + StatsJson() +
                 "}";
    } else if (op == "load_snapshot") {
      std::string dir = RequireField(*fields, "dir", field_error);
      if (!field_error.ok()) {
        response = ErrorResponse(field_error);
      } else {
        // Hot swap. On any failure the engine leaves the current version
        // serving and the error says why; in-flight requests on other
        // workers never notice either way.
        auto epoch = engine_->LoadSnapshot(dir);
        if (!epoch.ok()) {
          response = ErrorResponse(epoch.status());
        } else {
          EngineStatusResult status = engine_->EngineStatus();
          std::ostringstream out;
          out << "{\"ok\":true,\"op\":\"load_snapshot\",\"epoch\":" << *epoch
              << ",\"versions\":"
              << static_cast<uint64_t>(status.live_versions)
              << ",\"swaps\":" << status.swaps << "}";
          response = out.str();
        }
      }
    } else if (op == "engine_status") {
      EngineStatusResult status = engine_->EngineStatus();
      std::ostringstream out;
      out << "{\"ok\":true,\"op\":\"engine_status\",\"epoch\":"
          << status.epoch << ",\"source\":\"" << JsonEscape(status.source)
          << "\",\"index\":\"" << JsonEscape(status.index)
          << "\",\"index_size\":" << status.index_size
          << ",\"live_versions\":"
          << static_cast<uint64_t>(status.live_versions)
          << ",\"swaps\":" << status.swaps << ",\"explain_cache_size\":"
          << status.explain_cache_size << "}";
      response = out.str();
    } else if (op == "shutdown") {
      shutdown_requested_ = true;
      response = "{\"ok\":true,\"op\":\"shutdown\"}";
    } else {
      response = ErrorResponse(Status::InvalidArgument(
          "unknown op: " + (op.empty() ? "(none)" : op)));
    }
  }

  bool succeeded = StartsWith(response, "{\"ok\":true");
  if (succeeded) {
    ok_.Increment();
  } else if (fields.ok()) {  // malformed already counted above
    errors_.Increment();
    if (response.find("\"DEADLINE_EXCEEDED\"") != std::string::npos) {
      deadline_exceeded_.Increment();
    }
  }
  latency_ms_.Record(timer.ElapsedMillis());
  return response;
}

std::string Server::StatsJson() const {
  // Cache metrics live in the engine's registry, which by default is
  // also this server's registry; read them from the engine side so the
  // stats payload stays truthful if a caller split the two.
  const obs::Registry& engine_registry = engine_->registry();
  obs::Histogram::Snapshot latency = latency_ms_.TakeSnapshot();
  // One pinned version for the whole payload, so index name/size and the
  // epoch always describe the same snapshot even mid-swap.
  EngineStatusResult engine_status = engine_->EngineStatus();
  std::ostringstream out;
  out << "{\"index\":\"" << engine_status.index << "\",\"index_size\":"
      << engine_status.index_size
      << ",\"epoch\":" << engine_status.epoch
      << ",\"snapshot_versions\":"
      << static_cast<uint64_t>(engine_status.live_versions)
      << ",\"snapshot_swaps\":" << engine_status.swaps
      << ",\"requests\":" << requests_.Value()
      << ",\"ok\":" << ok_.Value()
      << ",\"errors\":" << errors_.Value()
      << ",\"malformed\":" << malformed_.Value()
      << ",\"oversized\":" << oversized_.Value()
      << ",\"deadline_exceeded\":" << deadline_exceeded_.Value()
      << ",\"rejected\":" << rejected_.Value()
      << ",\"shed\":" << shed_.Value()
      << ",\"queue_depth\":"
      << static_cast<uint64_t>(registry_->GaugeValue("serve.queue_depth"))
      << ",\"explain_cache_hits\":"
      << engine_registry.CounterValue("serve.explain_cache.hits")
      << ",\"explain_cache_misses\":"
      << engine_registry.CounterValue("serve.explain_cache.misses")
      << ",\"explain_cache_size\":"
      << static_cast<uint64_t>(
             engine_registry.GaugeValue("serve.explain_cache.size"))
      << ",\"latency_count\":" << latency.count
      << StrFormat(",\"latency_p50_ms\":%.3f,\"latency_p99_ms\":%.3f",
                   latency.p50, latency.p99)
      << ",\"per_op\":{";
  bool first = true;
  const std::string prefix = "serve.op.";
  for (const auto& [name, count] :
       registry_->CountersWithPrefix(prefix)) {
    out << (first ? "" : ",") << '"'
        << JsonEscape(name.substr(prefix.size())) << "\":" << count;
    first = false;
  }
  out << "},\"metrics\":" << registry_->ToJson() << "}";
  return out.str();
}

void Server::Serve(std::istream& in, std::ostream& out) {
  std::string line;
  bool truncated;
  size_t truncated_bytes;
  while (!shutdown_requested_ &&
         ReadLineBounded(in, options_.max_request_bytes, line, truncated,
                         truncated_bytes)) {
    if (truncated) {
      out << RejectOversized(truncated_bytes) << "\n" << std::flush;
      continue;
    }
    if (Trim(line).empty()) continue;
    out << HandleLine(line) << "\n" << std::flush;
  }
  std::fprintf(stderr, "server exiting; final stats: %s\n",
               StatsJson().c_str());
}

}  // namespace exea::serve
