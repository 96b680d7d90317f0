#include "service/solve_service.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/json.h"
#include "common/json_writer.h"

namespace emp {
namespace service {

namespace {

using obs::HttpRequest;
using obs::HttpResponse;
using obs::JsonErrorResponse;

/// Maps a library Status to the envelope the client sees.
HttpResponse ErrorFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return JsonErrorResponse(400, "invalid_argument", status.message());
    case StatusCode::kNotFound:
      return JsonErrorResponse(404, "not_found", status.message());
    case StatusCode::kFailedPrecondition:
      return JsonErrorResponse(409, "conflict", status.message());
    default:
      return JsonErrorResponse(500, "internal", status.message());
  }
}

HttpResponse MethodNotAllowed(const HttpRequest& request,
                              const std::string& allow) {
  HttpResponse response = JsonErrorResponse(
      405, "method_not_allowed",
      request.method + " is not supported on " + request.target);
  response.extra_headers.emplace_back("Allow", allow);
  return response;
}

Status WrongType(std::string_view key, std::string_view want) {
  return Status::InvalidArgument("solve request: '" + std::string(key) +
                                 "' must be a " + std::string(want));
}

Result<int64_t> AsInt(const json::Value& value, std::string_view key) {
  if (!value.is_number()) return WrongType(key, "number");
  const double number = value.AsNumber();
  if (number != std::floor(number)) {
    return Status::InvalidArgument("solve request: '" + std::string(key) +
                                   "' must be an integer");
  }
  return static_cast<int64_t>(number);
}

/// The remotely settable SolverOptions subset: supervision budgets,
/// seeds, and the coarse algorithm knobs.
Status ApplyOption(const std::string& key, const json::Value& value,
                   SolverOptions& options) {
  if (key == "seed") {
    EMP_ASSIGN_OR_RETURN(int64_t v, AsInt(value, key));
    options.seed = static_cast<uint64_t>(v);
  } else if (key == "time_budget_ms") {
    EMP_ASSIGN_OR_RETURN(options.time_budget_ms, AsInt(value, key));
  } else if (key == "max_evaluations") {
    EMP_ASSIGN_OR_RETURN(options.max_evaluations, AsInt(value, key));
  } else if (key == "construction_iterations") {
    EMP_ASSIGN_OR_RETURN(int64_t v, AsInt(value, key));
    options.construction_iterations = static_cast<int>(v);
  } else if (key == "construction_threads") {
    EMP_ASSIGN_OR_RETURN(int64_t v, AsInt(value, key));
    options.construction_threads = static_cast<int>(v);
  } else if (key == "tabu_tenure") {
    EMP_ASSIGN_OR_RETURN(int64_t v, AsInt(value, key));
    options.tabu_tenure = static_cast<int>(v);
  } else if (key == "tabu_max_no_improve") {
    EMP_ASSIGN_OR_RETURN(options.tabu_max_no_improve, AsInt(value, key));
  } else if (key == "tabu_max_iterations") {
    EMP_ASSIGN_OR_RETURN(options.tabu_max_iterations, AsInt(value, key));
  } else if (key == "portfolio_replicas") {
    EMP_ASSIGN_OR_RETURN(int64_t v, AsInt(value, key));
    options.portfolio_replicas = static_cast<int>(v);
  } else if (key == "portfolio_threads") {
    EMP_ASSIGN_OR_RETURN(int64_t v, AsInt(value, key));
    options.portfolio_threads = static_cast<int>(v);
  } else if (key == "run_local_search") {
    if (!value.is_bool()) return WrongType(key, "boolean");
    options.run_local_search = value.AsBool();
  } else if (key == "filter_invalid_areas") {
    if (!value.is_bool()) return WrongType(key, "boolean");
    options.filter_invalid_areas = value.AsBool();
  } else {
    return Status::InvalidArgument(
        "solve request: unknown option '" + key +
        "' (settable: seed, time_budget_ms, max_evaluations, "
        "construction_iterations, construction_threads, tabu_tenure, "
        "tabu_max_no_improve, tabu_max_iterations, portfolio_replicas, "
        "portfolio_threads, run_local_search, filter_invalid_areas)");
  }
  return Status::OK();
}

}  // namespace

Result<JobRequest> ParseSolveRequest(std::string_view body) {
  if (body.empty()) {
    return Status::InvalidArgument(
        "solve request: empty body (expected a JSON object)");
  }
  Result<json::Value> parsed = json::Parse(body);
  if (!parsed.ok()) {
    return Status::InvalidArgument("solve request: body is not JSON: " +
                                   parsed.status().message());
  }
  if (!parsed->is_object()) {
    return Status::InvalidArgument(
        "solve request: body must be a JSON object");
  }

  JobRequest request;
  for (const auto& [key, value] : parsed->AsObject()) {
    if (key == "instance") {
      if (!value.is_string()) return WrongType(key, "string");
      request.instance = value.AsString();
    } else if (key == "solver") {
      if (!value.is_string()) return WrongType(key, "string");
      request.solver = value.AsString();
    } else if (key == "query") {
      if (!value.is_string()) return WrongType(key, "string");
      request.query = value.AsString();
    } else if (key == "attribute") {
      if (!value.is_string()) return WrongType(key, "string");
      request.attribute = value.AsString();
    } else if (key == "threshold") {
      if (!value.is_number()) return WrongType(key, "number");
      request.threshold = value.AsNumber();
    } else if (key == "options") {
      if (!value.is_object()) return WrongType(key, "object");
      for (const auto& [option_key, option_value] : value.AsObject()) {
        EMP_RETURN_IF_ERROR(
            ApplyOption(option_key, option_value, request.options));
      }
    } else {
      return Status::InvalidArgument(
          "solve request: unknown field '" + key +
          "' (expected: instance, solver, query, attribute, threshold, "
          "options)");
    }
  }
  if (request.instance.empty()) {
    return Status::InvalidArgument(
        "solve request: 'instance' is required (a catalog dataset name or "
        "a CSV path)");
  }
  return request;
}

std::string JobSnapshotToJson(const JobSnapshot& snapshot,
                              bool include_payloads) {
  JsonWriter w(2);
  w.BeginObject();
  w.Key("job_id");
  w.Int(snapshot.id);
  w.Key("state");
  w.String(JobStateName(snapshot.state));
  w.Key("solver");
  w.String(snapshot.solver);
  w.Key("instance");
  w.String(snapshot.instance);
  w.Key("instance_digest");
  w.String(snapshot.instance_digest);
  w.Key("trace_id");
  w.String(snapshot.trace_id);
  w.Key("queued_ms");
  w.Int(snapshot.queued_ms);
  w.Key("started_ms");
  w.Int(snapshot.started_ms);
  w.Key("finished_ms");
  w.Int(snapshot.finished_ms);
  if (!snapshot.termination.empty()) {
    w.Key("termination");
    w.String(snapshot.termination);
  }
  if (!snapshot.error.empty()) {
    w.Key("error");
    w.String(snapshot.error);
  }
  if (include_payloads) {
    w.Key("progress");
    w.Raw(snapshot.progress_json);
    if (!snapshot.result_json.empty()) {
      w.Key("result");
      w.Raw(snapshot.result_json);
    }
  }
  w.EndObject();
  return std::move(w).TakeString() + "\n";
}

SolveService::SolveService(std::unique_ptr<JobManager> jobs)
    : jobs_(std::move(jobs)) {}

Result<std::unique_ptr<SolveService>> SolveService::Create(
    JobManager::Options options) {
  EMP_ASSIGN_OR_RETURN(std::unique_ptr<JobManager> jobs,
                       JobManager::Create(std::move(options)));
  return std::unique_ptr<SolveService>(new SolveService(std::move(jobs)));
}

obs::HttpServer::Handler SolveService::Handler() {
  return [this](const HttpRequest& request) { return Handle(request); };
}

std::optional<HttpResponse> SolveService::Handle(const HttpRequest& request) {
  if (request.target == "/solve") return HandleSolve(request);
  if (request.target == "/stats") {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    return HttpResponse{200, "application/json",
                        jobs_->StatsJson() + "\n", {}};
  }
  if (request.target == "/jobs") {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    JsonWriter w(2);
    w.BeginObject();
    w.Key("jobs");
    w.BeginArray();
    for (const JobSnapshot& snapshot : jobs_->List()) {
      w.Raw(JobSnapshotToJson(snapshot, /*include_payloads=*/false));
    }
    w.EndArray();
    w.EndObject();
    return HttpResponse{
        200, "application/json", std::move(w).TakeString() + "\n", {}};
  }
  constexpr std::string_view kJobsPrefix = "/jobs/";
  if (request.target.compare(0, kJobsPrefix.size(), kJobsPrefix) == 0) {
    return HandleJob(request, std::string_view(request.target)
                                  .substr(kJobsPrefix.size()));
  }
  return std::nullopt;  // fall through to the built-in obs routes
}

HttpResponse SolveService::HandleSolve(const HttpRequest& request) {
  if (request.method != "POST") return MethodNotAllowed(request, "POST");
  Result<JobRequest> parsed = ParseSolveRequest(request.body);
  if (!parsed.ok()) return ErrorFromStatus(parsed.status());
  Result<JobSnapshot> submitted = jobs_->Submit(*parsed);
  if (!submitted.ok()) return ErrorFromStatus(submitted.status());
  if (submitted->state == JobState::kRejected) {
    // Admission refusal: the envelope plus the recorded job's id, so the
    // client can still audit the refusal under /jobs/<id>.
    JsonWriter w(2);
    w.BeginObject();
    w.Key("job_id");
    w.Int(submitted->id);
    w.Key("error");
    w.BeginObject();
    w.Key("code");
    w.String("queue_full");
    w.Key("message");
    w.String(submitted->error);
    w.EndObject();
    w.EndObject();
    return HttpResponse{
        429, "application/json", std::move(w).TakeString() + "\n", {}};
  }
  return HttpResponse{202, "application/json",
                      JobSnapshotToJson(*submitted, /*include_payloads=*/true),
                      {}};
}

HttpResponse SolveService::HandleJob(const HttpRequest& request,
                                     std::string_view rest) {
  const size_t slash = rest.find('/');
  const std::string id_text(rest.substr(0, slash));
  const std::string action(
      slash == std::string_view::npos ? "" : std::string(rest.substr(slash)));

  // Strict parse: decimal digits only. strtoll alone would accept "+5",
  // " 5", "5x" prefixes via partial consumption, negative ids, and would
  // silently clamp overflow to LLONG_MAX — all of which must 404 with an
  // explicit message instead of aliasing a real id.
  const bool all_digits =
      !id_text.empty() &&
      std::all_of(id_text.begin(), id_text.end(),
                  [](unsigned char c) { return std::isdigit(c) != 0; });
  if (!all_digits) {
    return JsonErrorResponse(404, "not_found",
                             "malformed job id '" + id_text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const long long job_id = std::strtoll(id_text.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0') {
    return JsonErrorResponse(404, "not_found",
                             "job id '" + id_text + "' out of range");
  }

  if (action.empty()) {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    Result<JobSnapshot> snapshot = jobs_->Get(job_id);
    if (!snapshot.ok()) return ErrorFromStatus(snapshot.status());
    return HttpResponse{
        200, "application/json",
        JobSnapshotToJson(*snapshot, /*include_payloads=*/true), {}};
  }
  if (action == "/journal") {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    Result<std::string> jsonl = jobs_->JournalJsonl(job_id);
    if (!jsonl.ok()) return ErrorFromStatus(jsonl.status());
    return HttpResponse{200, "application/x-ndjson", *std::move(jsonl), {}};
  }
  if (action == "/cancel") {
    if (request.method != "POST") return MethodNotAllowed(request, "POST");
    Result<JobSnapshot> snapshot = jobs_->Cancel(job_id);
    if (!snapshot.ok()) return ErrorFromStatus(snapshot.status());
    return HttpResponse{
        200, "application/json",
        JobSnapshotToJson(*snapshot, /*include_payloads=*/true), {}};
  }
  if (action == "/trace") {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    Result<std::string> trace = jobs_->TraceJson(job_id);
    if (!trace.ok()) return ErrorFromStatus(trace.status());
    return HttpResponse{200, "application/json", *std::move(trace) + "\n",
                        {}};
  }
  if (action == "/curve") {
    if (request.method != "GET") return MethodNotAllowed(request, "GET");
    Result<std::string> curve = jobs_->CurveJson(job_id);
    if (!curve.ok()) return ErrorFromStatus(curve.status());
    return HttpResponse{200, "application/json", *std::move(curve) + "\n",
                        {}};
  }
  return JsonErrorResponse(
      404, "not_found",
      "no route for " + request.target +
          "; job routes: /jobs/<id>, /jobs/<id>/journal, /jobs/<id>/trace, "
          "/jobs/<id>/curve, /jobs/<id>/cancel");
}

}  // namespace service
}  // namespace emp
