#include "serve/protocol.hh"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/rng.hh"
#include "common/status.hh"
#include "matrix/mm_io.hh"
#include "store/container.hh"
#include "workloads/generators.hh"

namespace copernicus {

namespace {

/** 2^53, the largest integer a JSON number (a double) holds exactly. */
constexpr std::int64_t maxExactInteger = std::int64_t{1} << 53;

/**
 * The one value check behind the readers below and the partition_sizes
 * elements: @p value (nullptr when absent) if it has @p kind and, if a
 * number, lies in [lo, hi] ((lo, hi] when @p openLow) and is integral
 * when @p integer; else FatalError "<where>: <key> must be <expected>".
 */
const JsonValue *
checkedValue(const JsonValue *value, std::string_view where,
             std::string_view key, JsonValue::Kind kind, double lo = 0,
             double hi = 0, bool integer = false, bool openLow = false)
{
    if (value == nullptr)
        return nullptr;
    const double x = value->number;
    if (value->kind == kind &&
        (kind != JsonValue::Kind::Number ||
         ((openLow ? x > lo : x >= lo) && x <= hi &&
          (!integer || std::trunc(x) == x))))
        return value;
    std::ostringstream message;
    message << std::setprecision(17) << where
            << (where.empty() ? "" : ": ") << key << " must be ";
    if (kind == JsonValue::Kind::String)
        message << "a string";
    else if (kind == JsonValue::Kind::Bool)
        message << "true or false";
    else
        message << (integer ? "an integer in " : "a number in ")
                << (openLow ? '(' : '[') << lo << ", " << hi << ']';
    fatal(message.str());
}

} // namespace

const std::vector<Endpoint> &
allEndpoints()
{
    static const std::vector<Endpoint> endpoints = {
        Endpoint::Ping,       Endpoint::Stats,
        Endpoint::Shutdown,   Endpoint::Sleep,
        Endpoint::RunStudy,   Endpoint::PlanFormats,
        Endpoint::Advise,     Endpoint::ValidateTile,
        Endpoint::Metrics,    Endpoint::DumpFlightRec,
        Endpoint::StoreInfo,
    };
    return endpoints;
}

std::string_view
endpointName(Endpoint endpoint)
{
    switch (endpoint) {
      case Endpoint::Ping: return "ping";
      case Endpoint::Stats: return "stats";
      case Endpoint::Shutdown: return "shutdown";
      case Endpoint::Sleep: return "sleep";
      case Endpoint::RunStudy: return "run_study";
      case Endpoint::PlanFormats: return "plan_formats";
      case Endpoint::Advise: return "advise";
      case Endpoint::ValidateTile: return "validate_tile";
      case Endpoint::Metrics: return "metrics";
      case Endpoint::DumpFlightRec: return "dump_flightrec";
      case Endpoint::StoreInfo: return "store_info";
    }
    panic("endpointName: unhandled endpoint");
}

bool
parseEndpoint(std::string_view name, Endpoint &out)
{
    for (Endpoint endpoint : allEndpoints()) {
        if (endpointName(endpoint) == name) {
            out = endpoint;
            return true;
        }
    }
    return false;
}

std::string_view
requestParseErrorName(RequestParseError error)
{
    switch (error) {
      case RequestParseError::None: return "none";
      case RequestParseError::MalformedJson: return "malformed_json";
      case RequestParseError::NotAnObject: return "not_an_object";
      case RequestParseError::MissingOp: return "missing_op";
      case RequestParseError::UnknownOp: return "unknown_op";
      case RequestParseError::BadParams: return "bad_params";
    }
    panic("requestParseErrorName: unhandled error");
}

bool
parseRequest(const std::string &line, ServeRequest &out,
             std::string &error, RequestParseError &why)
{
    why = RequestParseError::None;
    JsonValue root;
    if (!parseJson(line, root)) {
        error = "request is not valid JSON";
        why = RequestParseError::MalformedJson;
        return false;
    }
    if (!root.isObject()) {
        error = "request must be a JSON object";
        why = RequestParseError::NotAnObject;
        return false;
    }
    const JsonValue *op = root.find("op");
    if (op == nullptr || !op->isString()) {
        error = "request needs a string \"op\" field";
        why = RequestParseError::MissingOp;
        return false;
    }
    if (!parseEndpoint(op->text, out.endpoint)) {
        error = "unknown op '" + op->text + "'";
        why = RequestParseError::UnknownOp;
        return false;
    }
    // The id is best-effort like the trace below: anything but an
    // exact non-negative integer reads as 0, never a parse failure.
    const JsonValue *id = root.find("id");
    const bool exactId =
        id != nullptr && id->isNumber() && id->number >= 0 &&
        id->number <= static_cast<double>(maxExactInteger) &&
        std::trunc(id->number) == id->number;
    out.id = exactId ? static_cast<std::uint64_t>(id->number) : 0;
    try {
        out.timeoutMs = realParam(root, "request", "timeout_ms", 0, 0,
                                  maxRequestTimeoutMs);
    } catch (const FatalError &e) {
        error = e.what();
        why = RequestParseError::BadParams;
        return false;
    }
    const JsonValue *params = root.find("params");
    if (params != nullptr && !params->isObject()) {
        error = "\"params\" must be an object";
        why = RequestParseError::BadParams;
        return false;
    }
    out.params = params != nullptr ? *params : JsonValue{};
    out.params.kind = JsonValue::Kind::Object;
    // Trace propagation is strictly best-effort: absent, non-object or
    // unparseable ids leave the request untraced rather than failing
    // it.
    out.trace = TraceContext{};
    const JsonValue *trace = root.find("trace");
    if (trace != nullptr && trace->isObject()) {
        out.trace.traceId =
            traceIdFromHex(trace->stringOr("trace_id", ""));
        out.trace.spanId =
            traceIdFromHex(trace->stringOr("parent_span_id", ""));
        if (!out.trace.valid())
            out.trace = TraceContext{};
    }
    return true;
}

std::string
okResponse(const ServeRequest &request, const std::string &resultJson)
{
    std::ostringstream out;
    out << "{\"ok\": true, \"id\": " << request.id << ", \"op\": ";
    writeJsonString(out, endpointName(request.endpoint));
    if (request.trace.valid()) {
        out << ", \"trace_id\": ";
        writeJsonString(out, traceIdToHex(request.trace.traceId));
    }
    out << ", \"result\": " << resultJson << '}';
    return out.str();
}

std::string
errorResponse(std::uint64_t id, std::string_view op,
              std::string_view code, const std::string &message,
              std::uint64_t traceId)
{
    std::ostringstream out;
    out << "{\"ok\": false, \"id\": " << id << ", \"op\": ";
    writeJsonString(out, op);
    out << ", \"error\": ";
    writeJsonString(out, code);
    out << ", \"message\": ";
    writeJsonString(out, message);
    if (traceId != 0) {
        out << ", \"trace_id\": ";
        writeJsonString(out, traceIdToHex(traceId));
    }
    out << '}';
    return out.str();
}

std::int64_t
intParam(const JsonValue &object, std::string_view where,
         std::string_view key, std::int64_t fallback, std::int64_t lo,
         std::int64_t hi)
{
    const JsonValue *value = checkedValue(
        object.find(key), where, key, JsonValue::Kind::Number,
        static_cast<double>(lo), static_cast<double>(hi), true);
    return value != nullptr ? static_cast<std::int64_t>(value->number)
                            : fallback;
}

double
realParam(const JsonValue &object, std::string_view where,
          std::string_view key, double fallback, double lo, double hi,
          bool openLow)
{
    const JsonValue *value =
        checkedValue(object.find(key), where, key,
                     JsonValue::Kind::Number, lo, hi, false, openLow);
    return value != nullptr ? value->number : fallback;
}

std::string
stringParam(const JsonValue &object, std::string_view where,
            std::string_view key, std::string_view fallback)
{
    const JsonValue *value = checkedValue(object.find(key), where, key,
                                          JsonValue::Kind::String);
    return value != nullptr ? value->text : std::string(fallback);
}

bool
boolParam(const JsonValue &object, std::string_view where,
          std::string_view key, bool fallback)
{
    const JsonValue *value = checkedValue(object.find(key), where, key,
                                          JsonValue::Kind::Bool);
    return value != nullptr ? value->boolean : fallback;
}

TripletMatrix
matrixFromSpec(const JsonValue &spec, Index maxDim)
{
    fatalIf(!spec.isObject(), "request needs a \"matrix\" object");
    constexpr std::string_view where = "matrix spec";
    const std::string kind = stringParam(spec, where, "kind", "");
    fatalIf(kind.empty(), "matrix spec needs a \"kind\" string");
    const auto dim = [&](std::string_view key, Index fallback,
                         Index cap) {
        return static_cast<Index>(
            intParam(spec, where, key, fallback, 1, cap));
    };

    Rng rng(static_cast<std::uint64_t>(
        intParam(spec, where, "seed", 1, 0, maxExactInteger)));

    if (kind == "random") {
        const Index n = dim("n", 256, maxDim);
        const double density =
            realParam(spec, where, "density", 0.05, 0, 1, true);
        return randomMatrix(n, density, rng);
    }
    if (kind == "band") {
        const Index n = dim("n", 256, maxDim);
        const Index width = dim("width", 8, maxDim);
        const double fill = realParam(spec, where, "fill", 1.0, 0, 1, true);
        return bandMatrix(n, width, rng, fill);
    }
    if (kind == "diagonal") {
        const Index n = dim("n", 256, maxDim);
        return diagonalMatrix(n, rng);
    }
    if (kind == "stencil2d") {
        // The matrix dimension is nx*ny, so the per-axis cap is the
        // square root of the dimension cap.
        const Index axisCap = std::max<Index>(
            1, static_cast<Index>(std::sqrt(static_cast<double>(maxDim))));
        const Index nx = dim("nx", 32, axisCap);
        const Index ny = dim("ny", 32, axisCap);
        return stencil2d(nx, ny);
    }
    if (kind == "rmat") {
        const Index n = dim("n", 512, maxDim);
        const std::int64_t edges =
            intParam(spec, where, "edges", std::int64_t{n} * 4, 1,
                     std::int64_t{maxDim} * 64);
        return rmatGraph(n, static_cast<std::size_t>(edges), rng);
    }
    if (kind == "pruned") {
        const Index rows = dim("rows", 256, maxDim);
        const Index cols = dim("cols", rows, maxDim);
        const double density =
            realParam(spec, where, "density", 0.3, 0, 1, true);
        return prunedLayer(rows, cols, density, rng,
                           boolParam(spec, where, "block", false));
    }
    if (kind == "file") {
        const std::string path = stringParam(spec, where, "path", "");
        fatalIf(path.empty(), "matrix spec: file kind needs a path");
        TripletMatrix matrix = readMatrixMarketFile(path);
        fatalIf(matrix.rows() > maxDim || matrix.cols() > maxDim,
                "matrix file '" + path +
                    "' exceeds the server dimension cap of " +
                    std::to_string(maxDim));
        return matrix;
    }
    if (kind == "cbm") {
        const std::string path = stringParam(spec, where, "path", "");
        fatalIf(path.empty(), "matrix spec: cbm kind needs a path");
        const CbmReader reader(path);
        fatalIf(reader.rows() > maxDim || reader.cols() > maxDim,
                "cbm container '" + path +
                    "' exceeds the server dimension cap of " +
                    std::to_string(maxDim));
        return reader.toTripletMatrix();
    }
    fatal("matrix spec: unknown kind '" + kind + "'");
}

AdvisorGoal
goalFromName(std::string_view name)
{
    if (name == "latency")
        return AdvisorGoal::Latency;
    if (name == "throughput")
        return AdvisorGoal::Throughput;
    if (name == "power")
        return AdvisorGoal::Power;
    if (name == "bandwidth")
        return AdvisorGoal::Bandwidth;
    if (name == "balanced")
        return AdvisorGoal::Balanced;
    fatal("unknown advisor goal '" + std::string(name) +
          "' (expected latency|throughput|power|bandwidth|balanced)");
}

std::vector<FormatKind>
formatsFromParam(const JsonValue *array,
                 const std::vector<FormatKind> &fallback)
{
    if (array == nullptr)
        return fallback;
    fatalIf(!array->isArray(), "\"formats\" must be an array of names");
    std::vector<FormatKind> kinds;
    for (const JsonValue &entry : array->elements) {
        fatalIf(!entry.isString(), "format names must be strings");
        kinds.push_back(parseFormatKind(entry.text));
    }
    fatalIf(kinds.empty(), "\"formats\" must not be empty");
    return kinds;
}

std::vector<Index>
partitionSizesFromParam(const JsonValue *array,
                        const std::vector<Index> &fallback)
{
    if (array == nullptr)
        return fallback;
    fatalIf(!array->isArray(),
            "\"partition_sizes\" must be an array of integers");
    std::vector<Index> sizes;
    for (std::size_t i = 0; i < array->elements.size(); ++i) {
        const std::string key = "partition_sizes[" + std::to_string(i) + "]";
        sizes.push_back(static_cast<Index>(
            checkedValue(&array->elements[i], "", key,
                         JsonValue::Kind::Number, 1, maxPartitionSize,
                         true)
                ->number));
    }
    fatalIf(sizes.empty(), "\"partition_sizes\" must not be empty");
    return sizes;
}

} // namespace copernicus
