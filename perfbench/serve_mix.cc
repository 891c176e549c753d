/**
 * @file
 * serve_mix: a freshly spawned copernicus_serve daemon with its shipped
 * defaults (observability on, 8 MiB result memo, start-up lint) under
 * an open loop. A seeded schedule fixes each request's due time, op and
 * matrix spec; one CPB1 connection carries the whole loop, a sender
 * thread writes each request at its due time and a receiver thread
 * claims the responses in any order. Latency is timed from the due
 * time, so a stall also charges the requests queued behind it.
 *
 * The mix: advise, plan_formats and run_study (p = 16) over random,
 * band, rmat and stencil2d specs at n ~ 2048, plus a few ping probes.
 * Half of the advise/plan/study requests draw from a small hot pool of
 * repeated specs (which the memo can answer), half are fresh specs
 * (which it cannot). Starting the daemon (process start, lint, socket
 * ready) is set-up; an untimed warm-up then asks every hot spec once,
 * so the measured window starts with the memo holding the hot pool.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hh"
#include "common/rng.hh"
#include "core/advisor.hh"
#include "core/scheduler.hh"
#include "core/study.hh"
#include "formats/encode_cache.hh"
#include "matrix/partitioner.hh"
#include "matrix/stats.hh"
#include "replay.hh"
#include "serve/client.hh"
#include "serve/framing.hh"
#include "serve/protocol.hh"
#include "store/container.hh"

extern char **environ;

namespace perfbench {

using namespace copernicus;

namespace {

constexpr std::string_view name = "serve_mix";

enum class Op { Ping, Advise, Plan, Study };
constexpr std::array<std::string_view, 4> opNames = {"ping", "advise",
                                                     "plan_formats",
                                                     "run_study"};

std::string_view
opName(Op op)
{
    return opNames[static_cast<std::size_t>(op)];
}

/** The server's Index cap on generated matrices (shipped default). */
constexpr Index maxMatrixDim = 4096;

std::string
num(double v)
{
    std::ostringstream out;
    writeJsonNumber(out, v);
    return out.str();
}

std::string
str(std::string_view text)
{
    std::ostringstream out;
    writeJsonString(out, text);
    return out.str();
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/** Seeded matrix specs, as the JSON text both the wire and the
 *  in-process recomputation parse. */
class SpecSource
{
  public:
    explicit SpecSource(std::uint64_t seed) : rng(seed) {}

    /** Two specs per kind with fixed shape parameters. */
    std::vector<std::string>
    hotPool()
    {
        std::vector<std::string> pool;
        for (int i = 0; i < 2; ++i) {
            pool.push_back(random(0.0005, freshSeed()));
            pool.push_back(band(16, 0.7, freshSeed()));
            pool.push_back(rmat(8192, freshSeed()));
        }
        for (const std::string &spec : {stencil(40, 40), stencil(44, 36)}) {
            stencils.insert(spec);
            pool.push_back(spec);
        }
        return pool;
    }

    /**
     * A spec no earlier call returned, of family @p kind % 4. Shapes
     * match the hot pool's; only the generator seed (the grid for
     * stencil2d) is new, so fresh and hot requests cost alike.
     */
    std::string
    fresh(std::size_t kind)
    {
        switch (kind % 4) {
          case 0:
            return random(0.0005, freshSeed());
          case 1:
            return band(16, 0.7, freshSeed());
          case 2:
            return rmat(8192, freshSeed());
          default:
            for (;;) {
                const auto nx = static_cast<Index>(36 + rng.below(12));
                const auto ny = static_cast<Index>(36 + rng.below(12));
                std::string spec = stencil(nx, ny);
                if (stencils.insert(spec).second)
                    return spec;
            }
        }
    }

  private:
    std::uint64_t
    freshSeed()
    {
        for (;;) {
            const std::uint64_t seed = 1 + rng.below(1u << 30);
            if (seeds.insert(seed).second)
                return seed;
        }
    }

    static std::string
    random(double density, std::uint64_t seed)
    {
        return "{\"kind\": \"random\", \"n\": 2048, \"density\": " +
               num(density) + ", \"seed\": " + std::to_string(seed) + "}";
    }

    static std::string
    band(Index width, double fill, std::uint64_t seed)
    {
        return "{\"kind\": \"band\", \"n\": 2048, \"width\": " +
               std::to_string(width) + ", \"fill\": " + num(fill) +
               ", \"seed\": " + std::to_string(seed) + "}";
    }

    static std::string
    rmat(std::size_t edges, std::uint64_t seed)
    {
        return "{\"kind\": \"rmat\", \"n\": 2048, \"edges\": " +
               std::to_string(edges) + ", \"seed\": " + std::to_string(seed) +
               "}";
    }

    static std::string
    stencil(Index nx, Index ny)
    {
        return "{\"kind\": \"stencil2d\", \"nx\": " + std::to_string(nx) +
               ", \"ny\": " + std::to_string(ny) + "}";
    }

    Rng rng;
    std::set<std::uint64_t> seeds;
    std::set<std::string> stencils;
};

std::string
paramsFor(Op op, const std::string &spec)
{
    switch (op) {
      case Op::Ping:
        return "";
      case Op::Advise:
        return "{\"matrix\": " + spec + "}";
      case Op::Plan:
        return "{\"matrix\": " + spec + ", \"partition_size\": 16}";
      case Op::Study:
        return "{\"matrix\": " + spec + ", \"partition_sizes\": [16]}";
    }
    return "";
}

struct Request
{
    double dueS = 0; ///< offset from the schedule start
    Op op = Op::Ping;
    bool hot = false;
    std::string spec;
};

/**
 * The open-loop schedule: round(rate * window) requests, one per 1/rate
 * slot at a seeded offset within its slot. The ops repeat spec.json's
 * fixed cycle (A advise, P plan_formats, S run_study, . ping); each op
 * alternates hot and fresh, hot requests walk the pool and fresh ones
 * the four families in turn. Arrivals are as regular as a steady client
 * population, and every seed gets the same op interleaving, so one
 * run's percentiles do not hinge on where bursts of heavy requests (and
 * the encode-cache evictions they trigger) happened to fall; the seed
 * varies the matrices and the arrival offsets.
 */
std::vector<Request>
makeSchedule(std::uint64_t seed, double window, SpecSource &specs,
             const std::vector<std::string> &hotPool)
{
    const double rate = specNumber(name, "offered_rps");
    const std::string cycle =
        spec().find("workloads")->find(name)->stringOr("cycle", "");
    if (cycle.empty() || cycle.find_first_not_of("APS.") != std::string::npos)
        throw std::runtime_error("perfbench: bad serve_mix cycle");
    const auto n = static_cast<std::size_t>(std::llround(rate * window));
    Rng rng(seed ^ 0x5ced01eull);
    std::map<Op, std::size_t> perOp;
    std::map<std::pair<Op, bool>, std::size_t> perClass;
    std::vector<Request> reqs(n);
    for (std::size_t i = 0; i < n; ++i) {
        Request &r = reqs[i];
        const char c = cycle[i % cycle.size()];
        r.op = c == 'A' ? Op::Advise : c == 'P' ? Op::Plan
             : c == 'S' ? Op::Study : Op::Ping;
        r.dueS = (static_cast<double>(i) + rng.uniform()) / rate;
        if (r.op == Op::Ping)
            continue;
        r.hot = perOp[r.op]++ % 2 == 0;
        const std::size_t k = perClass[{r.op, r.hot}]++;
        r.spec = r.hot ? hotPool[k % hotPool.size()] : specs.fresh(k);
    }
    return reqs;
}

// ---------------------------------------------------------------------
// In-process recomputation (the reference payloads and the replay)
// ---------------------------------------------------------------------

TripletMatrix
materialize(const std::string &spec)
{
    JsonValue parsed;
    if (!parseJson(spec, parsed))
        throw std::runtime_error("perfbench: bad spec " + spec);
    const Span span(Layer::Generate);
    return matrixFromSpec(parsed, maxMatrixDim);
}

std::string
computeAdvise(const std::string &spec)
{
    const TripletMatrix matrix = materialize(spec);
    {
        // The daemon computes the memo key on every request.
        const Span span(Layer::Hash);
        contentHashOf(matrix);
    }
    const MatrixStats mstats = [&] {
        const Span span(Layer::Stats);
        return computeStats(matrix);
    }();
    const AdvisorGoal goal = goalFromName("balanced");
    const Recommendation rec = [&] {
        const Span span(Layer::Advise);
        return advise(mstats, goal, false);
    }();
    std::ostringstream out;
    out << "{\"format\": " << str(formatName(rec.format))
        << ", \"partition_size\": " << rec.partitionSize
        << ", \"requires_tailored_engine\": "
        << (rec.requiresTailoredEngine ? "true" : "false")
        << ", \"goal\": " << str(goalName(goal)) << ", \"alternatives\": [";
    for (std::size_t i = 0; i < rec.alternatives.size(); ++i)
        out << (i > 0 ? ", " : "") << str(formatName(rec.alternatives[i]));
    out << "], \"rationale\": " << str(rec.rationale)
        << ", \"matrix\": {\"rows\": " << mstats.rows
        << ", \"cols\": " << mstats.cols << ", \"nnz\": " << mstats.nnz
        << ", \"density\": " << num(mstats.density)
        << ", \"bandwidth\": " << mstats.bandwidth << "}}";
    return out.str();
}

std::string
computePlan(const std::string &spec)
{
    const TripletMatrix matrix = materialize(spec);
    {
        const Span span(Layer::Hash);
        contentHashOf(matrix);
    }
    const Partitioning parts = [&] {
        const Span span(Layer::Partition);
        return partition(matrix, 16);
    }();
    // Encode every candidate first so planFormats' own time is the
    // scheduling over cached encodings.
    if (Tracer::instance().enabled()) {
        for (const Tile &tile : parts.tiles)
            for (FormatKind kind : paperFormats())
                Tracer::leaf(Layer::Encode, [&] {
                    return encodeCached(defaultRegistry(), kind, tile);
                });
    }
    const FormatPlan plan = [&] {
        const Span span(Layer::Plan);
        return planFormats(parts, paperFormats(),
                           SchedulerObjective::Bottleneck, HlsConfig(),
                           defaultRegistry(), 1);
    }();
    std::ostringstream out;
    out << "{\"tiles\": " << plan.perTile.size() << ", \"histogram\": {";
    bool first = true;
    for (const auto &[kind, tiles] : plan.histogram) {
        out << (first ? "" : ", ") << str(formatName(kind)) << ": " << tiles;
        first = false;
    }
    out << "}}";
    return out.str();
}

StudyConfig
studyConfig()
{
    StudyConfig cfg;
    cfg.partitionSizes = {16};
    cfg.formats = paperFormats();
    cfg.jobs = 1;
    return cfg;
}

StudyResult
runStudy(const TripletMatrix &matrix)
{
    Study study(studyConfig());
    study.addWorkload("request", matrix);
    return study.run();
}

std::string
studyPayload(const StudyResult &result)
{
    std::ostringstream out;
    out << "{\"rows\": " << result.rows.size()
        << ", \"resumed_cells\": 0, \"by_format\": [";
    const std::vector<FormatMetrics> agg = result.aggregateByFormat();
    for (std::size_t i = 0; i < agg.size(); ++i) {
        out << (i > 0 ? ", " : "") << "{\"format\": "
            << str(formatName(agg[i].format))
            << ", \"mean_sigma\": " << num(agg[i].meanSigma)
            << ", \"throughput_bps\": " << num(agg[i].throughput)
            << ", \"balance_ratio\": " << num(agg[i].balanceRatio)
            << ", \"bw_util\": " << num(agg[i].bandwidthUtilization)
            << ", \"total_seconds\": " << num(agg[i].totalSeconds)
            << ", \"dyn_power_w\": " << num(agg[i].dynamicPowerW) << '}';
    }
    out << "]}";
    return out.str();
}

std::string
compute(Op op, const std::string &spec)
{
    switch (op) {
      case Op::Advise:
        return computeAdvise(spec);
      case Op::Plan:
        return computePlan(spec);
      case Op::Study:
        return studyPayload(runStudy(materialize(spec)));
      case Op::Ping:
        break;
    }
    return "{\"pong\": true}";
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

/** One spawned copernicus_serve; killed and reaped if never stopped. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &scratch, int index)
    {
        const std::string tag =
            std::to_string(::getpid()) + "-" + std::to_string(index);
        socketPath = scratch + "/pb-" + tag + ".sock";
        flightrecPath = scratch + "/pb-" + tag + ".flightrec.json";
        logPath = scratch + "/pb-" + tag + ".daemon.log";
        std::vector<std::string> argv = {binary, "--socket", socketPath,
                                         "--flightrec", flightrecPath};
        std::vector<char *> cargv;
        for (std::string &a : argv)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                         logPath.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                         STDERR_FILENO);
        const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                                   cargv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            throw std::runtime_error("perfbench: cannot start " + binary +
                                     ": " + std::strerror(rc));
        const Clock::time_point start = Clock::now();
        for (;;) {
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                throw std::runtime_error(
                    "perfbench: the daemon exited during start-up (see " +
                    logPath + ")");
            }
            try {
                ServeClient client = ServeClient::connectUnix(socketPath);
                client.setReceiveTimeoutMs(10000);
                if (client.requestLine("{\"op\": \"ping\", \"id\": 0}")
                        .find("\"ok\": true") != std::string::npos)
                    break;
            } catch (const std::exception &) {
            }
            if (secondsSince(start) > 60)
                throw std::runtime_error("perfbench: the daemon never "
                                         "answered a ping");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    double peakRss() const { return peakRssMb(std::to_string(pid)); }

    /** One NDJSON request on a fresh connection; the raw response. */
    std::string
    call(const std::string &op, const std::string &params = "") const
    {
        ServeClient client = ServeClient::connectUnix(socketPath);
        client.setReceiveTimeoutMs(60000);
        std::string line = "{\"op\": " + str(op) + ", \"id\": 1";
        if (!params.empty())
            line += ", \"params\": " + params;
        return client.requestLine(line + "}");
    }

    /** Graceful shutdown, then reap; SIGKILL if it does not drain. */
    void
    stop()
    {
        if (pid <= 0)
            return;
        try {
            call("shutdown");
        } catch (const std::exception &) {
        }
        const Clock::time_point start = Clock::now();
        int status = 0;
        while (::waitpid(pid, &status, WNOHANG) == 0) {
            if (secondsSince(start) > 30) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid = -1;
        std::remove(socketPath.c_str());
        std::remove(flightrecPath.c_str());
        std::remove(logPath.c_str());
    }

    std::string socketPath;

  private:
    pid_t pid = -1;
    std::string flightrecPath;
    std::string logPath;
};

/** The "result" member of a response line, verbatim. */
std::string
resultOf(const std::string &response)
{
    const std::string key = ", \"result\": ";
    const std::size_t at = response.find(key);
    if (at == std::string::npos || response.empty() || response.back() != '}')
        return "";
    const std::size_t start = at + key.size();
    return response.substr(start, response.size() - 1 - start);
}

// ---------------------------------------------------------------------
// The open loop
// ---------------------------------------------------------------------

struct Reply
{
    bool answered = false;
    bool ok = false;
    std::string error;
    std::string traceId;
    std::string result;
    double sentS = 0; ///< offsets from the schedule start
    double doneS = 0;
};

struct LoopResult
{
    std::vector<Reply> replies;
    double maxLateMs = 0;
};

int
connectSocket(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw std::runtime_error("perfbench: socket(): " +
                                 std::string(std::strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("perfbench: connect(" + path +
                                 "): " + std::strerror(errno));
    }
    return fd;
}

void
sendAll(int fd, const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            throw std::runtime_error("perfbench: send(): " +
                                     std::string(std::strerror(errno)));
        sent += static_cast<std::size_t>(n);
    }
}

LoopResult
runOpenLoop(const std::string &socketPath, const std::vector<Request> &reqs,
            double drainLimitS)
{
    std::vector<std::string> frames(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        std::string payload = "{\"op\": " + str(opName(reqs[i].op)) +
                              ", \"id\": " + std::to_string(i + 1);
        const std::string params = paramsFor(reqs[i].op, reqs[i].spec);
        if (!params.empty())
            payload += ", \"params\": " + params;
        frames[i] = encodeFrame(FrameType::Request, i + 1, payload + "}");
    }

    const int fd = connectSocket(socketPath);
    struct Close
    {
        int fd;
        ~Close() { ::close(fd); }
    } closer{fd};
    sendAll(fd, std::string(framingMagic));

    LoopResult out;
    out.replies.resize(reqs.size());
    std::atomic<double> maxLateMs{0};
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
    const auto offset = [&t0] { return secondsSince(t0); };
    std::exception_ptr senderError;
    std::thread sender([&] {
        try {
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                // Sleep to just short of the due time, then spin, so the
                // generator's own wake-up delay stays out of the latency.
                const Clock::time_point due =
                    t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(reqs[i].dueS));
                std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
                while (Clock::now() < due) {
                }
                const double now = offset();
                out.replies[i].sentS = now;
                maxLateMs = std::max(maxLateMs.load(),
                                     (now - reqs[i].dueS) * 1e3);
                sendAll(fd, frames[i]);
            }
        } catch (...) {
            senderError = std::current_exception();
        }
    });

    // The receiver runs on this thread until every request is answered
    // or the drain limit after the last due time passes.
    FrameDecoder decoder;
    std::size_t answered = 0;
    const double lastDue = reqs.empty() ? 0 : reqs.back().dueS;
    char buf[1 << 16];
    while (answered < reqs.size() && offset() < lastDue + drainLimitS) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 50) <= 0)
            continue;
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        const double now = offset();
        decoder.feed(buf, static_cast<std::size_t>(n));
        Frame frame;
        DecodeResult r;
        while ((r = decoder.next(frame)) == DecodeResult::GotFrame) {
            if (frame.streamId == 0 || frame.streamId > reqs.size())
                continue;
            Reply &reply = out.replies[frame.streamId - 1];
            if (reply.answered)
                continue;
            reply.answered = true;
            reply.doneS = now;
            ++answered;
            JsonValue parsed;
            if (parseJson(frame.payload, parsed)) {
                reply.ok = parsed.boolOr("ok", false);
                reply.error = parsed.stringOr("error", "");
                reply.traceId = parsed.stringOr("trace_id", "");
            }
            if (reply.ok)
                reply.result = resultOf(frame.payload);
        }
        if (r == DecodeResult::Fatal)
            break;
    }
    ::shutdown(fd, SHUT_RDWR);
    sender.join();
    if (senderError)
        std::rethrow_exception(senderError);
    out.maxLateMs = maxLateMs.load();
    return out;
}

/** name -> value of one stats group in a stats payload, plus the memo
 *  counters as "memo.<name>". */
std::map<std::string, double>
statGroup(const std::string &statsResponse, std::string_view group)
{
    std::map<std::string, double> values;
    JsonValue doc;
    if (!parseJson(statsResponse, doc))
        return values;
    const JsonValue *result = doc.find("result");
    const JsonValue *groups = result ? result->find("groups") : nullptr;
    if (groups == nullptr)
        return values;
    for (const JsonValue &g : groups->elements) {
        if (g.stringOr("group", "") != group)
            continue;
        const JsonValue *stats = g.find("stats");
        for (const JsonValue &s : stats ? stats->elements
                                        : std::vector<JsonValue>{})
            if (const JsonValue *v = s.find("value"))
                values[s.stringOr("name", "")] = v->number;
    }
    if (const JsonValue *memo = result->find("memo"))
        for (const auto &[key, v] : memo->members)
            values["memo." + key] = v.number;
    return values;
}

} // namespace

Outcome
runServeMix(const Args &args, const std::string &daemonPath)
{
    Outcome out;
    SpecSource specs(args.seed);
    const std::vector<std::string> hotPool = specs.hotPool();
    const double window = std::max(1.0, args.seconds - 1.0);
    const std::vector<Request> reqs =
        makeSchedule(args.seed, window, specs, hotPool);

    // Set-up: start the daemon (spawn, start-up lint, socket ready)
    // several times; the last one serves the run.
    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    const int repeats = args.trace
                            ? 1
                            : static_cast<int>(specNumber(name, "setup_repeats"));
    for (int i = 0; i < repeats; ++i) {
        if (daemon)
            daemon->stop();
        const Clock::time_point start = Clock::now();
        daemon = std::make_unique<Daemon>(daemonPath, args.scratch, i);
        setups.push_back(secondsSince(start));
    }

    // Untimed warm-up: every hot spec once per op; these first answers
    // are what every later hot answer must repeat byte for byte.
    std::map<std::pair<Op, std::string>, std::string> first;
    for (const std::string &spec : hotPool)
        for (Op op : {Op::Advise, Op::Plan, Op::Study})
            first[{op, spec}] =
                resultOf(daemon->call(std::string(opName(op)),
                                      paramsFor(op, spec)));
    const std::map<std::string, double> before =
        statGroup(daemon->call("stats"), "serve");

    const LoopResult loop = runOpenLoop(daemon->socketPath, reqs,
                                        specNumber(name, "drain_limit_s"));

    const std::map<std::string, double> after =
        statGroup(daemon->call("stats"), "serve");
    JsonValue flightrec;
    parseJson(daemon->call("dump_flightrec"), flightrec);
    out.set("peak_rss_mb", daemon->peakRss(), "MB");
    daemon->stop();

    // Accounting: latency from the due time; a failed, refused or
    // unanswered request misses its limit.
    std::map<std::string, double> limitMs;
    for (Op op : {Op::Ping, Op::Advise, Op::Plan, Op::Study})
        limitMs[std::string(opName(op))] =
            specNumber(name, "limit_ms_" + std::string(opName(op)));
    std::vector<double> all;
    std::map<std::string, std::vector<double>> byClass;
    std::map<std::string, std::uint64_t> sent, okCount, failedCount, refused;
    std::uint64_t withinLimit = 0;
    double lastDone = 0;
    const double endS = reqs.empty() ? 0 : reqs.back().dueS +
                                               specNumber(name, "drain_limit_s");
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Request &req = reqs[i];
        const Reply &reply = loop.replies[i];
        const std::string op(opName(req.op));
        ++sent[op];
        ++out.attempted;
        const bool good = reply.answered && reply.ok;
        const double latencyMs =
            ((reply.answered ? reply.doneS : endS) - req.dueS) * 1e3;
        all.push_back(latencyMs);
        if (reply.answered)
            lastDone = std::max(lastDone, reply.doneS);
        if (!good) {
            ++out.failed;
            ++(reply.error == serve_error::queueFull ? refused : failedCount)[op];
            continue;
        }
        ++okCount[op];
        if (latencyMs <= limitMs[op])
            ++withinLimit;
        byClass[op].push_back(latencyMs);
        if (req.op != Op::Ping)
            byClass[op + (req.hot ? ".hot" : ".fresh")].push_back(latencyMs);
        if (req.hot) {
            const std::string &reference = first[{req.op, req.spec}];
            out.check(reply.result == reference,
                      "serve_mix: hot " + op + " answer for " + req.spec +
                          " differs from its first answer");
        }
    }
    for (const auto &[op, n] : sent)
        std::fprintf(stderr,
                     "serve_mix: %-12s sent %llu ok %llu failed %llu refused "
                     "%llu\n",
                     op.c_str(), static_cast<unsigned long long>(n),
                     static_cast<unsigned long long>(okCount[op]),
                     static_cast<unsigned long long>(failedCount[op]),
                     static_cast<unsigned long long>(refused[op]));
    std::fprintf(stderr, "serve_mix: the sender ran at most %.3f ms late\n",
                 loop.maxLateMs);

    // Every first answer must equal the in-process recomputation.
    for (const auto &[key, payload] : first)
        out.check(payload == compute(key.first, key.second),
                  "serve_mix: served " + std::string(opName(key.first)) +
                      " for " + key.second +
                      " differs from the in-process recomputation");

    const double goodput =
        lastDone > 0 ? static_cast<double>(withinLimit) / lastDone : 0;
    out.set("setup_s", median(setups), "s");
    out.set("throughput_per_s", goodput, "1/s");
    out.set("p50_ms", quantile(all, 0.5), "ms");
    out.set("p90_ms", quantile(all, 0.9), "ms");
    if (!args.trace)
        return out;

    // --- per-layer: the daemon's view of the same window ---
    out.set("serve.advise_hot_p50_ms", median(byClass["advise.hot"]), "ms");
    out.set("serve.advise_fresh_p50_ms", median(byClass["advise.fresh"]), "ms");
    out.set("serve.plan_hot_p50_ms", median(byClass["plan_formats.hot"]), "ms");
    out.set("serve.plan_fresh_p50_ms", median(byClass["plan_formats.fresh"]),
            "ms");
    out.set("serve.study_p50_ms", median(byClass["run_study"]), "ms");
    out.set("serve.goodput_rps", goodput, "1/s");
    out.set("serve.failed_frac",
            static_cast<double>(out.failed) / static_cast<double>(out.attempted),
            "frac");
    out.set("serve.generator_late_max_ms", loop.maxLateMs, "ms");
    double rejected = 0;
    for (const auto &[key, v] : after)
        if (key.size() > 9 && key.compare(key.size() - 9, 9, ".rejected") == 0)
            rejected += v - before.at(key);
    out.set("serve.rejected", rejected, "count");
    const auto delta = [&](const std::string &key) {
        const auto a = after.find(key);
        const auto b = before.find(key);
        return (a == after.end() ? 0 : a->second) -
               (b == before.end() ? 0 : b->second);
    };
    const double memoHits = delta("memo.hits");
    const double memoMisses = delta("memo.misses");
    out.set("serve.memo_hits", memoHits, "count");
    out.set("serve.memo_misses", memoMisses, "count");
    out.set("serve.memo_evictions", delta("memo.evictions"), "count");
    out.set("serve.memo_hit_frac",
            memoHits + memoMisses > 0 ? memoHits / (memoHits + memoMisses) : 0,
            "frac");
    double cacheHits = 0;
    double cacheMisses = 0;
    for (Op op : {Op::Advise, Op::Plan, Op::Study}) {
        cacheHits += delta(std::string(opName(op)) + ".cache_hits");
        cacheMisses += delta(std::string(opName(op)) + ".cache_misses");
    }
    out.set("formats.encode_cache_hits", cacheHits, "count");
    out.set("formats.encode_cache_misses", cacheMisses, "count");
    out.set("formats.encode_cache_hit_frac",
            cacheHits + cacheMisses > 0 ? cacheHits / (cacheHits + cacheMisses)
                                        : 0,
            "frac");

    // Handler time per op from the daemon's wide events, matched to this
    // window's requests by trace id.
    std::map<std::string, std::pair<std::string, double>> events;
    if (const JsonValue *wide = flightrec.find("result")
                                    ? flightrec.find("result")->find("wide_events")
                                    : nullptr)
        for (const JsonValue &e : wide->elements)
            events[e.stringOr("trace_id", "")] = {
                e.stringOr("endpoint", ""), e.numberOr("latency_us", 0) / 1e3};
    std::map<std::string, std::vector<double>> handler;
    std::vector<double> outside;
    std::vector<double> pingRtt;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Reply &reply = loop.replies[i];
        if (!reply.answered || !reply.ok)
            continue;
        const double rttMs = (reply.doneS - reply.sentS) * 1e3;
        if (reqs[i].op == Op::Ping)
            pingRtt.push_back(rttMs);
        const auto it = events.find(reply.traceId);
        if (it == events.end())
            continue;
        handler[it->second.first].push_back(it->second.second);
        outside.push_back(rttMs - it->second.second);
    }
    for (Op op : {Op::Ping, Op::Advise, Op::Plan, Op::Study})
        out.set("serve.handler_ms." + std::string(opName(op)),
                median(handler[std::string(opName(op))]), "ms");
    out.set("serve.outside_handler_ms", median(outside), "ms");
    out.set("serve.ping_rtt_ms", median(pingRtt), "ms");

    // --- per-layer: the in-process replay of the window ---
    // Every request of the window in schedule order, doing the work the
    // daemon did: a hot advise/plan_formats was a memo hit (materialize
    // and hash only), everything else runs in full. Each pass starts
    // from an encode cache warmed like the daemon's. The untraced pass
    // runs run_study as the daemon does; the traced pass replays its
    // sweep call by call, checked afterwards against the untraced rows.
    Tracer &tracer = Tracer::instance();
    std::vector<StudyResult> studies;
    std::vector<ReplayResult> replays;
    const auto replay = [&](bool traced) {
        EncodeCache::global().clear();
        for (const std::string &spec : hotPool) {
            compute(Op::Plan, spec);
            runStudy(materialize(spec));
        }
        tracer.reset();
        tracer.setEnabled(traced);
        const Clock::time_point start = Clock::now();
        for (const Request &req : reqs) {
            if (req.op == Op::Ping)
                continue;
            if (req.op != Op::Study && req.hot) {
                const TripletMatrix matrix = materialize(req.spec);
                const Span span(Layer::Hash);
                contentHashOf(matrix);
                continue;
            }
            if (req.op != Op::Study) {
                compute(req.op, req.spec);
                continue;
            }
            const TripletMatrix matrix = materialize(req.spec);
            if (traced) {
                const Span span(Layer::Study);
                replays.push_back(replayStudy({&matrix}, studyConfig(), 1));
            } else {
                studies.push_back(runStudy(matrix));
            }
        }
        tracer.setEnabled(false);
        return secondsSince(start);
    };
    const double untraced = replay(false);
    const EncodeCache::Stats cacheBefore = EncodeCache::global().stats();
    const double traced = replay(true);
    bool replayOk = studies.size() == replays.size();
    for (std::size_t i = 0; replayOk && i < studies.size(); ++i)
        replayOk = replayMismatches(replays[i], studies[i], true) == 0;
    out.check(replayOk, "serve_mix: the traced run_study replay disagrees "
                        "with Study::run");
    out.set("formats.encode_cache_evictions",
            static_cast<double>(EncodeCache::global().stats().evictions -
                                cacheBefore.evictions),
            "count");
    reportLedger(out, tracer.totals(), traced, traced, untraced);
    tracer.writeChromeTrace(args.scratch + "/perfbench-trace-serve_mix.json");
    return out;
}

} // namespace perfbench
