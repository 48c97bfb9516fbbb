/**
 * @file
 * In-process tests for the zerodevd service layer: zerodev-rpc-v1
 * framing over a real Unix-domain socket, malformed-request rejection,
 * bounded-queue back-pressure (retry_after_ms), cancel semantics at
 * every lifecycle state, drain-vs-shutdown ordering, and the crash
 * recovery contract — a daemon stopped mid-run re-queues the job with
 * its checkpoints, and a second daemon adopting the same spool resumes
 * it to a run report byte-identical to an uninterrupted execution.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "obs/telemetry.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/jobspec.hh"
#include "service/protocol.hh"

using namespace zerodev;
using namespace zerodev::service;

namespace
{

constexpr const char *kShortRun =
    R"({"type":"run","figure":"t","app":"fft","accesses":2000,)"
    R"("threads":2})";
constexpr const char *kLongRun =
    R"({"type":"run","figure":"t","app":"fft","accesses":400000,)"
    R"("threads":8})";
// Sized so an interrupted run resumes well inside the poll timeout:
// at cadence 2000 a checkpoint costs ~0.3s of serialization, so 60k
// accesses keeps the resumed remainder under ~10s.
constexpr const char *kAdoptRun =
    R"({"type":"run","figure":"t","app":"fft","accesses":60000,)"
    R"("threads":8})";

obs::JsonValue
parsed(const std::string &line)
{
    std::string err;
    const auto doc = obs::parseJson(line, &err);
    EXPECT_TRUE(doc) << err << " in: " << line;
    return doc ? *doc : obs::JsonValue{};
}

bool
respOk(const obs::JsonValue &v)
{
    const obs::JsonValue *ok = v.find("ok");
    return ok && ok->isBool() && ok->boolean;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** A daemon plus the serve() thread that tears it down. */
class DaemonHarness
{
  public:
    explicit DaemonHarness(Daemon::Options opt) : daemon_(opt)
    {
        std::string err;
        started_ = daemon_.start(&err);
        EXPECT_TRUE(started_) << err;
        if (started_)
            serveThread_ = std::thread([this] { daemon_.serve(); });
    }

    ~DaemonHarness() { stop(); }

    void
    stop()
    {
        if (!started_ || stopped_)
            return;
        daemon_.requestShutdown();
        serveThread_.join();
        stopped_ = true;
    }

    Daemon &operator*() { return daemon_; }
    Daemon *operator->() { return &daemon_; }

  private:
    Daemon daemon_;
    std::thread serveThread_;
    bool started_ = false;
    bool stopped_ = false;
};

class ServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // The service tests must not inherit artifact routing, live
        // telemetry or determinism knobs from the environment.
        ::unsetenv("ZERODEV_TELEMETRY_DIR");
        ::unsetenv("ZERODEV_SNAPSHOT_EVERY");
        ::unsetenv("ZERODEV_ZERO_WALL");
        ::unsetenv("ZERODEV_REPORT_DIR");
        ::unsetenv("ZERODEV_SNAPSHOT_DIR");
        obs::TelemetrySink::resetGlobalForTesting();
    }

    void
    TearDown() override
    {
        ::unsetenv("ZERODEV_SNAPSHOT_EVERY");
        ::unsetenv("ZERODEV_ZERO_WALL");
        for (const std::string &p : tmp_)
            std::filesystem::remove_all(p);
    }

    std::string
    dirPath(const std::string &name)
    {
        const std::string p =
            ::testing::TempDir() + "zdev_service_" + name;
        std::filesystem::remove_all(p);
        tmp_.push_back(p);
        return p;
    }

    Daemon::Options
    options(const std::string &name, bool paused = false)
    {
        Daemon::Options opt;
        opt.spoolDir = dirPath(name);
        opt.startPaused = paused;
        return opt;
    }

    /** Poll a job via handleLine until its state is terminal. */
    std::string
    awaitTerminal(Daemon &d, const std::string &id)
    {
        for (int i = 0; i < 600; ++i) {
            const auto resp =
                parsed(d.handleLine(rpcRequestJson("status", id)));
            const std::string state = resp.str("state");
            JobState st;
            if (jobStateFromString(state, &st) && isTerminal(st))
                return state;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        return "TIMEOUT";
    }

    /** Poll until the job reports RUNNING (false on terminal). */
    bool
    awaitRunning(Daemon &d, const std::string &id)
    {
        for (int i = 0; i < 600; ++i) {
            const auto resp =
                parsed(d.handleLine(rpcRequestJson("status", id)));
            const std::string state = resp.str("state");
            if (state == "RUNNING")
                return true;
            JobState st;
            if (jobStateFromString(state, &st) && isTerminal(st))
                return false;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        return false;
    }

    std::string
    submit(Daemon &d, const std::string &jobJson)
    {
        const auto resp =
            parsed(d.handleLine(rpcSubmitJson(jobJson)));
        EXPECT_TRUE(respOk(resp));
        return resp.str("id");
    }

  private:
    std::vector<std::string> tmp_;
};

TEST_F(ServiceTest, FramingRoundTripOverSocket)
{
    DaemonHarness h(options("framing"));
    ServiceClient client;
    std::string err;
    ASSERT_TRUE(client.connect(h->socketPath(), &err)) << err;

    // Several requests on one connection, one JSON line each way.
    const auto pong = client.request(rpcRequestJson("ping"), &err);
    ASSERT_TRUE(pong) << err;
    EXPECT_TRUE(respOk(*pong));
    EXPECT_EQ(pong->str("schema"), kRpcSchema);

    const auto stats = client.request(rpcRequestJson("stats"), &err);
    ASSERT_TRUE(stats) << err;
    EXPECT_TRUE(respOk(*stats));
    const obs::JsonValue *maxq = stats->find("max_queued");
    ASSERT_NE(maxq, nullptr);
    EXPECT_EQ(static_cast<int>(maxq->number), 64);

    const auto bad = client.request(rpcRequestJson("frobnicate"), &err);
    ASSERT_TRUE(bad) << err;
    EXPECT_FALSE(respOk(*bad));
    EXPECT_EQ(bad->str("error"), "unknown-op");
}

TEST_F(ServiceTest, MalformedRequestsRejected)
{
    DaemonHarness h(options("malformed", /*paused=*/true));
    Daemon &d = *h;

    EXPECT_EQ(parsed(d.handleLine("not json")).str("error"),
              "bad-request");
    EXPECT_EQ(parsed(d.handleLine("[1,2,3]")).str("error"),
              "bad-request");
    EXPECT_EQ(parsed(d.handleLine("{\"id\":\"x\"}")).str("error"),
              "bad-request"); // missing op
    EXPECT_EQ(parsed(d.handleLine("{\"op\":\"submit\"}")).str("error"),
              "bad-request"); // submit without job
    EXPECT_EQ(parsed(d.handleLine("{\"op\":\"status\"}")).str("error"),
              "bad-request"); // status without id
    EXPECT_EQ(
        parsed(d.handleLine(rpcRequestJson("status", "job000099")))
            .str("error"),
        "unknown-job");

    // Bad job specs are rejected at submit time with a reason.
    const auto badApp = parsed(d.handleLine(rpcSubmitJson(
        R"({"type":"run","app":"nope","accesses":100})")));
    EXPECT_EQ(badApp.str("error"), "bad-job");
    const auto badKey = parsed(d.handleLine(rpcSubmitJson(
        R"({"type":"run","app":"fft","accesses":100,"bogus":1})")));
    EXPECT_EQ(badKey.str("error"), "bad-job");
    const auto badType = parsed(d.handleLine(
        rpcSubmitJson(R"({"type":"frob","accesses":100})")));
    EXPECT_EQ(badType.str("error"), "bad-job");

    // Configs that SystemConfig::validate() would fatal() on must be
    // rejected at submit time: running one would take the daemon down.
    const std::pair<const char *, const char *> badConfigs[] = {
        {R"({"dir_org":"sparse-NRU","dir_ratio":0})", "cannot be sized 0x"},
        {R"({"dir_org":"ZeroDEV"})", "caching policy"},
        {R"({"tag_partitions":3})", "do not divide"},
    };
    for (const auto &[config, why] : badConfigs) {
        const auto resp = parsed(d.handleLine(rpcSubmitJson(
            std::string(R"({"type":"run","app":"fft","accesses":100,)") +
            R"("config":)" + config + "}")));
        EXPECT_EQ(resp.str("error"), "bad-job") << config;
        EXPECT_NE(resp.str("detail").find(why), std::string::npos)
            << config << ": " << resp.str("detail");
    }

    // An oversized line is rejected before JSON parsing.
    std::string huge = "{\"op\":\"ping\",\"pad\":\"";
    huge.append(kMaxRequestBytes, 'x');
    huge += "\"}";
    EXPECT_EQ(parsed(d.handleLine(huge)).str("error"), "bad-request");
}

TEST_F(ServiceTest, QueueBackPressureRetryAfter)
{
    Daemon::Options opt = options("backpressure", /*paused=*/true);
    opt.maxQueued = 2;
    opt.retryAfterMs = 123;
    DaemonHarness h(opt);
    Daemon &d = *h;

    EXPECT_FALSE(submit(d, kShortRun).empty());
    EXPECT_FALSE(submit(d, kShortRun).empty());

    // The bounded queue is full: explicit rejection, not a hang.
    const auto resp = parsed(d.handleLine(rpcSubmitJson(kShortRun)));
    EXPECT_FALSE(respOk(resp));
    EXPECT_EQ(resp.str("error"), "queue-full");
    const obs::JsonValue *retry = resp.find("retry_after_ms");
    ASSERT_NE(retry, nullptr);
    EXPECT_EQ(static_cast<int>(retry->number), 123);

    // Draining the queue frees capacity again.
    d.resumeExecutor();
    EXPECT_EQ(awaitTerminal(d, "job000001"), "DONE");
    EXPECT_EQ(awaitTerminal(d, "job000002"), "DONE");
    EXPECT_TRUE(respOk(parsed(d.handleLine(rpcSubmitJson(kShortRun)))));
}

TEST_F(ServiceTest, CancelAtEachState)
{
    DaemonHarness h(options("cancel", /*paused=*/true));
    Daemon &d = *h;

    // QUEUED -> CANCELLED without ever running.
    const std::string q = submit(d, kShortRun);
    const auto c1 =
        parsed(d.handleLine(rpcRequestJson("cancel", q)));
    EXPECT_TRUE(respOk(c1));
    EXPECT_EQ(c1.str("state"), "CANCELLED");

    // Cancelling a terminal job is an explicit error.
    const auto c2 =
        parsed(d.handleLine(rpcRequestJson("cancel", q)));
    EXPECT_FALSE(respOk(c2));
    EXPECT_EQ(c2.str("error"), "already-terminal");

    // Unknown ids are an explicit error.
    EXPECT_EQ(
        parsed(d.handleLine(rpcRequestJson("cancel", "job000099")))
            .str("error"),
        "unknown-job");

    // The result verb reports the cancelled state, with no document.
    const auto res =
        parsed(d.handleLine(rpcRequestJson("result", q)));
    EXPECT_TRUE(respOk(res));
    EXPECT_EQ(res.str("state"), "CANCELLED");
    EXPECT_EQ(res.find("result"), nullptr);

    // RUNNING -> cooperative preemption -> CANCELLED.
    const std::string r = submit(d, kLongRun);
    d.resumeExecutor();
    ASSERT_TRUE(awaitRunning(d, r));
    const auto c3 =
        parsed(d.handleLine(rpcRequestJson("cancel", r)));
    EXPECT_TRUE(respOk(c3));
    const obs::JsonValue *flag = c3.find("cancel_requested");
    // The job may already have finished between the status poll and
    // the cancel; both outcomes are legal, but a cancel acknowledged
    // as requested must end CANCELLED.
    if (flag && flag->isBool() && flag->boolean)
        EXPECT_EQ(awaitTerminal(d, r), "CANCELLED");

    // A cancelled running job never reports DONE and never leaves a
    // result document behind.
    const auto res2 =
        parsed(d.handleLine(rpcRequestJson("result", r)));
    if (respOk(res2) && res2.str("state") == "CANCELLED")
        EXPECT_EQ(res2.find("result"), nullptr);
}

TEST_F(ServiceTest, DrainWaitsForQueuedWork)
{
    DaemonHarness h(options("drain", /*paused=*/true));
    Daemon &d = *h;
    const std::string id = submit(d, kShortRun);

    // Drain blocks until the queue empties, so issue it from a thread
    // while the executor is still paused.
    std::atomic<bool> drained{false};
    std::thread drainer([&] {
        const auto resp = parsed(d.handleLine(rpcRequestJson("drain")));
        EXPECT_TRUE(respOk(resp));
        drained.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(drained.load()); // queued work pins the drain

    // New submissions are refused while draining.
    const auto rej = parsed(d.handleLine(rpcSubmitJson(kShortRun)));
    EXPECT_FALSE(respOk(rej));
    EXPECT_EQ(rej.str("error"), "draining");

    d.resumeExecutor();
    drainer.join();
    EXPECT_TRUE(drained.load());

    // The drained job completed rather than being preempted.
    const auto st =
        parsed(d.handleLine(rpcRequestJson("status", id)));
    EXPECT_EQ(st.str("state"), "DONE");
    h.stop();
}

TEST_F(ServiceTest, ShutdownPreemptsAndRequeues)
{
    ::setenv("ZERODEV_SNAPSHOT_EVERY", "2000", 1);
    const std::string spool = dirPath("preempt");
    Daemon::Options opt;
    opt.spoolDir = spool;

    std::string id;
    {
        DaemonHarness h(opt);
        Daemon &d = *h;
        id = submit(d, kLongRun);
        ASSERT_TRUE(awaitRunning(d, id));
        // Shutdown responds immediately — unlike drain it does not
        // wait for the queue — and preempts the running job.
        const auto resp =
            parsed(d.handleLine(rpcRequestJson("shutdown")));
        EXPECT_TRUE(respOk(resp));
        h.stop();
    }

    // The preempted job was persisted back to QUEUED with checkpoints
    // parked in its artifacts directory.
    const auto state = parsed(
        readFile(spool + "/jobs/" + id + "/state.json"));
    EXPECT_EQ(state.str("state"), "QUEUED");
    bool haveCkpt = false;
    for (const auto &e : std::filesystem::directory_iterator(
             spool + "/jobs/" + id + "/artifacts"))
        haveCkpt = haveCkpt || e.path().extension() == ".ckpt";
    EXPECT_TRUE(haveCkpt);
}

TEST_F(ServiceTest, AdoptedJobResumesBitIdentically)
{
    ::setenv("ZERODEV_SNAPSHOT_EVERY", "2000", 1);
    ::setenv("ZERODEV_ZERO_WALL", "1", 1);
    const std::string spool = dirPath("adopt");
    Daemon::Options opt;
    opt.spoolDir = spool;

    // First daemon: start the job, preempt it mid-run. The short
    // sleep lets at least one checkpoint land so the second daemon
    // exercises the restore path rather than a from-scratch re-run.
    std::string id;
    {
        DaemonHarness h(opt);
        id = submit(*h, kAdoptRun);
        ASSERT_TRUE(awaitRunning(*h, id));
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
    } // harness destructor = shutdown: checkpoint + re-queue
    EXPECT_TRUE(std::filesystem::exists(
        spool + "/jobs/" + id + "/artifacts/t_job0000.ckpt"));

    // Second daemon on the same spool adopts and finishes the job.
    {
        DaemonHarness h(opt);
        EXPECT_EQ(awaitTerminal(*h, id), "DONE");
        const auto res =
            parsed(h->handleLine(rpcRequestJson("result", id)));
        EXPECT_TRUE(respOk(res));
        ASSERT_NE(res.find("result"), nullptr);
        h.stop();
    }

    // Reference: the same spec executed uninterrupted through the
    // exact same code path (what `zerodevctl run-local` runs).
    const std::string ref = dirPath("adopt_ref");
    JobSpec spec;
    std::string err;
    ASSERT_TRUE(
        JobSpec::parse(parsed(kAdoptRun), &spec, &err)) << err;
    const JobOutcome out = executeJob(spec, ref, nullptr);
    ASSERT_TRUE(out.ok) << out.error;

    // The PR 5 invariant, end to end through the service: a preempted
    // + resumed run's report is byte-identical to an uninterrupted one.
    const std::string resumed = readFile(
        spool + "/jobs/" + id + "/artifacts/t_run0000.json");
    const std::string direct = readFile(ref + "/t_run0000.json");
    ASSERT_FALSE(resumed.empty());
    EXPECT_EQ(resumed, direct);

    // And the terminal result documents match byte for byte too.
    std::string resultDoc =
        readFile(spool + "/jobs/" + id + "/result.json");
    while (!resultDoc.empty() && resultDoc.back() == '\n')
        resultDoc.pop_back();
    EXPECT_EQ(resultDoc, out.resultJson);
}

TEST_F(ServiceTest, SpoolSurvivesForeignAndCorruptEntries)
{
    const std::string spool = dirPath("corrupt");
    // Seed the spool with garbage a crashed run might leave behind.
    std::filesystem::create_directories(spool + "/jobs/notajob");
    std::filesystem::create_directories(spool + "/jobs/job000007");
    std::ofstream(spool + "/jobs/job000007/job.json") << "{broken";

    Daemon::Options opt;
    opt.spoolDir = spool;
    DaemonHarness h(opt);
    Daemon &d = *h;

    // The daemon skipped both entries and still serves; new ids do not
    // collide with the (unparseable) persisted sequence number.
    const std::string id = submit(d, kShortRun);
    EXPECT_EQ(id, "job000008");
    EXPECT_EQ(awaitTerminal(d, id), "DONE");
}

} // namespace
