/**
 * @file
 * Exit-code and usage-path tests for the trace_tool, fuzz_tool and
 * telemetry_tool CLIs. The binary paths are injected at build time
 * (TRACE_TOOL_PATH / FUZZ_TOOL_PATH / TELEMETRY_TOOL_PATH); all tools
 * must honour the shared exit-code contract documented in
 * docs/OBSERVABILITY.md:
 *   0 ok / no divergence, 1 runtime failure, 2 usage error,
 *   3 load failure, 4 regression / divergence / stall detected.
 *
 * Also covers the ZERODEV_REPORT_DIR / ZERODEV_SNAPSHOT_DIR contract:
 * both are created recursively on first use and an unwritable path is
 * a hard exit-2 up front, not a silent loss of artifacts at the end of
 * a long run.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <thread>

namespace
{

int
runTool(const char *tool, const std::string &args,
        const std::string &env = "")
{
    const std::string cmd = (env.empty() ? "" : env + " ") +
                            std::string(tool) + " " + args +
                            " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    EXPECT_NE(rc, -1);
    EXPECT_TRUE(WIFEXITED(rc));
    return WEXITSTATUS(rc);
}

/** Run trace_tool with @p args (and optional env), returning its exit
 *  status. */
int
toolExit(const std::string &args, const std::string &env = "")
{
    return runTool(TRACE_TOOL_PATH, args, env);
}

/** Run fuzz_tool with @p args, returning its exit status. */
int
fuzzExit(const std::string &args)
{
    return runTool(FUZZ_TOOL_PATH, args);
}

/** Run telemetry_tool with @p args (and optional env), returning its
 *  exit status. */
int
telemetryExit(const std::string &args, const std::string &env = "")
{
    return runTool(TELEMETRY_TOOL_PATH, args, env);
}

/** Run zerodevctl with @p args, returning its exit status. */
int
ctlExit(const std::string &args)
{
    return runTool(ZERODEVCTL_PATH, args);
}

/** Run zerodevd with @p args, returning its exit status. */
int
daemonExit(const std::string &args)
{
    return runTool(ZERODEVD_PATH, args);
}

class CliTempFiles : public ::testing::Test
{
  protected:
    std::string
    path(const std::string &name)
    {
        std::string p = ::testing::TempDir() + "zdev_cli_" + name;
        tmp_.push_back(p);
        return p;
    }

    /** A fresh directory path (not created), removed recursively. */
    std::string
    dirPath(const std::string &name)
    {
        std::string p = ::testing::TempDir() + "zdev_cli_" + name;
        dirs_.push_back(p);
        std::filesystem::remove_all(p);
        return p;
    }

    void
    TearDown() override
    {
        for (const std::string &p : tmp_)
            std::remove(p.c_str());
        for (const std::string &d : dirs_) {
            std::error_code ec;
            std::filesystem::remove_all(d, ec);
        }
    }

    std::vector<std::string> tmp_;
    std::vector<std::string> dirs_;
};

/** Files under @p dir whose name contains @p needle. */
int
countFilesContaining(const std::string &dir, const std::string &needle)
{
    int n = 0;
    std::error_code ec;
    for (const auto &e :
         std::filesystem::directory_iterator(dir, ec)) {
        if (e.path().filename().string().find(needle) !=
            std::string::npos)
            ++n;
    }
    return n;
}

TEST(TraceToolCli, HelpExitsZeroEverywhere)
{
    EXPECT_EQ(toolExit("--help"), 0);
    EXPECT_EQ(toolExit("-h"), 0);
    EXPECT_EQ(toolExit("help"), 0);
    EXPECT_EQ(toolExit("sim --help"), 0);
    EXPECT_EQ(toolExit("inspect --help"), 0);
    EXPECT_EQ(toolExit("compare --help"), 0);
}

TEST(TraceToolCli, UsageErrorsExitTwo)
{
    EXPECT_EQ(toolExit(""), 2);
    EXPECT_EQ(toolExit("frobnicate"), 2);
    EXPECT_EQ(toolExit("gen"), 2);
    EXPECT_EQ(toolExit("info"), 2);
    EXPECT_EQ(toolExit("replay"), 2);
    EXPECT_EQ(toolExit("sim"), 2);
    EXPECT_EQ(toolExit("inspect"), 2);
    EXPECT_EQ(toolExit("compare"), 2);
    EXPECT_EQ(toolExit("compare onlyone"), 2);
    EXPECT_EQ(toolExit("compare a b c"), 2);
    EXPECT_EQ(toolExit("compare a b --json"), 2);
}

TEST(TraceToolCli, MalformedOperandsExitTwo)
{
    // Non-numeric, signed or out-of-range counts must be usage errors,
    // not whatever atoi() would have made of them.
    EXPECT_EQ(toolExit("gen fft banana 10 /tmp/t.trc"), 2);
    EXPECT_EQ(toolExit("gen fft -4 10 /tmp/t.trc"), 2);
    EXPECT_EQ(toolExit("gen fft 4 zero /tmp/t.trc"), 2);
    EXPECT_EQ(toolExit("gen fft 0 10 /tmp/t.trc"), 2);
    EXPECT_EQ(toolExit("gen fft 99999 10 /tmp/t.trc"), 2);
    EXPECT_EQ(toolExit("sim fft 4x 10 /tmp/out"), 2);
    // An unknown organisation name must not silently mean "baseline".
    EXPECT_EQ(toolExit("sim fft 2 10 /tmp/out zerodave"), 2);
}

TEST(TraceToolCli, RuntimeFailuresExitOne)
{
    EXPECT_EQ(toolExit("inspect /nonexistent/trace.jsonl"), 1);
    EXPECT_EQ(toolExit("info /nonexistent/trace.trc"), 1);
    EXPECT_EQ(toolExit("replay /nonexistent/trace.trc"), 1);
}

TEST(TraceToolCli, CompareLoadFailureExitsThree)
{
    EXPECT_EQ(toolExit("compare /nonexistent/base /nonexistent/cand"), 3);
}

TEST_F(CliTempFiles, TraceToolRejectsCorruptTraceWithExitOne)
{
    const std::string file = path("garbage.trc");
    std::FILE *f = std::fopen(file.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace", f);
    std::fclose(f);
    EXPECT_EQ(toolExit("info " + file), 1);
    EXPECT_EQ(toolExit("replay " + file), 1);
}

TEST_F(CliTempFiles, TraceToolSimRunsTheRivalBackends)
{
    const std::string out = dirPath("sim_dls");
    std::filesystem::create_directories(out);
    EXPECT_EQ(toolExit("sim fft 2 10 " + out + " dls"), 0);
    EXPECT_TRUE(std::filesystem::exists(out + "/report.json"));
    EXPECT_EQ(toolExit("sim fft 2 10 " + out + " phasepri"), 0);
    EXPECT_EQ(toolExit("sim fft 2 10 " + out + " mosi"), 2);
}

TEST_F(CliTempFiles, TraceToolReplayRejectsOversizedTrace)
{
    // A 16-core trace cannot replay on the 8-core example config.
    const std::string file = path("wide.trc");
    ASSERT_EQ(fuzzExit("gen 3 16 32 " + file), 0);
    EXPECT_EQ(toolExit("replay " + file), 1);
}

TEST(FuzzToolCli, HelpExitsZero)
{
    EXPECT_EQ(fuzzExit("--help"), 0);
    EXPECT_EQ(fuzzExit("help"), 0);
    EXPECT_EQ(fuzzExit("run --help"), 0);
}

TEST(FuzzToolCli, UsageErrorsExitTwo)
{
    EXPECT_EQ(fuzzExit(""), 2);
    EXPECT_EQ(fuzzExit("frobnicate"), 2);
    EXPECT_EQ(fuzzExit("gen"), 2);
    EXPECT_EQ(fuzzExit("gen 1 banana 10 /tmp/t.trc"), 2);
    EXPECT_EQ(fuzzExit("shrink"), 2);
    EXPECT_EQ(fuzzExit("replay"), 2);
    EXPECT_EQ(fuzzExit("run --seeds"), 2);
    EXPECT_EQ(fuzzExit("run --seeds 0"), 2);
    EXPECT_EQ(fuzzExit("run --bogus"), 2);
    EXPECT_EQ(fuzzExit("run --plant-fault nope"), 2);
    EXPECT_EQ(fuzzExit("run --plant-fault 99,7,1"), 2);
}

TEST(FuzzToolCli, TraceLoadFailuresExitThree)
{
    EXPECT_EQ(fuzzExit("replay /nonexistent/trace.trc"), 3);
    EXPECT_EQ(fuzzExit("shrink /nonexistent/trace.trc"), 3);
}

TEST_F(CliTempFiles, FuzzToolCleanPipelineExitsZero)
{
    const std::string file = path("clean.trc");
    ASSERT_EQ(fuzzExit("gen 2 4 64 " + file), 0);
    EXPECT_EQ(fuzzExit("replay " + file + " --quick"), 0);
    EXPECT_EQ(fuzzExit("shrink " + file + " --quick --out " +
                       path("clean.min.trc")),
              0);
}

TEST_F(CliTempFiles, FuzzToolPlantedFaultExitsFour)
{
    const std::string dir = ::testing::TempDir() + "zdev_cli_fuzzdir";
    tmp_.push_back(dir + "/fuzz-report.json");
    tmp_.push_back(dir + "/divergence-seed1.trc");
    tmp_.push_back(dir + "/divergence-seed1.min.trc");
    EXPECT_EQ(fuzzExit("run --quick --seeds 2 --accesses 4000 "
                       "--plant-fault 1,7,2 --out " +
                       dir),
              4);
}

TEST(TelemetryToolCli, HelpExitsZero)
{
    EXPECT_EQ(telemetryExit("--help"), 0);
    EXPECT_EQ(telemetryExit("help"), 0);
    EXPECT_EQ(telemetryExit("top --help"), 0);
}

TEST(TelemetryToolCli, UsageErrorsExitTwo)
{
    EXPECT_EQ(telemetryExit(""), 2);
    EXPECT_EQ(telemetryExit("frobnicate"), 2);
    EXPECT_EQ(telemetryExit("top"), 2);
    EXPECT_EQ(telemetryExit("check-prom"), 2);
    EXPECT_EQ(telemetryExit("check-status"), 2);
    EXPECT_EQ(telemetryExit("selftest-stall"), 2);
    EXPECT_EQ(telemetryExit("selftest-stall /tmp/x --bogus"), 2);
    EXPECT_EQ(telemetryExit("selftest-stall /tmp/x --stall-seconds -1"),
              2);
}

TEST_F(CliTempFiles, CheckPromFollowsTheExitContract)
{
    EXPECT_EQ(telemetryExit("check-prom /nonexistent/metrics.prom"), 3);

    const std::string bad = path("bad.prom");
    std::ofstream(bad) << "zdev_x 1\n# TYPE zdev_x counter\nzdev_x 2\n";
    EXPECT_EQ(telemetryExit("check-prom " + bad), 4);

    const std::string good = path("good.prom");
    std::ofstream(good) << "# HELP zdev_x help\n"
                           "# TYPE zdev_x counter\n"
                           "zdev_x 42\n";
    EXPECT_EQ(telemetryExit("check-prom " + good), 0);
}

TEST_F(CliTempFiles, CheckStatusFollowsTheExitContract)
{
    EXPECT_EQ(telemetryExit("check-status /nonexistent/status.json"), 3);

    const std::string bad = path("bad-status.json");
    std::ofstream(bad) << "{\"schema\":\"zerodev-status-v2\"}";
    EXPECT_EQ(telemetryExit("check-status " + bad), 4);

    const std::string good = path("good-status.json");
    std::ofstream(good)
        << "{\"schema\":\"zerodev-status-v1\",\"commit\":\"\","
           "\"generated_ms\":1,\"state\":\"completed\",\"jobs\":["
           "{\"name\":\"j\",\"state\":\"completed\","
           "\"total_accesses\":10,\"accesses\":10,\"progress\":1.0}]}";
    EXPECT_EQ(telemetryExit("check-status " + good), 0);
    EXPECT_EQ(telemetryExit("check-status " + good +
                            " --state completed --min-jobs 1"),
              0);
    EXPECT_EQ(telemetryExit("check-status " + good + " --state running"),
              4);
    EXPECT_EQ(telemetryExit("check-status " + good + " --min-jobs 2"), 4);
}

TEST_F(CliTempFiles, ReportDirIsCreatedRecursively)
{
    // A replay with ZERODEV_REPORT_DIR pointing at a directory that
    // does not exist yet (two levels deep) must create it and land the
    // v2 run report inside.
    const std::string trace = path("report-env.trc");
    ASSERT_EQ(fuzzExit("gen 2 4 64 " + trace), 0);
    const std::string dir = dirPath("reports") + "/nested/deep";
    EXPECT_EQ(toolExit("replay " + trace, "ZERODEV_REPORT_DIR=" + dir),
              0);
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    EXPECT_GE(countFilesContaining(dir, "trace_replay"), 1);
}

TEST_F(CliTempFiles, UnwritableReportDirExitsTwoUpFront)
{
    // /dev/null/x can never become a directory: the run must fail fast
    // with the usage/environment exit code, not lose the report later.
    const std::string trace = path("report-ro.trc");
    ASSERT_EQ(fuzzExit("gen 2 4 64 " + trace), 0);
    EXPECT_EQ(toolExit("replay " + trace,
                       "ZERODEV_REPORT_DIR=/dev/null/x"),
              2);
}

TEST_F(CliTempFiles, SnapshotDirIsCreatedRecursivelyForStallCkpts)
{
    // The planted-stall self-test must detect its own stall (exit 4 is
    // the expected outcome) and, with ZERODEV_SNAPSHOT_DIR set, drop
    // the stall checkpoint into that (freshly created) directory.
    const std::string tele = dirPath("tele-snapdir");
    const std::string snaps = dirPath("snaps") + "/a/b";
    EXPECT_EQ(telemetryExit("selftest-stall " + tele +
                                " --stall-seconds 0.3",
                            "ZERODEV_SNAPSHOT_DIR=" + snaps),
              4);
    EXPECT_TRUE(std::filesystem::exists(
        snaps + "/stall-selftest_stall.ckpt"));
}

TEST_F(CliTempFiles, UnwritableSnapshotDirExitsTwoUpFront)
{
    const std::string tele = dirPath("tele-snapro");
    EXPECT_EQ(telemetryExit("selftest-stall " + tele,
                            "ZERODEV_SNAPSHOT_DIR=/dev/null/x"),
              2);
}

TEST(ZerodevdCli, ExitContract)
{
    EXPECT_EQ(daemonExit("--help"), 0);
    EXPECT_EQ(daemonExit(""), 2);          // --spool is required
    EXPECT_EQ(daemonExit("--bogus"), 2);
    EXPECT_EQ(daemonExit("--spool"), 2);   // missing value
    EXPECT_EQ(daemonExit("--spool /tmp/x --max-queued 0"), 2);
}

TEST_F(CliTempFiles, ZerodevctlExitContract)
{
    EXPECT_EQ(ctlExit("--help"), 0);
    EXPECT_EQ(ctlExit(""), 2);            // no verb
    EXPECT_EQ(ctlExit("--socket"), 2);    // missing value
    EXPECT_EQ(ctlExit("--socket /tmp/x.sock frobnicate"), 2);
    EXPECT_EQ(ctlExit("status job000001"), 2); // no socket anywhere
    EXPECT_EQ(ctlExit("--socket /tmp/x.sock submit"), 2);
    EXPECT_EQ(ctlExit("run-local /missing.json"), 2); // needs --out

    // A bad job file is a load failure (3), checked before connecting.
    const std::string bad = path("bad.json");
    std::ofstream(bad) << "{not json";
    EXPECT_EQ(ctlExit("--socket /nonexistent.sock submit " + bad), 3);
    EXPECT_EQ(ctlExit("run-local " + bad + " --out " +
                      dirPath("rl-bad")),
              3);

    // A valid spec against a dead socket is a runtime failure (1).
    const std::string job = path("job.json");
    std::ofstream(job) << R"({"type":"run","figure":"cli","app":"fft",)"
                       << R"("accesses":500,"threads":2})";
    EXPECT_EQ(ctlExit("--socket /nonexistent.sock submit " + job), 1);
    EXPECT_EQ(ctlExit("--socket /nonexistent.sock ping"), 1);

    // run-local executes the service code path without a daemon.
    const std::string out = dirPath("rl-ok");
    EXPECT_EQ(ctlExit("run-local " + job + " --out " + out), 0);
    EXPECT_TRUE(std::filesystem::exists(out + "/result.json"));
    EXPECT_TRUE(std::filesystem::exists(out + "/cli_run0000.json"));
}

TEST_F(CliTempFiles, ZerodevServiceRoundTrip)
{
    const std::string spool = dirPath("spool");
    const std::string sock = spool + "/zerodevd.sock";
    const std::string job = path("svc-job.json");
    std::ofstream(job) << R"({"type":"run","figure":"svc","app":"fft",)"
                       << R"("accesses":500,"threads":2})";

    // Start the daemon in the background and wait for its socket.
    const std::string cmd = std::string(ZERODEVD_PATH) + " --spool " +
                            spool + " >/dev/null 2>&1 &";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    bool up = false;
    for (int i = 0; i < 100 && !up; ++i) {
        up = std::filesystem::exists(sock);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ASSERT_TRUE(up);

    const std::string s = "--socket " + sock + " ";
    EXPECT_EQ(ctlExit(s + "ping"), 0);
    EXPECT_EQ(ctlExit(s + "submit " + job), 0);
    EXPECT_EQ(ctlExit(s + "watch job000001"), 0);
    EXPECT_EQ(ctlExit(s + "result job000001"), 0);
    EXPECT_EQ(ctlExit(s + "status job000042"), 1); // unknown job
    EXPECT_EQ(ctlExit(s + "stats"), 0);
    EXPECT_EQ(ctlExit(s + "drain"), 0);

    // A clean drain removes the socket on the way out.
    bool down = false;
    for (int i = 0; i < 100 && !down; ++i) {
        down = !std::filesystem::exists(sock);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    EXPECT_TRUE(down);
    EXPECT_TRUE(std::filesystem::exists(
        spool + "/jobs/job000001/result.json"));
}

} // namespace
