/**
 * @file
 * awd — the power-estimation daemon's main binary.
 *
 * Loads calibrated model registries for the configured cards, binds a
 * loopback socket, and serves estimation requests until SIGTERM/SIGINT,
 * then drains gracefully (exit 0 on a clean drain, 1 when the drain
 * timeout had to cancel stragglers). Knobs come from the environment
 * (AW_SERVICE_PORT / _THREADS / _MAX_QUEUE / _DEADLINE_MS / _CARDS)
 * with flag overrides; `--port-file` publishes the bound (possibly
 * ephemeral) port atomically, which is how scripts/check.sh and the
 * tests find the daemon.
 */
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/log.hpp"
#include "common/table.hpp"
#include "service/server.hpp"

using namespace aw;

namespace {

service::AwdServer *g_server = nullptr;

void
onSignal(int)
{
    // Async-signal-safe: one write on a pre-opened pipe.
    if (g_server)
        g_server->requestStop();
}

void
onDumpSignal(int)
{
    // Same pipe trick: SIGUSR1 asks the reactor for a flight-recorder
    // dump (AW_SERVICE_FLIGHT_DUMP) without pausing the daemon.
    if (g_server)
        g_server->requestFlightDump();
}

[[noreturn]] void
usage()
{
    std::printf(
        "usage: awd [options]\n"
        "  --port N          listen port on 127.0.0.1 (default "
        "AW_SERVICE_PORT or ephemeral)\n"
        "  --port-file PATH  publish the bound port to PATH (atomic)\n"
        "  --threads N       estimation workers (AW_SERVICE_THREADS)\n"
        "  --max-queue N     run-queue bound (AW_SERVICE_MAX_QUEUE)\n"
        "  --deadline-ms MS  default request deadline "
        "(AW_SERVICE_DEADLINE_MS)\n"
        "  --cards CSV       served cards (AW_SERVICE_CARDS; default "
        "volta)\n"
        "  --no-warmup       skip pre-calibration (first request pays "
        "it)\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    service::ServerOptions opts =
        service::ServerOptions::fromEnvironment();
    std::string portFile;

    auto nextArg = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--port")
            opts.port = std::atoi(nextArg(i));
        else if (arg == "--port-file")
            portFile = nextArg(i);
        else if (arg == "--threads")
            opts.threads = std::atoi(nextArg(i));
        else if (arg == "--max-queue")
            opts.maxQueue = std::atoi(nextArg(i));
        else if (arg == "--deadline-ms")
            opts.defaultDeadlineMs = std::atof(nextArg(i));
        else if (arg == "--cards") {
            opts.cards.clear();
            std::string spec = nextArg(i);
            size_t pos = 0;
            while (pos <= spec.size()) {
                size_t comma = spec.find(',', pos);
                if (comma == std::string::npos)
                    comma = spec.size();
                if (comma > pos)
                    opts.cards.push_back(spec.substr(pos, comma - pos));
                pos = comma + 1;
            }
        } else if (arg == "--no-warmup")
            opts.warmup = false;
        else
            usage();
    }
    if (opts.port < 0 || opts.port > 65535 || opts.threads < 1 ||
        opts.maxQueue < 1)
        usage();

    service::AwdServer server(opts);
    g_server = &server;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGUSR1, onDumpSignal);

    std::string error;
    if (!server.start(error))
        fatal("awd: %s", error.c_str());
    if (!portFile.empty())
        writeFileAtomic(portFile, std::to_string(server.port()) + "\n");
    std::printf("awd: serving on 127.0.0.1:%d (%d workers, queue %d, "
                "deadline %.0f ms)\n",
                server.port(), opts.threads, opts.maxQueue,
                opts.defaultDeadlineMs);
    std::fflush(stdout);

    const int rc = server.wait();
    std::printf("awd: drained %s\n", rc == 0 ? "cleanly" : "FORCED");
    return rc;
}
