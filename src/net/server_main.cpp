// parisax_server: serves a collection over the net/protocol.h frame
// protocol. docs/serving.md documents the protocol and operations.
//
// Examples:
//   parisax_server --port 7687 --synthetic 100000 --length 256
//   parisax_server --port 7687 --data vectors.bin --algorithm messi
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <semaphore>
#include <string>

#include "core/engine.h"
#include "io/generator.h"
#include "net/server.h"

namespace {

// Released by the signal handler; Main waits on it.
std::binary_semaphore g_shutdown{0};

void HandleSignal(int) { g_shutdown.release(); }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --host ADDR            bind address (default 127.0.0.1)\n"
      "  --port N               TCP port; 0 picks one (default 7687)\n"
      "  --data PATH            dataset file (io/format.h layout), mmapped\n"
      "  --synthetic N          serve N generated random-walk series\n"
      "                         (default 10000 when --data is absent)\n"
      "  --length N             series length for --synthetic (default 256)\n"
      "  --seed N               generator seed (default 42)\n"
      "  --algorithm NAME       messi|paris|paris+\n"
      "                         (default messi)\n"
      "  --build-threads N      engine threads for index construction\n"
      "                         (default 4)\n"
      "  --serve-threads N      query service workers; also the threads a\n"
      "                         lone query fans out over (default 4)\n"
      "  --max-inflight N       admission cap, 0 = unbounded (default 128)\n"
      "  --default-timeout-us N deadline for frames without one (default 0)\n"
      "  --max-connections N    concurrent connection cap (default 64)\n",
      argv0);
}

int Main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 7687;
  std::string data_path;
  size_t synthetic = 0;
  size_t length = 256;
  uint64_t seed = 42;
  std::string algorithm = "messi";
  int build_threads = 4;
  parisax::ServerOptions sopts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = std::atoi(next());
    } else if (arg == "--data") {
      data_path = next();
    } else if (arg == "--synthetic") {
      synthetic = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--length") {
      length = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--algorithm") {
      algorithm = next();
    } else if (arg == "--build-threads") {
      build_threads = std::atoi(next());
    } else if (arg == "--serve-threads") {
      sopts.serve_threads = std::atoi(next());
    } else if (arg == "--max-inflight") {
      sopts.max_inflight = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--default-timeout-us") {
      sopts.default_timeout_us = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--max-connections") {
      sopts.max_connections = std::atoi(next());
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  sopts.host = host;
  sopts.port = static_cast<uint16_t>(port);

  auto parsed = parisax::ParseAlgorithm(algorithm);
  if (!parsed.ok()) {
    std::fprintf(stderr, "--algorithm: %s\n",
                 parsed.status().message().c_str());
    return 2;
  }
  parisax::EngineOptions eopts;
  eopts.algorithm = *parsed;
  eopts.num_threads = build_threads;

  parisax::Result<std::unique_ptr<parisax::Engine>> built =
      parisax::Status::InvalidArgument("unbuilt");
  if (!data_path.empty()) {
    std::fprintf(stderr, "building %s index over %s (mmap)...\n",
                 parisax::AlgorithmName(eopts.algorithm), data_path.c_str());
    built = parisax::Engine::Build(parisax::SourceSpec::Mmap(data_path), eopts);
  } else {
    if (synthetic == 0) synthetic = 10000;
    std::fprintf(stderr,
                 "building %s index over %zu synthetic series of length "
                 "%zu...\n",
                 parisax::AlgorithmName(eopts.algorithm), synthetic, length);
    parisax::GeneratorOptions gopts;
    gopts.count = synthetic;
    gopts.length = length;
    gopts.seed = seed;
    built = parisax::Engine::Build(
        parisax::SourceSpec::InMemory(parisax::GenerateDataset(gopts)),
        eopts);
  }
  if (!built.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 built.status().message().c_str());
    return 1;
  }
  const std::unique_ptr<parisax::Engine> engine = std::move(built).value();

  auto server = parisax::Server::Start(engine.get(), sopts);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().message().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "parisax_server listening on %s:%u (%zu series x %zu, "
               "algorithm %s, max_inflight %zu)\n",
               sopts.host.c_str(), (*server)->port(), engine->series_count(),
               engine->series_length(), engine->algorithm_name(),
               sopts.max_inflight);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  g_shutdown.acquire();
  std::fprintf(stderr, "shutting down...\n");
  (*server)->Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
