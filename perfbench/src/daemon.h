// The shipped `privelet_cli daemon` as a child process: spawn, wait for
// its port file, read its public STATS, read its peak RSS, stop it.
#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// CPU placement of a serve run on a host with at least four usable CPUs:
/// two for the daemon, one for the loadgen, the rest left to the kernel's
/// loopback work and this process. Both empty (no pinning) otherwise.
struct ServeCpus {
  std::vector<int> daemon;
  std::vector<int> loadgen;
};
ServeCpus ChooseServeCpus();

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts `cli daemon <args...> --port 0 --port-file <work_dir>/...`,
  /// restricted to `cpus` when given, and waits until it listens. Throws
  /// FatalError on failure. The child is killed if this process dies
  /// first.
  void Start(const std::string& cli, const std::vector<std::string>& args,
             const std::string& work_dir, const std::vector<int>& cpus = {});

  /// SIGTERM, then waits for the child (SIGKILL after 10 s). Idempotent.
  void Stop();

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Peak RSS of the daemon (VmHWM), MiB.
  double PeakRssMb() const;

  /// Sends STATS over a fresh text connection and parses `key value`
  /// lines; `latency _all ...` becomes latency_p50_us / latency_p99_us.
  std::map<std::string, double> Stats() const;

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// A blocking TCP connection to 127.0.0.1:port with TCP_NODELAY; -1 on
/// failure.
int ConnectLocal(std::uint16_t port);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
