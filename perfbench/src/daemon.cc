#include "daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"

namespace perfbench {

double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

int ConnectLocal(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

ServeCpus ChooseServeCpus() {
  ServeCpus placement;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return placement;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 4) return placement;
  const std::size_t n = cpus.size();
  placement.daemon = {cpus[n - 3], cpus[n - 2]};
  placement.loadgen = {cpus[n - 1]};
  return placement;
}

void Daemon::Start(const std::string& cli,
                   const std::vector<std::string>& args,
                   const std::string& work_dir, const std::vector<int>& cpus) {
  Stop();
  const std::string port_file = work_dir + "/daemon.port";
  const std::string log_file = work_dir + "/daemon.log";
  ::unlink(port_file.c_str());

  std::vector<std::string> argv_strings = {cli, "daemon"};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  argv_strings.insert(argv_strings.end(),
                      {"--port", "0", "--port-file", port_file});
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw FatalError("cannot open " + log_file);
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  for (const int cpu : cpus) CPU_SET(cpu, &affinity);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    throw FatalError("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (!cpus.empty()) ::sched_setaffinity(0, sizeof affinity, &affinity);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;

  const std::uint64_t start = NowNs();
  while (SecondsSince(start) < 60.0) {
    int wstatus = 0;
    if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      throw FatalError("daemon exited during start-up; see " + log_file);
    }
    std::ifstream in(port_file);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n') {
      port_ = static_cast<std::uint16_t>(std::strtoul(text.c_str(), nullptr, 10));
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop();
  throw FatalError("daemon did not start listening within 60 s");
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const std::uint64_t start = NowNs();
  int wstatus = 0;
  while (::waitpid(pid_, &wstatus, WNOHANG) == 0) {
    if (SecondsSince(start) > 10.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &wstatus, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  port_ = 0;
}

double Daemon::PeakRssMb() const {
  return pid_ > 0 ? perfbench::PeakRssMb(std::to_string(pid_)) : 0.0;
}

std::map<std::string, double> Daemon::Stats() const {
  std::map<std::string, double> stats;
  const int fd = ConnectLocal(port_);
  if (fd < 0) return stats;
  static constexpr char kRequest[] = "STATS\n";
  if (::send(fd, kRequest, sizeof kRequest - 1, MSG_NOSIGNAL) !=
      static_cast<ssize_t>(sizeof kRequest - 1)) {
    ::close(fd);
    return stats;
  }
  std::string text;
  char buf[4096];
  std::size_t expected_lines = 0;
  bool have_header = false;
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
    const std::size_t nl = text.find('\n');
    if (!have_header && nl != std::string::npos) {
      if (text.rfind("ok ", 0) != 0) break;
      expected_lines = std::strtoul(text.c_str() + 3, nullptr, 10);
      have_header = true;
    }
    if (have_header &&
        static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) >=
            expected_lines + 1) {
      break;
    }
  }
  ::close(fd);

  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);  // "ok <n>"
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "latency") {
      std::string id;
      fields >> id;
      if (id != "_all") continue;
      std::string kv;
      while (fields >> kv) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) continue;
        stats["latency_" + kv.substr(0, eq)] =
            std::strtod(kv.c_str() + eq + 1, nullptr);
      }
      continue;
    }
    std::string value;
    if (!(fields >> value)) continue;
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end != value.c_str() && *end == '\0') stats[key] = v;
  }
  return stats;
}

}  // namespace perfbench
