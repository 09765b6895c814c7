// Host-speed references for the end-to-end timings.
//
// On a shared host the speed of a vCPU changes from one second to the next
// (other tenants load the same cores, caches and memory), and a run's median
// moves with it. A reference is a fixed piece of work that calls nothing in
// the library, timed right before each measured operation; the two slow
// down together, so their ratio is steadier than either. The end-to-end
// timings are reported at the reference's nominal speed,
//
//   time at nominal speed = measured time * nominal ms / reference ms,
//
// and the measured (wall) figures are printed beside them. There are two
// references, one per kind of cost: the compute reference (integer mixing,
// page faults and memory traffic on fresh buffers, text parsing through
// short-lived strings and streams) for publishes, set-ups and large-batch
// serving, and the wake-up reference (one-byte round trips between two
// CPUs) for small requests, whose time goes to syscalls and wake-ups.
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

/// Runs the compute reference once and returns its wall time in ms.
double RunReferenceMs();

/// Round trips of one byte between this thread, on `cpu`, and a partner
/// thread, on `partner_cpu`, over a Unix socket pair: syscalls and
/// cross-CPU wake-ups. A negative CPU is not pinned. Returns the wall time
/// of the timed round trips in ms.
double RunWakeupReferenceMs(int cpu, int partner_cpu);

/// A reference and its nominal wall time. The nominal time is a scale
/// only, so that figures at nominal speed read like wall ones: about the
/// reference's median on a shared 4-vCPU Xeon (AVX-512) VM.
struct HostReference {
  const char* name;
  double nominal_ms;
  std::function<double()> run;  ///< one run; its wall time in ms
};

/// RunReferenceMs; 54-80 ms on that VM.
HostReference ComputeReference();

/// RunWakeupReferenceMs(cpu, partner_cpu); 10.5-13.6 ms on that VM with
/// the two threads on the loadgen's and the daemon loop's CPUs (40 ms in
/// one run out of thirty).
HostReference WakeupReference(int cpu, int partner_cpu);

/// Durations, each with the reference time measured right before it.
struct ReferencedTimes {
  ReferencedTimes() = default;
  explicit ReferencedTimes(double nominal) : nominal_ms(nominal) {}

  double nominal_ms = 1.0;  ///< the reference's HostReference::nominal_ms
  std::vector<double> measured;
  std::vector<double> reference_ms;

  void Add(double value, double reference) {
    measured.push_back(value);
    reference_ms.push_back(reference);
  }
  /// The durations at the reference's nominal speed.
  std::vector<double> AtNominalSpeed() const {
    std::vector<double> out;
    out.reserve(measured.size());
    for (std::size_t i = 0; i < measured.size(); ++i) {
      out.push_back(measured[i] * nominal_ms / reference_ms[i]);
    }
    return out;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
