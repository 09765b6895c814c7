// One-dimensional Haar wavelet transform (paper Sec. IV). The input is
// padded with zeros to the next power of two 2^l; coefficients are laid out
// in level order: index 0 is the base coefficient (the mean), index 1 the
// root of the decomposition tree, and indices [2^(i-1), 2^i) the level-i
// coefficients. Each coefficient is (avg of left subtree - avg of right
// subtree) / 2 and the weight function is WHaar (base -> 2^l, level i ->
// 2^(l-i+1)). Every length, padded or not, has the one batched line kernel
// (ForwardLines/InverseLines) the line engine runs on strided axes.
#ifndef PRIVELET_WAVELET_HAAR_H_
#define PRIVELET_WAVELET_HAAR_H_

#include <cstddef>
#include <vector>

#include "privelet/wavelet/transform.h"

namespace privelet::wavelet {

class HaarTransform final : public Transform1D {
 public:
  /// Transform for data vectors of length `n` (>= 1; padded internally).
  explicit HaarTransform(std::size_t n);

  std::string_view name() const override { return "haar"; }
  std::size_t input_size() const override { return n_; }
  std::size_t coefficient_count() const override { return padded_; }

  /// Allocation-free: both overloads reuse a workspace sized at
  /// construction, so per-query transforms never touch the heap. Because
  /// the workspace is a member, concurrent Forward/Inverse calls on the
  /// *same* instance race; use one instance per thread (or the explicit
  /// scratch overloads below) for parallel transforms.
  void Forward(const double* in, double* out) const override;
  void Inverse(const double* coeffs, double* out) const override;

  /// Core implementations with caller-provided scratch of padded_size()
  /// elements. These never allocate and are safe to call concurrently on a
  /// shared instance as long as each caller passes its own scratch. They
  /// forward to the ISA-aware overloads below at the ambient dispatch
  /// level (simd::ResolveIsa()) — bit-identical at every level.
  std::size_t scratch_size() const override { return padded_; }
  void Forward(const double* in, double* out,
               double* scratch) const override;
  void Inverse(const double* coeffs, double* out,
               double* scratch) const override;

  /// Dispatched implementations: every butterfly level runs through the
  /// selected simd::KernelTable. On power-of-two inputs the first forward
  /// level reads `in` directly and the last inverse level writes `out`
  /// directly (the split and expand kernels); the copies those levels
  /// replace move values untouched, so this never changes a bit.
  void Forward(const double* in, double* out, double* scratch,
               simd::IsaLevel isa) const override;
  void Inverse(const double* coeffs, double* out, double* scratch,
               simd::IsaLevel isa) const override;

  /// The batched kernel (see Transform1D), for every n: the first forward
  /// level reads the input rows directly and every detail level writes
  /// the output rows directly, with only the running averages staged in
  /// scratch. Padding input rows read as a zero row and padding output
  /// rows go to a discard row, both in scratch. Per line the butterflies
  /// are the single-line ops in the same order: bit-identical.
  std::size_t lines_scratch_size(std::size_t count) const override {
    // The averages ladder (a quarter line), two staging rows and the
    // zero/discard row, each at the padded scratch pitch.
    return (padded_ / 4 + 3) * (count + kRowPad);
  }
  void ForwardLines(std::size_t count, const double* in, double* out,
                    std::size_t pitch, double* scratch,
                    simd::IsaLevel isa) const override;
  void InverseLines(std::size_t count, const double* coeffs, double* out,
                    std::size_t pitch, double* scratch,
                    simd::IsaLevel isa) const override;

  /// a[0] = |S|; a[j] = (leaves of j's left subtree in S) - (leaves of
  /// j's right subtree in S), per the proof of Lemma 3.
  void RangeContribution(std::size_t lo, std::size_t hi,
                         double* out) const override;

  const std::vector<double>& weights() const override { return weights_; }

  /// P(A) = 1 + log2(2^l) (Lemma 2).
  double p_factor() const override {
    return 1.0 + static_cast<double>(levels_);
  }

  /// H(A) = (2 + log2(2^l)) / 2 (Lemma 3).
  double h_factor() const override {
    return (2.0 + static_cast<double>(levels_)) / 2.0;
  }

  /// Padded length 2^l.
  std::size_t padded_size() const { return padded_; }
  /// l = log2(padded_size); the decomposition tree has l levels of
  /// non-base coefficients.
  std::size_t levels() const { return levels_; }

  /// 1-based level of non-base coefficient index j (j in [1, 2^l)). The
  /// root is level 1.
  static std::size_t LevelOf(std::size_t j);

 private:
  // Extra doubles of slack between scratch rows of the batched kernel:
  // keeps rows 64-byte aligned while moving consecutive rows off a common
  // page offset (dense page-multiple pitches serialize on store-to-load 4K
  // aliasing). One 512-bit vector is enough.
  static constexpr std::size_t kRowPad = 8;

  std::size_t n_;
  std::size_t padded_;
  std::size_t levels_;
  std::vector<double> weights_;
  // Reusable workspace for the scratch-less Forward/Inverse overloads;
  // mutable because transforming does not observably change the instance.
  mutable std::vector<double> scratch_;
};

}  // namespace privelet::wavelet

#endif  // PRIVELET_WAVELET_HAAR_H_
