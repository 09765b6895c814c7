#include "privelet/wavelet/hn_transform.h"

#include <algorithm>
#include <string>
#include <utility>

#include "privelet/common/aligned_buffer.h"
#include "privelet/common/check.h"
#include "privelet/common/residency.h"
#include "privelet/common/scratch_pool.h"
#include "privelet/common/thread_pool.h"
#include "privelet/matrix/tile_buffer.h"
#include "privelet/simd/dispatch.h"
#include "privelet/wavelet/haar.h"
#include "privelet/wavelet/identity.h"
#include "privelet/wavelet/nominal.h"

namespace privelet::wavelet {

namespace {

// Per-worker workspace: two panels plus transform scratch. Pooled so
// chunk bodies never allocate after a worker's first chunk (capacities
// persist across leases and axis passes).
struct LineWorkspace {
  matrix::TileBuffer in;
  matrix::TileBuffer out;
  common::AlignedBuffer<double> scratch;

  double* Scratch(std::size_t n) {
    // 64-byte aligned like the panels, so the vector kernels' scratch
    // rows share the panels' alignment. Transforms fully write their
    // scratch before reading it, so uninitialized growth is fine.
    if (n == 0) return scratch.data();
    return scratch.Grow(n);
  }
};

using WorkspacePool = common::ScratchPool<LineWorkspace>;

enum class Direction { kForward, kInverse };

// One axis pass. Axes whose lines are contiguous (stride == 1) are walked
// line by line in place in the matrix slabs, kTileLines lines per step;
// every other axis runs the transform's batched kernel, in core on the
// matrices themselves and out of core on gathered TileBuffer panels.
// `noise` (first inverse pass only) perturbs each coefficient line while
// it is cache-hot.
void RunAxisPass(const matrix::FrequencyMatrix& src,
                 matrix::FrequencyMatrix& dst, std::size_t axis,
                 const Transform1D& t, Direction dir,
                 common::ThreadPool* pool, WorkspacePool& workspaces,
                 const matrix::EngineOptions& options,
                 const PanelNoiseFactory* noise_factory) {
  // Release-behind for the out-of-core engine: evict already-processed
  // pages of both matrices each time a quota of bytes has streamed by, so
  // the pass's resident set tracks options.max_memory_bytes, not the
  // matrix sizes. ReleaseResidency is a no-op on vector-backed matrices
  // and never alters values, so the pass's arithmetic (and thus the
  // published bytes) is unchanged.
  common::ResidencyGovernor governor(options.max_memory_bytes, [&src, &dst] {
    src.ReleaseResidency();
    dst.ReleaseResidency();
  });
  // Resolve the kernel level once per pass (the PRIVELET_ISA environment,
  // then the best the host supports) so every worker of the pass
  // dispatches to the same table.
  const simd::IsaLevel isa = simd::ResolveIsa();
  const std::size_t lines = src.NumLines(axis);
  constexpr std::size_t tile = matrix::kTileLines;
  const std::size_t panels = (lines + tile - 1) / tile;
  const std::size_t in_len = src.dim(axis);
  const std::size_t out_len = dst.dim(axis);
  // Out-of-core pacing must happen *inside* the copy loops, not at panel
  // boundaries: one panel touches up to a page per axis step in each
  // matrix, which can dwarf the byte budget long before an end-of-panel
  // charge would fire. The slab path charges per line below; the
  // gathered path hands the governor to Gather/Scatter, which charge per
  // axis step.
  common::ResidencyGovernor* paced =
      options.out_of_core() ? &governor : nullptr;
  // Slab lines are contiguous, so the bytes a line touches are the bytes
  // it processes.
  const std::size_t slab_line_bytes = (in_len + out_len) * sizeof(double);

  if (src.Stride(axis) == 1) {
    // Slab path: line b along this axis occupies the contiguous elements
    // [b * len, (b + 1) * len) of each matrix, so panels are addressed in
    // place — no transpose, no output staging.
    common::ParallelFor(
        pool, panels, /*grain=*/0, [&](std::size_t pb, std::size_t pe) {
          auto ws = workspaces.Acquire();
          double* scratch = ws->Scratch(t.scratch_size());
          PanelNoiseFn noise =
              noise_factory != nullptr ? (*noise_factory)() : PanelNoiseFn();
          // The source slab is const; noise and refinement mutate
          // coefficients, so those paths stage the panel in a buffer.
          const bool stage = dir == Direction::kInverse &&
                             (noise != nullptr || t.has_refinement());
          for (std::size_t p = pb; p < pe; ++p) {
            const std::size_t first = p * tile;
            const std::size_t count = std::min(tile, lines - first);
            const double* src_slab = src.values().data() + first * in_len;
            double* dst_slab = dst.values().data() + first * out_len;
            if (dir == Direction::kForward) {
              for (std::size_t b = 0; b < count; ++b) {
                t.Forward(src_slab + b * in_len, dst_slab + b * out_len,
                          scratch, isa);
                governor.OnBytesProcessed(slab_line_bytes);
              }
            } else if (!stage) {
              for (std::size_t b = 0; b < count; ++b) {
                t.Inverse(src_slab + b * in_len, dst_slab + b * out_len,
                          scratch, isa);
                governor.OnBytesProcessed(slab_line_bytes);
              }
            } else {
              // Stage one line at a time: the fused-noise sweep is
              // position-based (each draw depends only on the flat
              // coefficient index), so per-line staging perturbs exactly
              // the same values as whole-panel staging while keeping both
              // the heap workspace and the paced working set at one line.
              double* buf = ws->in.Prepare(in_len, 1);
              for (std::size_t b = 0; b < count; ++b) {
                const double* src_line = src_slab + b * in_len;
                std::copy(src_line, src_line + in_len, buf);
                if (noise != nullptr) {
                  const std::size_t flat = (first + b) * in_len;
                  noise(flat, flat + in_len, buf);
                }
                t.Refine(buf);
                t.Inverse(buf, dst_slab + b * out_len, scratch, isa);
                governor.OnBytesProcessed(slab_line_bytes);
              }
            }
          }
        });
    return;
  }

  PRIVELET_CHECK(noise_factory == nullptr,
                 "fused noise applies only to the contiguous axis");
  // Every other axis runs through the transform's one batched kernel. Its
  // pitch layout is both the matrix storage (consecutive lines along the
  // axis have consecutive base addresses, rows Stride(axis) apart) and a
  // gathered TileBuffer panel (pitch == count).
  const auto run_kernel = [&](std::size_t count, const double* in,
                              double* out, std::size_t pitch,
                              double* scratch) {
    if (dir == Direction::kForward) {
      t.ForwardLines(count, in, out, pitch, scratch, isa);
    } else {
      t.InverseLines(count, in, out, pitch, scratch, isa);
    }
  };
  if (paced != nullptr) {
    // Out of core: gathered panels, because Gather/Scatter pace residency
    // per axis step.
    common::ParallelFor(
        pool, panels, /*grain=*/0, [&](std::size_t pb, std::size_t pe) {
          auto ws = workspaces.Acquire();
          for (std::size_t p = pb; p < pe; ++p) {
            const std::size_t first = p * tile;
            const std::size_t count = std::min(tile, lines - first);
            ws->in.Gather(src, axis, first, count, paced);
            run_kernel(count, ws->in.panel(), ws->out.Prepare(out_len, count),
                       count, ws->Scratch(t.lines_scratch_size(count)));
            ws->out.Scatter(dst, axis, first, count, paced);
          }
        });
    return;
  }
  // In core: the kernel reads `src` and writes `dst` in place, one call per
  // run of ForEachLineRun. Lane count per call: as many consecutive lines
  // as possible, NOT the tile size. With `count` lanes each row is a
  // contiguous `count`-element span at an 8*stride-byte pitch; short rows
  // at a page-multiple pitch serialize on store-to-load 4K aliasing, while
  // runs approaching the full stride turn every row access into sequential
  // streaming (count == stride means the rows tile the matrix exactly).
  // The chunk only bounds the per-worker scratch near kScratchBytes — per
  // line the operations are identical for every lane count, so the output
  // does not depend on this choice.
  constexpr std::size_t kScratchBytes = std::size_t{8} << 20;
  const std::size_t stride = src.Stride(axis);
  const std::size_t lane_len =
      std::max({in_len, out_len, t.lines_scratch_size(tile) / tile});
  const std::size_t chunk =
      std::max(tile, kScratchBytes / (sizeof(double) * lane_len));
  const std::size_t chunks = (lines + chunk - 1) / chunk;
  common::ParallelFor(
      pool, chunks, /*grain=*/0, [&](std::size_t pb, std::size_t pe) {
        auto ws = workspaces.Acquire();
        // Runs never exceed the stride, nor the chunk.
        double* scratch =
            ws->Scratch(t.lines_scratch_size(std::min(chunk, stride)));
        for (std::size_t p = pb; p < pe; ++p) {
          const std::size_t first = p * chunk;
          const std::size_t count = std::min(chunk, lines - first);
          matrix::ForEachLineRun(
              stride, in_len, first, count,
              [&](std::size_t base, std::size_t col, std::size_t run) {
                const std::size_t dst_base = dst.LineBase(axis, first + col);
                run_kernel(run, src.values().data() + base,
                           dst.values().data() + dst_base, stride, scratch);
              });
        }
      });
}

// The pass loop of both directions: runs the axis passes of `dir` (axes
// 0..d-1 forward, d-1..0 inverse), the first reading `*src`. On entry
// `current` owns `*src` when the loop may recycle it (empty when `*src`
// is the caller's) and `idle` is a dead buffer; on return `current` holds
// the result and `idle` the last dead buffer. In core, each pass writes
// into the dead buffer when its capacity covers the pass (the inverse's
// last pass, the release, only on an exact fit so it pins no slack), and
// the matrix the pass consumed becomes the next dead buffer; so the
// passes alternate between two working matrices when the dims allow.
// Out-of-core passes write fresh scratch matrices, which are never
// recycled. `noise` (inverse only) rides the first pass.
Status RunPasses(const std::vector<std::unique_ptr<Transform1D>>& transforms,
                 Direction dir, const matrix::FrequencyMatrix* src,
                 matrix::FrequencyMatrix& current,
                 matrix::FrequencyMatrix& idle, common::ThreadPool* pool,
                 const matrix::EngineOptions& options,
                 const PanelNoiseFactory& noise) {
  WorkspacePool workspaces;
  const std::size_t d = transforms.size();
  for (std::size_t k = 0; k < d; ++k) {
    const std::size_t axis = dir == Direction::kForward ? k : d - 1 - k;
    const Transform1D& t = *transforms[axis];
    std::vector<std::size_t> next_dims = src->dims();
    next_dims[axis] = dir == Direction::kForward ? t.coefficient_count()
                                                 : t.input_size();
    matrix::FrequencyMatrix next;
    if (options.out_of_core()) {
      // Each intermediate lives in an mmap scratch file so the pass can
      // release residency behind itself (the previous intermediate's
      // pages are freed wholesale when `current` is reassigned below).
      PRIVELET_ASSIGN_OR_RETURN(next, matrix::FrequencyMatrix::CreateScratch(
                                          std::move(next_dims),
                                          options.scratch_dir));
    } else {
      const bool release = dir == Direction::kInverse && k + 1 == d;
      const std::size_t cells = src->NumLines(axis) * next_dims[axis];
      if (release && idle.capacity() != cells) {
        idle = matrix::FrequencyMatrix();
      }
      // Every pass writes all out_len elements of every destination
      // line, so it fully overwrites `next` — skip the zero-fill.
      next = matrix::FrequencyMatrix::Uninitialized(std::move(next_dims),
                                                    std::move(idle));
    }

    // Only the first inverse pass (axis d-1, the contiguous axis, which
    // touches every coefficient exactly once) carries the noise hook.
    const PanelNoiseFactory* noise_factory =
        (k == 0 && noise != nullptr) ? &noise : nullptr;
    RunAxisPass(*src, next, axis, t, dir, pool, workspaces, options,
                noise_factory);
    if (!current.is_scratch()) idle = std::move(current);
    current = std::move(next);
    src = &current;
  }
  return Status::OK();
}

}  // namespace

double HnCoefficients::WeightAt(std::size_t flat) const {
  const auto coords = coeffs.Coords(flat);
  double weight = 1.0;
  for (std::size_t axis = 0; axis < coords.size(); ++axis) {
    weight *= (*axis_weights[axis])[coords[axis]];
  }
  return weight;
}

LineWeights HnCoefficients::line_weights() const {
  LineWeights w{coeffs.dims(), {}, axis_weights};
  for (std::size_t axis = 0; axis < coeffs.num_dims(); ++axis) {
    w.strides.push_back(coeffs.Stride(axis));
  }
  return w;
}

double LineWeights::operator()(std::size_t line) const {
  const std::size_t d = dims.size();
  const std::size_t line_len = dims[d - 1];
  double weight = 1.0;
  for (std::size_t axis = 0; axis + 1 < d; ++axis) {
    const std::size_t coord = (line / (strides[axis] / line_len)) % dims[axis];
    weight *= (*axis_weights[axis])[coord];
  }
  return weight;
}

HnTransform::HnTransform(std::vector<std::unique_ptr<Transform1D>> transforms)
    : transforms_(std::move(transforms)) {
  input_dims_.reserve(transforms_.size());
  output_dims_.reserve(transforms_.size());
  for (const auto& t : transforms_) {
    input_dims_.push_back(t->input_size());
    output_dims_.push_back(t->coefficient_count());
  }
}

Result<HnTransform> HnTransform::Create(
    const data::Schema& schema,
    const std::vector<std::size_t>& identity_axes) {
  if (schema.num_attributes() == 0) {
    return Status::InvalidArgument("schema has no attributes");
  }
  for (std::size_t axis : identity_axes) {
    if (axis >= schema.num_attributes()) {
      return Status::InvalidArgument("identity axis out of range");
    }
  }
  std::vector<std::unique_ptr<Transform1D>> transforms;
  transforms.reserve(schema.num_attributes());
  for (std::size_t axis = 0; axis < schema.num_attributes(); ++axis) {
    const data::Attribute& attr = schema.attribute(axis);
    const bool identity =
        std::find(identity_axes.begin(), identity_axes.end(), axis) !=
        identity_axes.end();
    if (identity) {
      transforms.push_back(
          std::make_unique<IdentityTransform>(attr.domain_size()));
    } else if (attr.is_ordinal()) {
      transforms.push_back(std::make_unique<HaarTransform>(attr.domain_size()));
    } else {
      // Share the attribute's hierarchy — the transform keeps the schema's
      // instance alive instead of copying the node tables.
      transforms.push_back(
          std::make_unique<NominalTransform>(attr.shared_hierarchy()));
    }
  }
  return HnTransform(std::move(transforms));
}

Result<HnCoefficients> HnTransform::Forward(
    const matrix::FrequencyMatrix& m, common::ThreadPool* pool,
    const matrix::EngineOptions& options) const {
  if (m.dims() != input_dims_) {
    return Status::InvalidArgument("matrix dims do not match the transform");
  }
  // Step i (paper's C_i): transform every 1-D line along axis i. The first
  // pass reads `m` directly (no working copy of the input).
  HnCoefficients result;
  PRIVELET_RETURN_IF_ERROR(RunPasses(transforms_, Direction::kForward, &m,
                                     result.coeffs, result.workspace, pool,
                                     options, /*noise=*/{}));
  result.axis_weights.reserve(transforms_.size());
  for (const auto& t : transforms_) result.axis_weights.push_back(&t->weights());
  return result;
}

Result<matrix::FrequencyMatrix> HnTransform::Inverse(
    const HnCoefficients& c, common::ThreadPool* pool,
    const matrix::EngineOptions& options,
    const PanelNoiseFactory& noise) const {
  if (c.coeffs.dims() != output_dims_) {
    return Status::InvalidArgument(
        "coefficient dims do not match the transform");
  }
  // The first pass reads `c.coeffs` directly; fused noise perturbs staged
  // panels, never the caller's coefficients. Nothing is recycled until a
  // pass has consumed a matrix of the loop's own.
  matrix::FrequencyMatrix current;
  matrix::FrequencyMatrix idle;
  PRIVELET_RETURN_IF_ERROR(RunPasses(transforms_, Direction::kInverse,
                                     &c.coeffs, current, idle, pool, options,
                                     noise));
  return current;
}

Result<matrix::FrequencyMatrix> HnTransform::Inverse(
    HnCoefficients&& c, common::ThreadPool* pool,
    const matrix::EngineOptions& options,
    const PanelNoiseFactory& noise) const {
  if (c.coeffs.dims() != output_dims_) {
    return Status::InvalidArgument(
        "coefficient dims do not match the transform");
  }
  matrix::FrequencyMatrix current = std::move(c.coeffs);
  matrix::FrequencyMatrix idle = std::move(c.workspace);
  PRIVELET_RETURN_IF_ERROR(RunPasses(transforms_, Direction::kInverse,
                                     &current, current, idle, pool, options,
                                     noise));
  return current;
}

double HnTransform::GeneralizedSensitivity() const {
  double rho = 1.0;
  for (const auto& t : transforms_) rho *= t->p_factor();
  return rho;
}

double HnTransform::VarianceBoundFactor() const {
  double factor = 1.0;
  for (const auto& t : transforms_) factor *= t->h_factor();
  return factor;
}

}  // namespace privelet::wavelet
