// Sequential-scan similarity search: the brute-force reference and the
// UCR Suite baselines of the paper.
//
// "UCR Suite" here is the whole-matching variant relevant to the paper's
// experiments: an optimized serial scan with early-abandoning SIMD ED.
// "UCR Suite-p" (the paper's in-memory competitor for MESSI, Figs. 9/12)
// partitions the collection over threads that share an atomic BSF.
//
// Every scan consumes the RawSeriesSource data plane. The in-memory
// variants require an *addressable* source (in-RAM or mmap — they scan a
// RawDataView over its contiguous block); a non-addressable source
// asserts in debug builds and yields the empty-collection result in
// release builds. UcrScanStream streams any source batch-by-batch and
// is the on-disk baseline (Figs. 10/11).
#ifndef PARISAX_SCAN_UCR_SCAN_H_
#define PARISAX_SCAN_UCR_SCAN_H_

#include <cstdint>
#include <vector>

#include "dist/euclidean.h"
#include "index/raw_source.h"
#include "util/status.h"
#include "util/threading.h"

namespace parisax {

struct ScanStats {
  uint64_t distance_calcs = 0;
  uint64_t abandoned = 0;  ///< distance computations cut short
  double seconds = 0.0;
};

/// Exact 1-NN by full (non-abandoning) scan. The correctness oracle for
/// every other engine. Ties broken toward the smaller id. Requires an
/// addressable source.
Neighbor BruteForceNn(const RawSeriesSource& source, SeriesView query,
                      KernelPolicy kernel = KernelPolicy::kAuto);

/// Exact k-NN by full scan, ascending distance (ties: smaller id first).
/// Requires an addressable source.
std::vector<Neighbor> BruteForceKnn(const RawSeriesSource& source,
                                    SeriesView query, size_t k,
                                    KernelPolicy kernel = KernelPolicy::kAuto);

/// UCR Suite: serial scan with early-abandoning ED. Requires an
/// addressable source.
Neighbor UcrScanSerial(const RawSeriesSource& source, SeriesView query,
                       ScanStats* stats = nullptr,
                       KernelPolicy kernel = KernelPolicy::kAuto);

/// UCR Suite-p: parallel partitioned scan with a shared atomic BSF.
/// `exec` supplies the scan's parallelism (a ThreadPool for one query
/// over every core, an InlineExecutor to confine it to the caller).
/// Requires an addressable source.
Neighbor UcrScanParallel(const RawSeriesSource& source, SeriesView query,
                         Executor* exec, ScanStats* stats = nullptr,
                         KernelPolicy kernel = KernelPolicy::kAuto);

/// UCR Suite over a streamed collection: one sequential pass through
/// source.OpenStream in `batch_series` chunks (serial; with a FileSource
/// this is the paper's on-disk UCR baseline, paying the device model's
/// sequential cost).
Result<Neighbor> UcrScanStream(const RawSeriesSource& source,
                               SeriesView query, size_t batch_series = 8192,
                               ScanStats* stats = nullptr,
                               KernelPolicy kernel = KernelPolicy::kAuto);

// --- DTW variants (the paper's "current work" extension) ---------------
// All require an addressable source.

/// Exact DTW 1-NN by full banded DTW (no lower bounding); test oracle.
Neighbor BruteForceDtwNn(const RawSeriesSource& source, SeriesView query,
                         size_t band);

/// UCR-DTW: serial scan with the LB_Keogh cascade: LB_Keogh first, then
/// banded DTW whose early abandon adds LB_Keogh's terms for the columns a
/// path has yet to cross (dist/dtw.h).
Neighbor DtwScanSerial(const RawSeriesSource& source, SeriesView query,
                       size_t band, ScanStats* stats = nullptr);

/// Parallel UCR-DTW with a shared atomic BSF; the same cascade per
/// candidate.
Neighbor DtwScanParallel(const RawSeriesSource& source, SeriesView query,
                         size_t band, Executor* exec,
                         ScanStats* stats = nullptr);

}  // namespace parisax

#endif  // PARISAX_SCAN_UCR_SCAN_H_
