#pragma once

// Host probes recorded with every run (not gated): a STREAM-style memory
// bandwidth probe — the "as fast as the hardware allows" ceiling — and the
// process's resident set size.

namespace perfbench {

struct StreamResult {
  double copy_gb_s = 0;   ///< a[i] = b[i]
  double triad_gb_s = 0;  ///< a[i] = b[i] + s * c[i]
};

/// Best of a few passes over three 64 MB arrays (larger than any cache on
/// the hosts this runs on), single-threaded. Takes about a quarter second.
StreamResult ProbeStream();

/// Resident set size in MB after returning free heap pages to the OS, so the
/// reading reflects live data rather than allocator slack.
double ResidentMb();

}  // namespace perfbench
