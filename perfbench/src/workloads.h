#pragma once

#include "common.h"
#include "trace.h"
#include "transform/block_transformer.h"

namespace perfbench {

/// TPC-C terminals with WAL, GC and background transform; ORDER_LINE exports.
void RunOltp(const Args &args, Tracer *tracer, Report *report);

/// TPC-H Q1/Q6/Q12/Q14/Q3 rounds and LINEITEM exports, each round over
/// blocks frozen again at its start.
void RunOlap(const Args &args, Tracer *tracer, Report *report);

/// The transform.* per-layer metrics from the transform work on the
/// measured data: `passes` pipeline passes accumulating `stats`.
inline void RecordTransformStats(const mainline::transform::TransformStats &stats, double passes,
                                 Report *report) {
  report->layers["transform.passes"] = passes;
  report->layers["transform.blocks_frozen"] = static_cast<double>(stats.blocks_frozen);
  report->layers["transform.tuples_moved"] = static_cast<double>(stats.tuples_moved);
  report->layers["transform.compaction_aborts"] = static_cast<double>(stats.compaction_aborts);
  report->layers["transform.gather_retries"] = static_cast<double>(stats.gather_retries);
  report->layers["transform.compaction_ms"] = static_cast<double>(stats.compaction_us) / 1e3;
  report->layers["transform.gather_ms"] = static_cast<double>(stats.gather_us) / 1e3;
}

}  // namespace perfbench
