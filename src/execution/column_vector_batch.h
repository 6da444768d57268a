#pragma once

#include "transform/arrow_reader.h"

namespace mainline::execution {

using AccessPath = transform::AccessPath;

/// A uniform columnar view of one block's visible tuples, produced by
/// TableScanner and ParallelTableScanner through transform::ArrowReader::
/// ReadBlock: column `i` is the `i`-th column of the scan projection,
/// exposed as an arrowlite array regardless of which path produced it
/// (dictionary-encoded varlens included — Array::GetString resolves codes).
///
/// For frozen-path batches the arrays alias block storage, and the batch
/// keeps the block's read lock until Release()/destruction; operators must
/// therefore consume a batch before requesting the next one or moving it.
using ColumnVectorBatch = transform::BlockRead;

}  // namespace mainline::execution
