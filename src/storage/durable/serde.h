// Binary serialization of the engine's state objects for the WAL and
// snapshot formats, on top of the shared codec (storage/codec.h):
// tables, values and schemas use its encodings, and everything here
// writes through a ByteWriter and reads through a bounds-checked
// ByteReader. Decoders fail with InvalidArgument on any truncation,
// malformed tag or count the input cannot hold — they never read past
// the buffer and never allocate on an unchecked count.
#ifndef MOSAIC_STORAGE_DURABLE_SERDE_H_
#define MOSAIC_STORAGE_DURABLE_SERDE_H_

#include "common/status.h"
#include "core/catalog.h"
#include "core/weights.h"
#include "sql/ast.h"
#include "stats/marginal.h"
#include "storage/codec.h"

namespace mosaic {
namespace durable {

/// `e` may be null (encoded as an absence marker).
void EncodeExpr(const sql::Expr* e, ByteWriter* w);
/// May return a null ExprPtr.
[[nodiscard]] Result<sql::ExprPtr> DecodeExpr(ByteReader* r);

void EncodeMechanism(const sql::MechanismSpec& m, ByteWriter* w);
[[nodiscard]] Result<sql::MechanismSpec> DecodeMechanism(ByteReader* r);

void EncodeMarginal(const stats::Marginal& m, ByteWriter* w);
[[nodiscard]] Result<stats::Marginal> DecodeMarginal(ByteReader* r);

void EncodeWeightEpoch(const core::WeightEpoch& e, ByteWriter* w);
[[nodiscard]] Result<core::WeightEpoch> DecodeWeightEpoch(ByteReader* r);

void EncodePopulation(const core::PopulationInfo& p, ByteWriter* w);
[[nodiscard]] Result<core::PopulationInfo> DecodePopulation(ByteReader* r);

/// Sample header only: name, population, schema, mechanism, predicate.
/// The decoded SampleInfo has empty data and a default WeightStore.
void EncodeSampleHeader(const core::SampleInfo& s, ByteWriter* w);
[[nodiscard]] Result<core::SampleInfo> DecodeSampleHeader(ByteReader* r);

}  // namespace durable
}  // namespace mosaic

#endif  // MOSAIC_STORAGE_DURABLE_SERDE_H_
