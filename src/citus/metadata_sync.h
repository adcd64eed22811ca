// Metadata syncing (§3.10, Citus MX): the one wire format shared by the
// authority-side syncer (CitusExtension::SyncMetadataToNode) and the
// worker-side internal UDF that applies it (udf.cc). Every sync round is a
// single round trip:
//
//   SELECT citus_internal_metadata_apply_delta('<json delta>')
//
// A delta carries what changed between a base version F and the
// authority's current version V: the tables modified since F, the table
// names dropped since F (from the authority's drop log), and the worker
// list / procedure map only if they changed since F. A snapshot is the
// delta from F = 0: it carries every table, the worker list and the
// procedures, and the receiver drops every table and shell registration it
// does not list.
//
// The authority ships a delta from F only to a peer it knows is synced at
// F, with an unchanged restart epoch, while the drop log still reaches back
// to F. Every other round ships a snapshot: a first sync, a forced repair
// (citus_sync_metadata, start_metadata_sync_to_node), a round after a
// restart or a failed round, and the retry after a peer refused a delta.
//
// The receiver decodes and validates the whole payload before touching its
// copy, requires a copy synced at exactly F when F > 0, then applies it and
// publishes V with no yield in between. So no copy is ever half-applied: a
// round either never reaches the peer, which keeps its intact old-version
// copy, or applies completely. The authority marks a peer whose round
// failed pending and the maintenance daemon retries it with a snapshot.
// Sync cost per change is proportional to the size of the change, not to
// the catalog or the cluster.
#ifndef CITUSX_CITUS_METADATA_SYNC_H_
#define CITUSX_CITUS_METADATA_SYNC_H_

#include <cstdint>
#include <string>

#include "citus/metadata.h"
#include "common/status.h"

namespace citusx::citus {

class CitusExtension;

/// Serialize the delta between `from_version` and md's current version;
/// from 0 it is a snapshot. For a nonzero base the caller must have checked
/// DropLogCovers(from_version).
std::string SerializeMetadataDelta(const CitusMetadata& md,
                                   uint64_t from_version);

/// Apply a delta (worker side). Decodes and validates all of it, checks
/// that a nonzero base is exactly the version of a synced local copy, then
/// applies it and publishes its target version atomically (no yields). Any
/// error returns InvalidArgument without touching the copy.
Status ApplyMetadataDelta(CitusExtension* ext, const std::string& json);

}  // namespace citusx::citus

#endif  // CITUSX_CITUS_METADATA_SYNC_H_
