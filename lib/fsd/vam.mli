(** The Volume Allocation Map (§5.5).

    Kept entirely in volatile memory during normal operation — FSD does no
    disk writes to track free pages. A set bit means "free". Pages of
    deleted-but-uncommitted files sit in the {e shadow} and only become
    allocatable when the deletion commits; this keeps a crashed
    uncommitted delete from having handed the pages to a new file. The
    paper's shadow is a second bitmap; here it is the list of runs freed
    since the last commit, so a commit costs the sectors it frees rather
    than the size of the volume, and sets the same bits.

    The map is saved to its disk area on controlled shutdown, loaded on a
    clean boot, and reconstructed from the name table otherwise. *)

type t

type mode =
  | Snapshot
      (** a full map, valid only while nothing has changed since the save
          (the paper's scheme; saved here at controlled shutdown) *)
  | Log_based
      (** a base image whose subsequent changes live in the redo log as
          {!Cedar_fsd.Log.Vam_chunk} records — the extension §5.3
          declined to build *)

val create_all_free : Layout.t -> t
(** Every data sector free; metadata regions permanently non-free. *)

val layout : t -> Layout.t
val is_free : t -> int -> bool
val free_count : t -> int

val allocate_run : t -> pos:int -> len:int -> unit
(** Marks the run allocated. Raises [Invalid_argument] if any sector is
    not currently free. *)

val release_run : t -> pos:int -> len:int -> unit
(** Immediate release (used by aborted creates). Raises
    [Invalid_argument], changing nothing, if the run holds a metadata
    sector or a sector already free. *)

val shadow_release_run : t -> pos:int -> len:int -> unit
(** Deferred release: free only at the next {!commit_shadow}. *)

val commit_shadow : t -> unit
(** Frees every run shadow-released since the last commit and marks its
    chunks dirty. Checks all runs first and raises [Invalid_argument],
    changing nothing, if two overlap or any sector is already free. *)

val shadow_count : t -> int
(** Sectors awaiting {!commit_shadow}. *)

val find_free_run : t -> from:int -> upto:int -> len:int -> int option
val find_free_run_down : t -> from:int -> downto_:int -> len:int -> int option

val mark_allocated_for_rebuild : t -> int -> unit
(** During reconstruction: claim one sector found referenced by the FNT. *)

val mark_entry_allocated : t -> Cedar_fsbase.Entry.t -> unit
(** During reconstruction: claim every sector of one name-table entry,
    its anchor (the leader, when it has one) and each of its runs, a
    whole run per step. Boot and the scavenger rebuild the map with it,
    one entry at a time. Raises [Invalid_argument] if a run leaves the
    volume. *)

val quarantine : t -> int -> unit
(** The scavenger's hold on a sector of a losing claim: allocated, yet
    referenced by no entry. Counted (if the sector was free) and saved
    with the map; a map reconstructed from the name table frees it. *)

val quarantined : t -> int
(** Sectors held by {!quarantine}: with {!shadow_count}, the allocated
    sectors no entry claims on a sound volume. *)

(** {1 Persistence (§5.5: saved on shutdown, read if properly saved)} *)

val save : ?mode:mode -> ?epoch:int64 -> t -> Cedar_disk.Device.t -> unit
(** Writes the bitmap and a checksummed header marking it cleanly saved.
    [mode] defaults to [Snapshot]. For a [Log_based] base, [epoch] is the
    highest log record number whose effects the image already contains:
    recovery uses the base only if replay reached that record (the
    epoch is at most the last record replayed or, when none was, below
    the pointer's record number), and then applies only chunk images
    from records numbered above it. A base stamped for a record that
    never landed is so refused, and the map rebuilt from the name
    table. *)

val load : Layout.t -> Cedar_disk.Device.t -> (t * mode * int64) option
(** [None] if the save area is absent, damaged, or not marked clean. *)

val invalidate_saved : Layout.t -> Cedar_disk.Device.t -> unit
(** Marks the on-disk copy stale; called as soon as a boot proceeds so a
    later crash cannot reuse it. *)

(** {1 Chunks (the VAM-logging extension)}

    The packed bitmap is divided into sector-sized chunks, chunk [c]
    being what {!save} writes at save-area sector [c + 1]. Mutations
    mark the covering chunks dirty; the extension logs dirty chunk
    images at each group commit so recovery can rebuild the map from the
    saved base plus the log, skipping the name-table scan. *)

val chunk_count : t -> int
val chunk_image : t -> int -> bytes
val apply_chunk : t -> int -> bytes -> unit
val drain_dirty_chunks : t -> int list
(** Chunks touched since the last drain, ascending; clears the set. *)

val dirty_chunk_count : t -> int
