(** The name-table page store: write-back cache over the doubly-written
    FNT regions, integrated with the log.

    [write] only updates the cache and notes the page for the next group
    commit; pages reach their two home locations when the log writer
    re-enters the third they were last logged in, at clean shutdown, or
    during crash recovery, as the image their last log copy holds (the
    one rule of {!Dirty}, which leaders follow too). Dirty pages are
    pinned in the cache — their only durable copy is in the log, so they
    must stay until written home (§5.3). Reads that miss fetch {e both}
    copies and use whichever checks; copies whose checked bytes are equal
    are checksummed once. A bad copy is repaired from the good one
    (§5.1).

    Each copy is a {!Cedar_fsbase.Meta_frame} page frame with magic
    "FNT1": the payload and a trailer carrying its page number and
    CRC-32.

    Page 0 is the anchor ({!Cedar_fsbase.Meta_frame.anchor}, magic
    "ANC1"): B-tree root pointer, page allocation map, and the uid
    counter. It flows through the same cache/log/home machinery, so a
    committed anchor update is exactly as durable as the tree pages it
    describes. *)

type t

val create_fresh : Cedar_disk.Device.t -> Layout.t -> t
(** A brand-new store with an empty anchor; used by format. Writes
    nothing to disk until flushed/committed. *)

val attach : Cedar_disk.Device.t -> Layout.t -> t
(** Reads the anchor from disk (run after log recovery has replayed all
    committed page images home). Raises [Fs_error Corrupt_metadata] if
    both anchor copies are bad. *)

(** {1 Btree.STORE}

    Bytes are handed over, not copied (see {!Cedar_btree.Btree.STORE}):
    [write] keeps the caller's bytes as the cached payload, and [read]
    returns the cached payload itself. So [read] returns physically the
    same bytes while a page is unchanged — across forces and home writes
    too — and new bytes after a [write], or after the page left the cache
    (eviction, {!drop_clean_cache}) and was read back from home. Neither
    side may mutate bytes once handed over. *)

val page_bytes : t -> int
val read : t -> int -> bytes
val write : t -> int -> bytes -> unit
val alloc : t -> int
val free : t -> int -> unit
val get_root : t -> int option
val set_root : t -> int option -> unit

val flush_anchor : t -> unit
(** Write the anchor page home immediately (format time). *)

(** {1 Anchor extras} *)

val fresh_uid : t -> int64
val next_uid_peek : t -> int64

val bump_uid_floor : t -> int64 -> unit
(** Raise the uid counter to at least the given value (scavenging: no
    rebuilt file may collide with a recovered uid). *)

val page_in_use : t -> int -> bool
(** Whether the anchor's allocation map marks this page slot live. *)

(** {1 Log integration} *)

val framed_image : t -> int -> bytes
(** The full on-disk image (payload + trailer) of a cached page, as
    logged. The buffer is the store's own: it is framed in place, only
    when the payload differs from the one it was last framed from, and
    stays valid until the page is next framed. Callers copy it (as
    {!Log.append} and the device do) and never mutate it. Byte for byte
    it is {!Cedar_fsbase.Meta_frame.frame} of the payload, which a home
    write of any other image uses. *)

val logged_unit : t -> int -> Log.logged_unit
(** The cached page as a log unit: {!framed_image} together with the
    CRC-32 of each of its sectors, taken while framing, so no logged
    byte is hashed twice. *)

val mark_logged : t -> int list -> third:int -> unit
(** Note that these pages' current payloads are now committed in a log
    record starting in the given third: that record holds the image each
    page goes home as ({!Dirty}). *)

val flush_third : ?budget:int -> t -> int -> int
(** Home-write, lowest page id first, up to [budget] (default: all) of
    the pages whose last log copy lies in the given third; returns how
    many were written. Each goes home as the committed image that copy
    holds, never a newer payload; a page changed since then stays dirty
    and pinned awaiting its own commit. *)

val flush_all_dirty : t -> int
(** Home-write every dirty page, lowest page id first, each as
    {!flush_third} would: the committed image if it was ever logged,
    else its payload (format, and {!Fsd.drop_caches}' cold cache). *)

val write_home_image : Cedar_disk.Device.t -> Layout.t -> page:int -> bytes -> unit
(** Write a framed image to both home locations (used by recovery). *)

val dirty_pages : t -> int list
(** Every dirty page (logged or not). *)

val pages_to_log : t -> int list
(** Dirty pages modified since they were last logged — the group-commit
    batch. *)

val pages_to_log_count : t -> int
(** [List.length (pages_to_log t)] in O(1): a count kept up to date by
    [write], [mark_logged], [free] and every home write. *)

val drop_clean_cache : t -> unit
(** Evict every clean page (benchmarks use this to simulate a cold cache). *)

val home_writes : t -> int
(** Total pages written home so far (each costs two disk writes). *)

val repairs : t -> int
(** Copies repaired from the twin — unreadable or checksum-bad copies on
    read or scrub, plus valid-but-disagreeing twins (copy A wins). *)

(** {1 Scrubbing and scavenging} *)

val scrub_page : t -> int -> [ `Ok | `Repaired | `Unreadable ]
(** Verify both home copies of a page, rewriting a lone bad or stale
    copy in place (B is stale when it differs from a good A). Copy A is
    verified by its checksum; B by equality with A, or by its own
    checksum when A is bad. [`Unreadable] means both copies are bad:
    only the offline scavenger can help. Bypasses the cache. *)

val try_read_home :
  Cedar_disk.Device.t -> Layout.t -> page:int -> bytes option
(** Twin-copy read of a page's payload without attaching a store and
    without repair — the scavenger's probe. Copy B is read only when
    copy A is unreadable or fails its checksum. *)
