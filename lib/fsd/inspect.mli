(** Read-only volume inspection — the debugfs/xfs_db of this repository.

    Everything here works from the on-disk state (plus a booted handle
    for the in-memory views) and writes human-readable reports; nothing
    is modified. Used by [cedar inspect] and handy when a test fails. *)

val volume_report : Fsd.t -> string
(** A booted volume's layout, name table (B-tree shape, per-kind entry
    counts), scrub and twin-repair counters, free space (totals and the
    ten largest free extents per area) and log (the oldest-record
    pointer and every surviving record). *)
