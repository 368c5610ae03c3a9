(** CFS — the previous Cedar file system, reimplemented as the paper's
    baseline (§2, §4).

    Robustness comes from hardware labels on every sector and from keeping
    information twice (name table + file headers): every data transfer is
    a verified, labelled I/O, creation writes labels then contents then
    the name table then the header again (≥ 6 I/Os for a one-byte file),
    and the name table is updated in place with {e no} atomicity across
    pages — a crash can corrupt it, and consistency is re-established only
    by the (very slow) scavenger, which reads every label on the disk. *)

type t

type scavenge_report = {
  files_recovered : int;
  files_lost : int;  (** headers that no longer decode *)
  duration_us : int;
}

val format : Cedar_disk.Device.t -> Cfs_layout.params -> unit
(** Labels every sector free, lays out the name table region, writes an
    empty VAM and a clean boot page. *)

val boot : Cedar_disk.Device.t -> [ `Ok of t | `Needs_scavenge ]
(** After a controlled shutdown, attaches directly. After a crash the
    name table and VAM cannot be trusted: the caller must {!scavenge}. *)

val scavenge : Cedar_disk.Device.t -> t * scavenge_report
(** Rebuild the name table and the VAM by scanning every label on the
    volume and re-reading every file header (§5.9: "an hour or more on a
    300 megabyte disk"). *)

val shutdown : t -> unit

(** {1 Operations (newest version unless stated)} *)

val create : t -> name:string -> ?keep:int -> bytes -> Cedar_fsbase.Fs_ops.info
val open_stat : t -> name:string -> Cedar_fsbase.Fs_ops.info
val exists : t -> name:string -> bool
val read_all : t -> name:string -> bytes
(** Raises [Corrupt_metadata] when the header's byte size does not fill
    exactly the file's data pages ({!Cedar_fsbase.Run_table.holds}). *)

val read_page : t -> name:string -> page:int -> bytes
val delete : t -> name:string -> unit
val list : t -> prefix:string -> Cedar_fsbase.Fs_ops.info list
(** Properties come from the headers: one disk read per (uncached) file. *)

val versions : t -> name:string -> int list

(** {1 Remote-file entries (Table 1's other kinds)} *)

val create_symlink : t -> name:string -> target:string -> unit
(** Symbolic links live only in the name table — the scavenger cannot
    recover them (nothing on disk carries their labels). *)

val readlink : t -> name:string -> string option

val import_cached :
  t -> name:string -> server:string -> bytes -> Cedar_fsbase.Fs_ops.info

val touch_cached : t -> name:string -> unit
(** CFS keeps the last-used time in the header: every update rewrites the
    header pair on disk — the cost §5.4's group commit eliminates. *)

val last_used : t -> name:string -> int option

val drop_open_cache : t -> unit
(** Forget cached headers (cold-cache benchmarking). *)

(** {1 Introspection} *)

val ops : t -> Cedar_fsbase.Fs_ops.t
val layout : t -> Cfs_layout.t
val free_sector_hints : t -> int

val check : t -> (unit, string) result
(** Cross-checks the name table against headers and labels, and names
    each file whose header's byte size does not fill exactly its data
    pages. *)
