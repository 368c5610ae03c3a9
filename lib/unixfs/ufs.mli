(** A simplified 4.3 BSD fast file system — the paper's Table 4/5
    comparison point.

    Faithful to what the comparison measures: cylinder groups holding
    bitmaps + inode blocks + data, a buffer cache, {e synchronous} writes
    of directories and inodes on create/unlink (the ordering discipline
    §5.3 contrasts with logging), delayed data writes, optional
    rotational spacing of data blocks (4.2 mode), and [fsck] after a
    crash. Omitted relative to real FFS: fragments, quotas, symlinks,
    and multi-level indirects — none affect the counted quantities. *)

type t

type fsck_report = {
  inodes_checked : int;
  dirs_checked : int;
  problems_fixed : int;
  duration_us : int;
}

val mkfs : Cedar_disk.Device.t -> Ufs_params.t -> unit
val mount : Cedar_disk.Device.t -> [ `Ok of t | `Needs_fsck ]
val unmount : t -> unit
val fsck : Cedar_disk.Device.t -> t * fsck_report
val sync : t -> unit

(** {1 Files (paths with [/] separators; directories created on demand)} *)

val create : t -> path:string -> bytes -> Cedar_fsbase.Fs_ops.info
(** Overwrites an existing file (BSD has no versions). *)

val read_all : t -> path:string -> bytes
val read_page : t -> path:string -> page:int -> bytes
(** [page] indexes 512-byte units, for parity with the Cedar systems. *)

val stat : t -> path:string -> Cedar_fsbase.Fs_ops.info
val unlink : t -> path:string -> unit
val readdir : t -> path:string -> Cedar_fsbase.Fs_ops.info list
(** Directory listing with per-entry stat (what [ls -l] costs). *)

val exists : t -> path:string -> bool

(** {1 Introspection} *)

val ops : t -> Cedar_fsbase.Fs_ops.t
(** [list ~prefix] maps to [readdir] of the directory named by the
    prefix (with any trailing [/] removed). *)

val cpu_overlapped_us : t -> int
(** Data-path CPU charged as overlapping rotational gaps (Table 5). *)

val drop_clean_cache : t -> unit
(** Evict clean buffers (cold-cache benchmarking). *)

val free_blocks : t -> int

val inode_sector : t -> int -> int
(** The sector holding inode [inum]'s slot (fault-injection tests target
    it). *)

val check : t -> (unit, string) result
