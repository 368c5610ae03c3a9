(** File-name-table entries.

    The paper's Table 1: in FSD the name table holds everything — text
    name (the key), version (in the key), keep, uid, run table, byte size,
    and create time. Three kinds of entries exist (§4): local files,
    symbolic links to remote files, and cached copies of remote files. In
    CFS the same record type is split: the FNT entry holds only
    [uid]/[keep] plus the header address, and the run table and properties
    live in the file header. *)

type kind =
  | Local
  | Symlink of { target : string }
  | Cached of { server : string; mutable last_used : int }
      (** [last_used] is the property whose lazy update motivates group
          commit (§5.4). *)

type t = {
  uid : int64;
  keep : int;  (** number of versions to keep; 0 = unlimited *)
  byte_size : int;
  created : int;  (** virtual time, microseconds *)
  runs : Run_table.t;  (** data pages only *)
  anchor : int;
      (** CFS: the "header page 0 disk address" of Table 1. FSD: the
          leader-page sector, which by construction physically precedes
          the first data page. [-1] when the entry has no disk pages
          (symlinks). *)
  kind : kind;
}

val local :
  uid:int64 ->
  keep:int ->
  byte_size:int ->
  created:int ->
  runs:Run_table.t ->
  anchor:int ->
  t

val encode : t -> string
val decode : string -> t
(** Raises [Bytebuf.Decode_error] on malformed input. *)

val equal : t -> t -> bool
