(** CFS file headers (Table 1): two labelled sectors per file holding the
    run table, byte size, keep, create time, version, and text name —
    the information FSD later moved into the name table. The header
    serves the role UNIX inodes do, with a different implementation. *)

type kind =
  | Local
  | Cached of { server : string; last_used : int }
      (** a cached copy of a remote file; CFS keeps its last-used time in
          the header, so every update costs a header rewrite *)

type t = {
  uid : int64;
  name : string;
  version : int;
  keep : int;
  byte_size : int;
  created : int;
  runs : Cedar_fsbase.Run_table.t;  (** data sectors only *)
  kind : kind;
}

val sectors : int
(** Always 2: "header page 0" and "header page 1". *)

val encode : t -> sector_bytes:int -> bytes
(** Exactly [sectors * sector_bytes] long, checksummed. *)

val decode : bytes -> t option
(** [None] when the image is damaged or not a header. *)

val labels : t -> Cedar_disk.Label.t list
(** The two header labels, for verified I/O. *)
