(** File-name-table entries.

    The paper's Table 1: in FSD the name table holds everything — text
    name (the key), version (in the key), keep, uid, run table, byte size,
    and create time. Two kinds of files exist (§4): local files and cached
    copies of remote files; §4's symbolic links are not reproduced. Each
    entry's leader page keeps a checked copy of it ({!File_record}). CFS
    stores a value of its own in its name table — uid, keep and the header
    address — and keeps the rest in the file header. *)

type kind =
  | Local
  | Cached of { server : string; last_used : int }
      (** [last_used] is the property whose lazy update motivates group
          commit (§5.4). *)

type t = {
  uid : int64;
  keep : int;  (** number of versions to keep; 0 = unlimited *)
  byte_size : int;
  created : int;  (** virtual time, microseconds *)
  runs : Run_table.t;  (** data pages only *)
  anchor : int;
      (** the leader-page sector, which by construction physically
          precedes the first data page *)
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
(** Raises [Bytebuf.Decode_error] on malformed input (a run table
    {!Run_table.of_runs} refuses included), and on an entry
    without a leader sector. *)

val equal : t -> t -> bool
