(** The file record of Table 1, kept on disk under a self-checksum: the
    CFS file header (two sectors) and the FSD leader page (one sector),
    which checks the name-table entry it copies (§5.1–5.2). Both hold the
    same eight fields; each system's format value sets the magic, the
    size and whether the run table or the kind comes first, so each keeps
    its own on-disk bytes. *)

type t = {
  uid : int64;
  name : string;
  version : int;
  keep : int;
  byte_size : int;
  created : int;
  runs : Run_table.t;  (** data sectors only *)
  kind : Entry.kind;
}

type order = Runs_first | Kind_first

type format = {
  magic : int;
  sectors : int;  (** the record's size on disk *)
  order : order;  (** which of the run table and the kind is written first *)
}

val encode : format -> t -> sector_bytes:int -> bytes
(** Exactly [format.sectors * sector_bytes] long, checksummed. *)

val decode : format -> bytes -> t option
(** [None] when the image is damaged or not a record of this format. *)
