(** Leader pages (§5.2).

    Each FSD file has one leader page, physically preceding its first data
    page. It carries no information needed for operation — it is a
    mutually-checking structure against the name table, kept "to make
    scavenging possible" (§5.1). It is verified opportunistically by
    piggybacking its read on the file's first data access (§5.7).

    The leader records the complete name-table entry — name, version,
    properties, and the full run table — as a one-sector
    {!Cedar_fsbase.File_record}, so the offline scavenger ({!Scavenge})
    can rebuild a file's entry from its leader alone when both copies of
    the FNT page holding it are lost. *)

val format : Cedar_fsbase.File_record.format
(** One sector, magic "LDR2", the kind before the run table. *)

val of_entry :
  name:string -> version:int -> Cedar_fsbase.Entry.t -> Cedar_fsbase.File_record.t

val to_entry : Cedar_fsbase.File_record.t -> anchor:int -> Cedar_fsbase.Entry.t
(** Rebuild the name-table entry from a leader found at sector [anchor]
    (the scavenger's inverse of {!of_entry}). *)

val matches :
  Cedar_fsbase.File_record.t ->
  name:string ->
  version:int ->
  Cedar_fsbase.Entry.t ->
  bool
(** The §5.8 software check: does this leader corroborate the name-table
    entry under this key? Compares uid, name, version, byte size,
    creation time, and the whole run table. [keep] and the remote-cache
    properties are recorded for scavenging but excluded here (they may
    lag by one group commit). *)
