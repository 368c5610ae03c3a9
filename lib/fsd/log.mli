(** The metadata redo log (§5.3) with group commit (§5.4).

    The log is a circular file near the central cylinders. Each record is
    written as one synchronous multi-sector command laid out as

    {v header | blank | header copy | data... | end | data copies... | end copy v}

    so the same data never occupies adjacent sectors and any 1–2
    consecutive-sector failure is correctable from the copies. A record is
    committed iff a valid end page matching its header survives.

    The body is divided into thirds. Pages are written to their home
    location only when the writer is about to {e enter} the third in which
    they were last logged (the [on_enter_third] callback); the pointer to
    the start of the first valid record in the oldest third lives in log
    sector 0 (replicated in sector 2) and is rewritten at each third
    entry. On average 5/6 of the log is in use. *)

type unit_kind =
  | Fnt_page of int  (** name-table page id; homed at two locations *)
  | Leader_page of int  (** absolute home sector *)
  | Vam_chunk of int
      (** one sector-sized slice of the allocation bitmap, by chunk
          index — the optional VAM-logging extension (§5.3) *)

type logged_unit = { kind : unit_kind; image : bytes }
(** One unit of a record: its image, whole sectors. *)

type stats = {
  mutable records : int;
  mutable data_sectors : int;
  mutable total_sectors : int;  (** including overhead and copies *)
  mutable third_entries : int;
  record_sizes : Cedar_util.Stats.t;  (** total sectors per record *)
}

type t

val format : Cedar_disk.Device.t -> Layout.t -> unit
(** Initialise pointer pages for an empty log. *)

val attach :
  ?shard:int ->
  Cedar_disk.Device.t ->
  Layout.t ->
  boot_count:int ->
  next_record_no:int64 ->
  write_off:int ->
  on_enter_third:(int -> unit) ->
  t
(** Attach after {!recover} has replayed every committed image home: no
    prior record is needed any more, so the oldest-record pointer is
    immediately rewritten to ([write_off], [next_record_no]).
    [next_record_no] must exceed every record number ever written to this
    log — the caller guarantees this by adding a large slack on each boot
    — so that stale records can never satisfy the recovery chain.
    [shard] (default 0, u8) is stamped into every record header; a
    multi-volume server gives each volume its own shard id so recovery
    and the scavenger can never mistake another volume's leftovers for
    this log's chain. Raises [Invalid_argument] outside [0, 255]. *)

val append : t -> logged_unit list -> int
(** Writes one record synchronously and returns the third in which the
    record {e starts} — the logged images survive until that third is
    next entered, so that is when the pages must be written home. The
    record is assembled in a buffer the log owns and reuses; the unit
    images are copied, so callers may reuse theirs. The end page's
    CRC-32 of each data sector is hashed from that buffer. Raises
    [Invalid_argument] if the record exceeds a third, or if a unit's
    image does not match its kind's sector count. *)

val unit_sectors : Layout.t -> unit_kind -> int
val record_total_sectors : Layout.t -> logged_unit list -> int
val max_data_sectors_hard : Layout.t -> int
(** Structural cap on data sectors per record (directory and checksum
    tables must fit their sectors). *)

val current_third : t -> int

val third_fill : t -> float
(** Fill of the current third in [0, 1], measured from that third's own
    base offset. Reads exactly 1.0 when the head sits on the boundary of
    the next third (entry — and reclamation — happen on the next
    append), never wrapping early to 0.0. *)

val stats : t -> stats

val next_record_no : t -> int64
(** The number the next appended record will carry. *)

val thirds_entered_by : t -> record_sectors:int -> int list
(** Which thirds appending a record of that many total sectors would
    enter (and therefore overwrite), without side effects. {!append}
    enters exactly these; the diverged-page test drives it to learn
    which record reclaims a third. *)

val reset_pointer : t -> unit
(** Point the oldest-record pointer at the end of the chain. Called by a
    clean shutdown once every page is home, so the next boot replays
    nothing. *)

(** {1 Recovery} *)

type recovery = {
  replayed_records : int;
  last_record_no : int64 option;
  pointer_record_no : int64;
      (** the record number named by the on-disk pointer; a lower bound
          for choosing the next session's record numbers *)
  next_write_off : int;  (** body offset just past the chain *)
  surviving : (int * int64) list;
      (** body offset and record number of each replayed record, oldest
          first *)
  corrected_sectors : int;  (** sectors read from the replica copy *)
  images : (unit_kind * bytes * int64) list;
      (** final image per logged unit with the number of the record it
          came from (later records shadow earlier) *)
}

val recover : ?shard:int -> Cedar_disk.Device.t -> Layout.t -> recovery
(** The single sequential REDO pass, the one every restart runs (boot,
    the scavenger, [inspect]): follow the chain from the oldest-record
    pointer and apply each committed record in log order, stopping at
    the first break; tolerant of 1–2 consecutive damaged sectors
    anywhere (uses the replicas). Every live log sector is read at most
    once — restart cost is linear in the live log length. A record
    whose header carries a shard tag other than [shard] (default 0)
    terminates the chain exactly like a torn record. *)
