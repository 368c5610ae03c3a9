(** Ring-buffer event trace for the storage stack.

    Every layer of the stack emits typed events into one shared trace
    owned by the device: device commands with their simulated latency,
    log appends and group-commit forces, FNT write-twice pairs, leader
    piggybacks, VAM rebuilds, scrub repairs, scavenge and recovery
    phases. Each event carries the span id of the FSD-level operation
    that issued it, so a replayer can attribute raw device I/O to the
    create/open/delete that caused it — the attribution Hagmann's
    Tables 2–4 are built from.

    The trace is disabled by default and costs a single branch (no
    allocation) per potential event while disabled; {!enable} allocates
    the ring lazily. When the ring is full the oldest entries are
    overwritten and counted in {!dropped}. *)

type op_record = {
  client : int;
  opseq : int;  (** per-client lifecycle number, 1-based *)
  op : string;  (** kind label from [Concurrent.op_kind] *)
  arrived_us : int;  (** when the op became runnable *)
  end_us : int;  (** ack time *)
  queue_us : int;
      (** runnable (think deadline, open-loop arrival or previous ack)
          until the scheduler starts executing it *)
  admission_us : int;
      (** always 0: the server refuses no op (kept for the benchmark
          harness) *)
  execute_us : int;  (** inside [Fsd.submit] *)
  seek_us : int;  (** arm time of the op's own device requests *)
  transfer_us : int;
      (** the rest of its requests' command time: rotation and transfer *)
  append_us : int;
      (** for a parked op, the part of its post-execute wait that
          overlaps the covering force's device-busy window; else 0 *)
  parked_us : int;
      (** the rest of the post-execute wait: the §5.4 parked-for-force
          wait, or the wait for the op's own queued requests *)
  dropped : bool;  (** always false (kept for the benchmark harness) *)
}
(** One op's latency split, written once by the server when it acks
    the op. The four phases [queue + execute + append + parked] tile
    [end_us - arrived_us] exactly. [seek_us] and [transfer_us]
    sub-split device time, not a fifth phase: they cover the op's own
    requests, which on an own-timeline or queued device may be
    serviced after execute ends. *)

type event =
  | Dev_read of { dev : int; sector : int; count : int; us : int }
  | Dev_write of { dev : int; sector : int; count : int; us : int }
      (** One device command, stamped at the instant the device begins
          servicing it ([dev] is the device id — volume index in a
          multi-volume set). Service start may be the device's busy
          horizon rather than issue time, so commands on one device
          never overlap. *)
  | Dev_seek of { dev : int; cylinders : int; us : int }
      (** Arm movement charged as part of the following command, in
          {e service} order (reordering policies move the arm in the
          order requests are picked, not enqueued). *)
  | Log_append of {
      record_no : int64;
      units : int;
      data_sectors : int;
      total_sectors : int;
      third : int;
    }
  | Log_force of { units : int; empty : bool }
      (** One group-commit force; [empty] marks a force that found
          nothing dirty and wrote no record. *)
  | Fnt_write_twice of { page : int }
      (** Both home copies of an FNT page written (§5.2). *)
  | Leader_piggyback of { sector : int }
      (** Leader verified for free on the read of its file's data (§5.7). *)
  | Vam_rebuild of { source : string; us : int }
  | Scrub_repair of { target : string; loc : int }
      (** Scrub demon repaired a lone bad copy; [target] is
          ["fnt-page"] or ["leader"], [loc] the page or sector. *)
  | Scavenge_phase of { phase : string; us : int }
  | Recovery_phase of { phase : string; us : int }
  | Op_begin of { op : string; name : string }
  | Op_end of { op : string; us : int }
  | Home_write_burst of { third : int; pages : int; leaders : int }
      (** One batched background home-write pass pre-flushing dirty FNT
          pages and leaders whose survival horizon is [third], issued
          between group commits once reclamation is near (§4.4). *)
  | Mutation of { seq : int }
      (** A namespace mutation (create/delete entry) reached the volume
          under the enclosing op span; [seq] is [Fsd.mutation_seq] after
          the mutation. The group-commit force that later logs it runs
          under a different span, so this event is what lets a replayer
          amortise force-interval log I/O back over the ops of the
          batch ({!Tables}' [amortised_*] columns). *)
  | Op_submitted of { client : int; opseq : int }
      (** The server starts executing client [client]'s [opseq]-th
          scripted op. Its only reader is {!Critpath}, which counts
          lifecycles that never finish. *)
  | Op_done of op_record
      (** The op's lifecycle end, acknowledged by the server's one
          completion rule and stamped at [end_us]. *)

type entry = {
  seq : int;  (** monotonically increasing; also the span id of [Op_begin] *)
  span : int;  (** innermost enclosing span id, 0 at top level *)
  at_us : int;  (** virtual clock when the event was emitted *)
  event : event;
}

type t

val create : unit -> t
(** A disabled trace; no buffer is allocated until {!enable}. *)

val enabled : t -> bool
(** The hot-path guard: emission sites test this single flag and do
    nothing else (no allocation) when it is false. *)

val enable : ?capacity:int -> t -> unit
(** Allocate the ring (default capacity 65536 entries) and start
    recording. Re-enabling an enabled trace is a no-op. *)

val disable : t -> unit
(** Stop recording; the buffered entries remain readable. *)

val clear : t -> unit

val emit : t -> at:int -> event -> unit
(** Record an event at virtual time [at] under the current span.
    No-op when disabled. *)

val emit_span : t -> span:int -> at:int -> event -> unit
(** Record an event under an explicit span rather than the innermost
    open one. Queued device requests are serviced long after the op
    that issued them returned — the device captures {!current_span} at
    enqueue and attributes the eventual service events with it. *)

val current_span : t -> int
(** The innermost open span id, 0 at top level (or when disabled). *)

val begin_span : t -> at:int -> op:string -> name:string -> int
(** Open a span for operation [op] on file [name]; records an
    {!Op_begin} entry under the previous span and returns the new span
    id (0 when disabled — {!end_span} ignores it). Library code opens
    spans through {!span}, which pairs the two. *)

val end_span : t -> at:int -> int -> unit
(** Close the span, recording {!Op_end} with its duration. Spans
    opened after it that were never closed are discarded (exception
    unwinding). *)

val span :
  t -> Cedar_util.Simclock.t -> op:string -> name:string -> (unit -> 'a) -> 'a
(** [span t clock ~op ~name f] runs [f] inside a span for operation
    [op] on file [name], stamped from [clock]: {!begin_span}, [f ()],
    then {!end_span}, also when [f] raises (the exception is re-raised
    with its backtrace). While tracing is disabled it is exactly [f ()].
    Every traced call (FSD, CFS and UFS operations, a served op) opens
    its span here. *)

val length : t -> int
val dropped : t -> int
(** Entries overwritten because the ring was full. *)

val to_list : t -> entry list
(** Buffered entries, oldest first. *)

val iter : t -> (entry -> unit) -> unit

val pp_entry : Format.formatter -> entry -> unit
(** Timestamps are printed in simulated milliseconds. *)
