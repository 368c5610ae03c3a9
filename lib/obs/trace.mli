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
  | Blackbox_checkpoint of { gen : int64; events : int; sectors : int }
      (** The flight-recorder ring was checkpointed to the on-disk
          black-box region: generation written, events that fit, sectors
          transferred. Emitted inside its own ["blackbox"] span so the
          checkpoint's device I/O is attributed separately. *)
  | Session_wait of { client : int; us : int }
      (** A server session was unparked after waiting [us] for the force
          covering its transaction (§5.4 "the process doing the commit
          waits"); emitted at the wake time, so the wait spans
          [at_us - us, at_us]. The Chrome exporter turns it into a
          complete event on the session's own track. *)
  | Home_write_burst of { third : int; pages : int; leaders : int }
      (** One batched background home-write pass pre-flushing dirty FNT
          pages and leaders whose survival horizon is [third], issued
          between group commits once reclamation is near (§4.4). *)
  | Reclaim_stall of { third : int; pinned : int }
      (** Reclamation of [third] found [pinned] modified pages holding no
          committed image; the reclaim was refused with a typed error
          instead of home-writing uncommitted state. *)
  | Mutation of { seq : int }
      (** A namespace mutation (create/delete entry) reached the volume
          under the enclosing op span; [seq] is [Fsd.mutation_seq] after
          the mutation. The group-commit force that later logs it runs
          under a different span, so this event is what lets a replayer
          amortise force-interval log I/O back over the ops of the
          batch ({!Tables}' [amortised_*] columns). *)
  | Op_submitted of { client : int; opseq : int; op : string; arrived_us : int }
      (** Lifecycle (see {!Critpath}): the server's first admission
          attempt for client [client]'s [opseq]-th scripted op. The gap
          [at_us - arrived_us] is the scheduler/queue wait between the
          op becoming runnable (think deadline, open-loop arrival, or
          previous ack) and the scheduler reaching it. *)
  | Op_rejected of { client : int; opseq : int; why : string }
      (** One rejected admission attempt that will be retried ([why] is
          ["queue_full"], the server's one trigger: the op's target
          volume already had [queue_cap] sessions parked); the retry
          window runs from this instant to the op's next event. *)
  | Op_dropped of { client : int; opseq : int; retries : int }
      (** Admission retries exhausted; the op's lifecycle ends here
          without executing. *)
  | Op_acked of { client : int; opseq : int }
      (** The op's lifecycle end, by the server's one completion rule:
          the latest of its execute end, the completion of its own
          device requests and, for a parked mutation, its covering
          force's completion (the session's [Op_end] ... this event is
          the post-execute wait). *)

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
    id (0 when disabled — {!end_span} ignores it). *)

val end_span : t -> at:int -> int -> unit
(** Close the span, recording {!Op_end} with its duration. Spans
    opened after it that were never closed are discarded (exception
    unwinding). *)

val length : t -> int
val dropped : t -> int
(** Entries overwritten because the ring was full. *)

val to_list : t -> entry list
(** Buffered entries, oldest first. *)

val last : t -> int -> entry list
(** [last t n] is the newest [min n (length t)] entries, oldest first.
    Cheaper than [to_list] when only the tail is wanted (black-box
    checkpoints snapshot the tail on every group-commit force). *)

val open_spans : t -> (int * string * string * int) list
(** Spans currently open, innermost first:
    [(span id, op, name, start time)]. After a crash this is the
    in-flight work the black box names. *)

val iter : t -> (entry -> unit) -> unit

val encode_entry : Cedar_util.Bytebuf.Writer.t -> entry -> unit
(** Binary codec used by the on-disk black box. *)

val decode_entry : Cedar_util.Bytebuf.Reader.t -> entry
(** Raises {!Cedar_util.Bytebuf.Decode_error} on malformed input. *)

val pp_event : Format.formatter -> event -> unit

val pp_entry : Format.formatter -> entry -> unit
(** Timestamps are printed in simulated milliseconds. *)
