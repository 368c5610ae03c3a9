(** Per-op latency anatomy: collect the server's per-op records from a
    trace and assign tail blame.

    The server splits each op's latency exactly once, at its ack or
    drop, into one {!Trace.op_record} (whose fields define the five
    phases); it charges the record to its [server.phase.*] counters
    and, with tracing on, emits it as {!Trace.Op_done}. Conservation is
    exact by construction —
    [queue + admission + execute + append + parked = end - arrived]
    microsecond for microsecond — and {!fold} verifies it anyway for
    every op ({!t}'s [all_conserved]). *)

type phase = Queue | Admission | Execute | Append | Parked

val phase_name : phase -> string
(** ["queue"], ["admission"], ["execute"], ["append"], ["parked"]. *)

type op_record = Trace.op_record = {
  client : int;
  opseq : int;
  op : string;
  arrived_us : int;
  end_us : int;
  queue_us : int;
  admission_us : int;
  execute_us : int;
  seek_us : int;
  transfer_us : int;
  append_us : int;
  parked_us : int;
  retries : int;
  dropped : bool;
}

val total_us : op_record -> int
(** End-to-end latency, [end_us - arrived_us]. *)

val phase_us : op_record -> phase -> int
(** The record's microseconds in one phase. *)

val conserved : op_record -> bool
(** Whether the five phases sum exactly to {!total_us}. *)

type pct = { p50 : float; p90 : float; p99 : float; mean : float; max : float }

type agg = {
  a_op : string;
  a_n : int;  (** completed lifecycles of this kind *)
  a_dropped : int;
  a_retries : int;
  a_e2e : pct;
  a_phase : (phase * pct) list;  (** in declaration order, all five *)
  a_blame : phase;
      (** the phase with the largest mean over the p99 tail (ops whose
          end-to-end latency is at or above the e2e p99) *)
  a_tail_n : int;
  a_tail_share : (phase * float) list;
      (** each phase's fraction of total tail latency, summing to 1 *)
}

type t = {
  ops : op_record list;  (** every record, dropped ones too, in end order *)
  aggs : agg list;  (** per op kind, sorted by kind *)
  orphans : int;  (** records whose [Op_submitted] fell off the ring *)
  unfinished : int;  (** lifecycles still open when the capture ended *)
  all_conserved : bool;
}

val fold : Trace.entry list -> t
(** Collect the [Op_done] records of a trace (oldest first, as
    {!Trace.to_list} yields) and aggregate them. [Op_submitted] is read
    only to count records whose start fell off a truncated ring
    ([orphans]) and lifecycles still open at the end ([unfinished]). *)

val blame : t -> op:string -> phase option
(** The dominant tail phase for op kind [op], if any completed. *)

val to_json : ?op:string -> ?top:int -> t -> Jsonb.t
(** Deterministic rendering: a summary object, per-kind aggregates
    (optionally restricted to kind [op]) and the [top] slowest ops
    (default 5) with their full phase vectors. *)

val pp : ?op:string -> ?top:int -> Format.formatter -> t -> unit
(** The human [cedar why] report: blame table plus top slowest ops. *)
