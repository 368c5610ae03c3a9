(** Per-op latency anatomy: fold a lifecycle trace into conserved phase
    vectors and assign tail blame.

    The server emits one lifecycle per scripted op
    ({!Trace.Op_submitted} → [Op_rejected]* → session span →
    {!Trace.Op_acked}, or [Op_dropped]), all pure transition
    timestamps. This module folds those entries into one {!op_record}
    per op whose five exclusive phases are differences of consecutive
    timestamps:

    - [queue_us] — runnable (think deadline / open-loop arrival /
      previous ack) until the scheduler's first admission attempt;
    - [admission_us] — first attempt until execute starts (the sum of
      reject retry windows), or until the drop;
    - [execute_us] — inside [Fsd.submit], further split into device
      [seek_us], device [transfer_us] and the CPU/FNT/leader remainder
      via the span-attributed device events;
    - [append_us] — the part of the post-execute wait overlapping the
      covering group-commit force's own duration (the op's share of log
      I/O);
    - [parked_us] — the rest of the §5.4 parked-for-force wait.

    Conservation is therefore exact by construction —
    [queue + admission + execute + append + parked = end - arrived]
    microsecond for microsecond — and {!fold} verifies it anyway for
    every op ({!t}'s [all_conserved]): a [false] means the event stream
    itself is malformed, not that rounding drifted. *)

type phase = Queue | Admission | Execute | Append | Parked

val phase_name : phase -> string
(** ["queue"], ["admission"], ["execute"], ["append"], ["parked"]. *)

type op_record = {
  client : int;
  opseq : int;  (** per-client lifecycle number, 1-based *)
  op : string;  (** kind label from [Concurrent.op_kind] *)
  arrived_us : int;
  end_us : int;  (** ack time, or drop time for dropped ops *)
  queue_us : int;
  admission_us : int;
  execute_us : int;
  seek_us : int;  (** device arm time inside execute *)
  transfer_us : int;  (** device read/write time inside execute *)
  append_us : int;
  parked_us : int;
  retries : int;  (** admission rejects survived (or suffered, if dropped) *)
  dropped : bool;
  stalls : int;  (** reclaim stalls observed inside execute *)
}

val total_us : op_record -> int
(** End-to-end latency, [end_us - arrived_us]. *)

val conserved : op_record -> bool
(** Whether the five phases sum exactly to {!total_us}. *)

type pct = { p50 : float; p90 : float; p99 : float; mean : float; max : float }

type agg = {
  a_op : string;
  a_n : int;  (** completed lifecycles of this kind *)
  a_dropped : int;
  a_retries : int;
  a_stalls : int;
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
  ops : op_record list;  (** completed lifecycles, in ack order *)
  aggs : agg list;  (** per op kind, sorted by kind *)
  orphans : int;  (** terminal events whose start fell off the ring *)
  unfinished : int;  (** lifecycles still open when the capture ended *)
  all_conserved : bool;
}

val fold : Trace.entry list -> t
(** Fold a trace (oldest first, as {!Trace.to_list} yields) into the
    anatomy. Tolerates truncated rings: lifecycles missing their start
    are counted in [orphans], in-flight ones in [unfinished]. *)

val blame : t -> op:string -> phase option
(** The dominant tail phase for op kind [op], if any completed. *)

val to_json : ?op:string -> ?top:int -> t -> Jsonb.t
(** Deterministic rendering: a summary object, per-kind aggregates
    (optionally restricted to kind [op]) and the [top] slowest ops
    (default 5) with their full phase vectors. *)

val pp : ?op:string -> ?top:int -> Format.formatter -> t -> unit
(** The human [cedar why] report: blame table plus top slowest ops. *)
