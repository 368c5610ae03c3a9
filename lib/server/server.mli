(** Concurrent multi-client file server with per-volume group commit.

    A deterministic cooperative scheduler over the virtual clock: N
    client sessions each replay a {!Cedar_workload.Concurrent.script}
    against a {!Cedar_volumes.Volume_set.t}. Operations run to
    completion on the volume that owns the file name (a stable
    name-prefix hash, {!Cedar_volumes.Shard_map}); a session that
    performed a metadata mutation parks on the owning volume's batcher
    and is acknowledged only when a log force on that volume covers its
    transaction — the paper's §5.4 commit protocol ("the process doing
    the commit waits") generalised to N clients over V independent
    logs. Acked ⇒ durable is a per-volume contract: each volume's log
    alone covers the mutations it acknowledged.

    One completion rule acknowledges every op, whatever the volume's
    device timing ({!Cedar_disk.Device.set_queue}): at the latest of
    its execute end, the completion of its own device requests and, if
    it parked, the completion of its covering force (the device's busy
    horizon at the wake). An op whose requests still sit in a request
    queue waits until the scheduler, once no session is runnable,
    services them in policy order.

    Each volume's batcher forces on three triggers: its half-second
    commit interval, [max_batch] sessions parked on it, or an explicit
    client [Force] (which flushes every live volume). Admission control
    rejects — never blocks — on two distinct triggers judged against
    the op's target volume: {!Queue_full} when [queue_cap] sessions are
    already parked there (unconditional, so each parked queue stays
    bounded at any log fill), and {!Backpressure} when that volume's
    current log third is past [backpressure_fill]. A rejected step
    stays at the head of its script and is retried after the volume's
    next commit opportunity, up to [admission_retries] times; only then
    is it dropped, and the drop is counted in the report.

    The single-volume server ({!create}, over
    {!Cedar_volumes.Volume_set.of_fsd}) is the degenerate case and is
    byte-identical to the historical one-FSD scheduler.

    Determinism contract: given the same volume images, scripts and
    configuration, two runs produce byte-identical {!report_json} output
    (sessions are stepped round-robin by index, volumes in index order;
    the only clock is the simulated one; scripts carry their own
    seeds). *)

type error =
  | Queue_full of { depth : int; cap : int }
      (** [depth] sessions were parked against a cap of [cap] — the
          unconditional admission depth cap *)
  | Backpressure of { depth : int; fill : float; threshold : float }
      (** the current log third is [fill] consumed, past the configured
          [threshold] *)
(** Why admission rejected a mutating operation. *)

val pp_error : Format.formatter -> error -> unit

type config = {
  max_batch : int;  (** parked sessions that trigger an early force *)
  queue_cap : int;  (** unconditional admission depth cap *)
  backpressure_fill : float;
      (** {!Cedar_fsd.Fsd.log_third_fill} fraction at which mutating
          admissions are rejected with {!Backpressure}; 0.0 rejects
          every mutation, 1.0 disables the trigger *)
  admission_retries : int;
      (** rejected steps are retried this many times (after the next
          commit opportunity each time) before being dropped *)
  on_force : (int -> unit) option;
      (** called with the force ordinal (1-based) just before each
          server-initiated force — the crash-injection hook *)
  on_ack : (client:int -> op:Cedar_workload.Concurrent.op -> unit) option;
      (** called when a mutating operation's transaction becomes
          durable and its session is released *)
  on_reject : (client:int -> error -> unit) option;
}

val default_config : config
(** [max_batch = 64], [queue_cap = 256], [backpressure_fill = 1.0]
    (fill trigger off), [admission_retries = 8], no hooks. *)

type t

type session_report = {
  r_client : int;
  r_ops : int;  (** operations executed (rejected ones excluded) *)
  r_mutations : int;  (** mutating operations acknowledged durable *)
  r_rejected : int;  (** admission rejects, including retried ones *)
  r_dropped : int;  (** steps abandoned after [admission_retries] rejects *)
  r_errors : int;  (** operations that raised [Fs_error] *)
  r_aborted : string option;
      (** set when a non-[Fs_error] exception terminated the session *)
  r_wait_total_us : int;
  r_wait_max_us : int;
}

type volume_report = {
  vr_volume : int;
  vr_server_forces : int;  (** forces the scheduler initiated on it *)
  vr_log_forces : int;  (** all its log forces, including backstops *)
  vr_acked : int;  (** mutations acknowledged durable by this volume *)
  vr_crashed : bool;  (** quarantined by a planted crash (multi-volume) *)
}
(** Per-volume slice of a run — one entry per volume, index order. *)

type report = {
  clients : int;
  duration_us : int;
  total_ops : int;
  mutations_acked : int;
  server_forces : int;  (** forces the scheduler initiated *)
  log_forces : int;  (** all log forces, including mid-op backstops *)
  ops_per_force : float;  (** mutations acked per log force *)
  total_rejected : int;
  reject_queue_full : int;  (** [server.rejects.queue_full] counter *)
  reject_backpressure : int;  (** [server.rejects.backpressure] counter *)
  total_retries : int;  (** [server.retries] counter *)
  total_dropped : int;
  total_errors : int;
  total_aborted : int;  (** sessions terminated by a non-[Fs_error] *)
  wait_n : int;
  wait_mean_us : float;
  wait_p50_us : float;
  wait_p99_us : float;
  wait_max_us : float;
  batch_n : int;  (** durable advances that released ≥1 session *)
  batch_mean : float;  (** sessions released per advance *)
  batch_max : float;
  per_session : session_report list;
  per_volume : volume_report list;
}

val create :
  ?config:config -> Cedar_fsd.Fsd.t -> Cedar_workload.Concurrent.script array -> t
(** Single-volume server: [create_volumes] over
    {!Cedar_volumes.Volume_set.of_fsd} — the degenerate, historically
    byte-identical case. Session [i] runs [scripts.(i)] as client [i].
    Registers the [server.queue_depth] gauge, the
    [server.commit_wait_us] / [server.batch_size] distributions, and
    the admission counters [server.rejects.queue_full],
    [server.rejects.backpressure], [server.retries] and
    [server.dropped] in the volume's metrics registry (so
    [cedar serve --json] and [cedar stats] expose them). Raises
    [Invalid_argument] on an empty script array or a non-positive
    [max_batch]/[queue_cap]. *)

val create_volumes :
  ?config:config ->
  Cedar_volumes.Volume_set.t ->
  Cedar_workload.Concurrent.script array ->
  t
(** Multi-volume server. Every instrument above is registered once per
    volume in that volume's own registry view ([volN.server.*] names in
    the root for a multi-volume set, the unprefixed historical names
    for a single-volume one), so each volume's monitor derives its own
    sat.* gauges and coexisting volumes never clobber each other's
    counters. *)

val run : t -> report
(** Drive every session to completion and drain the final batches. A
    device crash planted by [on_force] on a single-volume server
    propagates as [Cedar_disk.Device.Crash_during_write] — by then
    every acknowledged transaction is on disk and no unacknowledged one
    is. On a multi-volume server the same crash quarantines only that
    volume: its parked sessions abort, sessions later routed to it
    abort, every other volume keeps serving to completion, and the
    report marks the volume [vr_crashed]. *)

val serve :
  ?config:config ->
  Cedar_fsd.Fsd.t ->
  Cedar_workload.Concurrent.script array ->
  report
(** [create] + [run]. *)

val serve_volumes :
  ?config:config ->
  Cedar_volumes.Volume_set.t ->
  Cedar_workload.Concurrent.script array ->
  report
(** [create_volumes] + [run]. *)

val acked : t -> (int * Cedar_workload.Concurrent.op) list
(** The ack journal: every [(client, op)] acknowledged durable so far,
    in acknowledgement order. This is the crash sweep's ground truth —
    after a planted crash, everything in this list must be recoverable
    and correct (on a multi-volume server: everything in this list
    routed to the crashed volume). *)

val crashed_volumes : t -> int list
(** Volumes quarantined by a planted crash so far, ascending — empty
    for a healthy run, and always empty on a single-volume server
    (where the crash propagates instead). *)

type outcome =
  | Completed of report
  | Crashed of { sector : int }  (** the planted device fault fired *)

val run_to_crash : t -> outcome
(** {!run}, but a [Cedar_disk.Device.Crash_during_write] is caught and
    returned as [Crashed] — the restartable entry point for the crash
    sweep. The server object must be discarded after a crash; inspect
    {!acked} and reboot the volume. *)

val report_json : report -> Cedar_obs.Jsonb.t
(** Deterministic rendering (fixed field order, sessions in client
    order) — byte-identical across same-seed runs. The ["volumes"]
    array appears only for a multi-volume report, so the single-volume
    JSON keeps its historical byte-exact shape. *)
