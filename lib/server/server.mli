(** Concurrent multi-client file server with per-volume group commit.

    A deterministic cooperative scheduler over the virtual clock: N
    client sessions each replay a {!Cedar_workload.Concurrent.script}
    against a {!Cedar_volumes.Volume_set.t}. Operations run to
    completion on the volume that owns the file name (a stable
    name-prefix hash, {!Cedar_volumes.Volume_set.route}); a session that
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

    The same site splits the op's latency, once, into a
    {!Cedar_obs.Trace.op_record}, charges it to the volume's
    [server.phase.*_us] counters and, with tracing on, emits it as
    [Op_done]. A parked op's append is the overlap of its post-execute
    wait with the covering force's device-busy window
    ({!Cedar_fsd.Fsd.last_force_window}).

    Each volume's batcher forces on the paper's two triggers, its
    half-second commit interval and an explicit client [Force] (which
    flushes every live volume), and once more at shutdown, when only
    parked sessions with exhausted scripts remain. FSD's bulk trigger
    still forces mid-op when the pending batch nears one log record.
    No op is refused or retried: a session has at most one op in
    flight, so the sessions parked on a volume never outnumber the
    sessions.

    Determinism contract: given the same volume images, scripts and
    configuration, two runs produce byte-identical {!report_json} output.
    Every scheduling choice is fixed:
    - the next session to step is the first ready one at or after a
      round-robin cursor, in session-index order;
    - a batch wakes, and {!config.on_ack} sees, its sessions in
      ascending index, and volumes are forced, run their demons and
      release their batches in index order;
    - sessions waiting on queued device requests are resolved, in
      index order, only once no session is ready;
    - the clock advances to the earliest deadline: a thinking session's
      wake, a volume's commit deadline or its monitor's next sample.

    The only clock is the simulated one, and scripts carry their own
    seeds. The scheduler keeps these choices without scanning the
    sessions: each state change updates a ready set, per-volume parked
    sets, an Iowait set and a heap of thinking sessions' wakes, and a
    volume's demons run only when an op or a force touched it or
    {!Cedar_fsd.Fsd.demons_due_at} has come, which skips only passes
    that would have done nothing. *)

type config = {
  on_force : (int -> unit) option;
      (** called with the force ordinal (1-based) just before each
          server-initiated force — the crash-injection hook *)
  on_ack : (client:int -> op:Cedar_workload.Concurrent.op -> unit) option;
      (** called when a mutating operation's transaction becomes
          durable and its session is released, just before its
          [Op_done] record is emitted *)
}

val default_config : config
(** No hooks. *)

type t

type session_report = {
  r_client : int;
  r_ops : int;  (** operations executed *)
  r_mutations : int;  (** mutating operations acknowledged durable *)
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
  vr_crashed : bool;  (** quarantined by a planted crash *)
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
  total_dropped : int;
      (** always 0: no op is dropped (kept for the benchmark harness) *)
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

val create_volumes :
  ?config:config ->
  Cedar_volumes.Volume_set.t ->
  Cedar_workload.Concurrent.script array ->
  t
(** Session [i] runs [scripts.(i)] as client [i]; a single booted
    volume is served as {!Cedar_volumes.Volume_set.of_fsd}. Registers,
    once per volume in that volume's own registry view ([volN.server.*]
    names in the root for a multi-volume set, unprefixed for a
    single-volume one), the [server.queue_depth] gauge, the
    [server.commit_wait_us] / [server.batch_size] /
    [server.op_latency_us] distributions, the [server.acked] counter
    and the four [server.phase.*_us] counters charged from each op's
    record — so each volume's monitor derives its own sat.* gauges and
    coexisting volumes never clobber each other's counters. Raises
    [Invalid_argument] on an empty script array. *)

val serve_volumes :
  ?config:config ->
  Cedar_volumes.Volume_set.t ->
  Cedar_workload.Concurrent.script array ->
  report
(** [create_volumes], then drive every session to completion and drain
    the final batches. *)

val acked : t -> (int * Cedar_workload.Concurrent.op) list
(** The ack journal: every [(client, op)] acknowledged durable so far,
    in acknowledgement order. This is the crash sweep's ground truth —
    after a planted crash, everything in this list must be recoverable
    and correct (on a multi-volume server: everything in this list
    routed to the crashed volume). *)

type outcome =
  | Completed of report
  | Crashed of { sector : int }
      (** a planted device fault fired on every volume (on a
          multi-volume set, the sector is volume 0's) *)

val run_to_crash : t -> outcome
(** Drive every session to completion and drain the final batches. A
    device crash planted by [on_force] quarantines the volume it fires
    on: its parked sessions abort, sessions later routed to it abort,
    and every other volume keeps serving to completion. Once no live
    volume remains the result is [Crashed] — by then every acknowledged
    transaction is on disk and no unacknowledged one is; inspect
    {!acked} and reboot. While a volume lives the result is [Completed],
    and the report marks each crashed volume [vr_crashed]. The server
    object must be discarded after any crash. *)

val report_json : report -> Cedar_obs.Jsonb.t
(** Deterministic rendering (fixed field order, sessions in client
    order) — byte-identical across same-seed runs. The ["volumes"]
    array appears only for a multi-volume report, so the single-volume
    JSON keeps its historical byte-exact shape. *)
