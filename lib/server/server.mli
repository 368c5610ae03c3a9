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
    {!Cedar_obs.Trace.op_record} (a dropped op gets its record at the
    drop), charges it to the volume's [server.phase.*_us] counters
    and, with tracing on, emits it as [Op_done]. A parked op's append
    is the overlap of its post-execute wait with the covering force's
    device-busy window ({!Cedar_fsd.Fsd.last_force_window}).

    Each volume's batcher forces on three triggers: its half-second
    commit interval, 64 sessions parked on it, or an explicit client
    [Force] (which flushes every live volume). Admission control
    rejects — never blocks — a mutating op when [queue_cap] sessions
    are already parked on its target volume, so each parked queue
    stays bounded. A rejected step stays at the head of its script and
    is retried after the volume's next commit opportunity, up to 8
    times; only then is it dropped, and the drop is counted in the
    report.

    Determinism contract: given the same volume images, scripts and
    configuration, two runs produce byte-identical {!report_json} output
    (sessions are stepped round-robin by index, volumes in index order;
    the only clock is the simulated one; scripts carry their own
    seeds). *)

type config = {
  queue_cap : int;
      (** admission depth cap: a mutating op is rejected while this
          many sessions are parked on its target volume *)
  on_force : (int -> unit) option;
      (** called with the force ordinal (1-based) just before each
          server-initiated force — the crash-injection hook *)
  on_ack : (client:int -> op:Cedar_workload.Concurrent.op -> unit) option;
      (** called when a mutating operation's transaction becomes
          durable and its session is released, just before its
          [Op_done] record is emitted *)
}

val default_config : config
(** [queue_cap = 256], no hooks. *)

type t

type session_report = {
  r_client : int;
  r_ops : int;  (** operations executed (rejected ones excluded) *)
  r_mutations : int;  (** mutating operations acknowledged durable *)
  r_rejected : int;  (** admission rejects, including retried ones *)
  r_dropped : int;  (** steps abandoned after 8 retried rejects *)
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
  total_rejected : int;  (** admission rejects, including retried ones *)
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
    [server.op_latency_us] distributions, the admission counters
    [server.rejects.queue_full], [server.retries] and
    [server.dropped], [server.acked], and the [server.phase.*_us]
    counters charged from each op's record — so each volume's monitor derives its own
    sat.* gauges and coexisting volumes never clobber each other's
    counters. Raises [Invalid_argument] on an empty script array or a
    non-positive [queue_cap]. *)

val run : t -> report
(** Drive every session to completion and drain the final batches. A
    device crash planted by [on_force] on a single-volume server
    propagates as [Cedar_disk.Device.Crash_during_write] — by then
    every acknowledged transaction is on disk and no unacknowledged one
    is. On a multi-volume server the same crash quarantines only that
    volume: its parked sessions abort, sessions later routed to it
    abort, every other volume keeps serving to completion, and the
    report marks the volume [vr_crashed]. *)

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
