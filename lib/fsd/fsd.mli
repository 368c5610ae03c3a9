(** FSD — the reimplemented Cedar file system (the paper's contribution).

    All name-table and leader-page updates go through a physical redo log
    forced every half second of virtual time (group commit); file creation
    costs one synchronous combined leader+data write; open, delete, list
    and property changes normally cost no I/O at all. The free-page map is
    volatile. Crash recovery replays the log (seconds) and, when the VAM
    was not saved cleanly, reconstructs it from the name table.

    All operations raise {!Cedar_fsbase.Fs_error.Fs_error} on failure. *)

type t

type vam_source =
  | Vam_loaded  (** clean snapshot from the save area *)
  | Vam_reconstructed  (** rebuilt by scanning the name table *)
  | Vam_replayed
      (** VAM-logging extension: saved base plus logged chunk images *)

type boot_report = {
  boot_count : int;
  replayed_records : int;
  replayed_pages : int;  (** page images written home by recovery *)
  corrected_sectors : int;
  skipped_leaders : int;
      (** logged leader images dropped because the name table no longer
          references their sector (the file was deleted and the sector
          possibly reused — writing would risk data) *)
  vam_source : vam_source;
  log_replay_us : int;
  vam_us : int;
  total_us : int;
}

(** {1 Lifecycle} *)

val format : Cedar_disk.Device.t -> Params.t -> unit
(** Initialise an empty volume (boot pages, anchor, log, clean VAM). *)

val boot : ?params:Params.t -> Cedar_disk.Device.t -> t * boot_report
(** Run recovery and attach. [params] (default: the params the boot
    page stamps) supplies runtime knobs; the layout and the
    shard are taken from the boot page ({!Boot_page.adopt}). Raises
    [Fs_error Corrupt_metadata] on unrecoverable name-table damage —
    prefer {!try_boot} when the caller can scavenge. *)

val try_boot :
  ?params:Params.t ->
  Cedar_disk.Device.t ->
  [ `Ok of t * boot_report | `Needs_scavenge of string ]
(** Like {!boot}, but damage the log cannot repair (both copies of an FNT
    page lost, an undecodable anchor) yields [`Needs_scavenge reason]
    instead of an exception; run {!Scavenge.run} and boot again. *)

val shutdown : t -> unit
(** Controlled shutdown: force, write everything home, save the VAM. *)

(** {1 Files}

    [name] operations address the newest version unless stated. *)

val create : t -> name:string -> ?keep:int -> bytes -> Cedar_fsbase.Fs_ops.info
val open_stat : t -> name:string -> Cedar_fsbase.Fs_ops.info
val exists : t -> name:string -> bool
val read_all : t -> name:string -> bytes
(** Follows a chain of symlinks to the file at its end; a chain of more
    than 8 symlinks raises [Corrupt_metadata]. *)

val read_page : t -> name:string -> page:int -> bytes
val delete : t -> name:string -> unit
val list : t -> prefix:string -> Cedar_fsbase.Fs_ops.info list
val versions : t -> name:string -> int list

(** {1 Remote-file entries (§4: symlinks and cached copies)} *)

val create_symlink : t -> name:string -> target:string -> unit
val readlink : t -> name:string -> string option
val import_cached :
  t -> name:string -> server:string -> bytes -> Cedar_fsbase.Fs_ops.info
val touch_cached : t -> name:string -> unit
(** Update the cached copy's last-used time — pure metadata, absorbed by
    group commit (§5.4's example). *)

val last_used : t -> name:string -> int option

(** {1 Commit and time} *)

val force : t -> unit
(** Client-requested log force (§5.4: "clients may force the log"). *)

val tick : t -> us:int -> unit
(** Advance virtual time (idle workstation), then {!run_due_demons}. *)

val run_due_demons : t -> unit
(** Fire every demon whose interval has elapsed at the current virtual
    time: the commit demon (group-commit force), the background
    home-write demon (once the current third passes
    {!Params.home_write_fill}, pre-flush up to
    {!Params.home_writes_per_pass} pages/leaders whose survival horizon
    is the next third, traced as
    [Home_write_burst]), and the scrub demon — each scrub pass verifies
    a few FNT page pairs (both copies, by checksum) and a few leaders,
    repairing lone bad copies in place (counted in the
    [fsd.scrub_*] counters of {!metrics}).
    [tick us] is [advance us] plus this; a scheduler that owns the
    clock (lib/server) calls it directly, so demons fire identically
    whether or not a server owns the clock. *)

(** {1 Submission (server scheduler interface)}

    A concurrent server executes each client operation through {!submit}
    and parks the client until the returned token is durable — the
    paper's "process doing the commit waits" (§5.4), extended to every
    transactional operation. While the closure runs, the interval-driven
    commit demon is suppressed (the server's batcher owns commit timing);
    the bulk trigger that keeps one force equal to one atomic log record
    stays armed. *)

type token
(** Completion token: durable once a force covering every mutation the
    submitted operation made has completed. *)

val always_durable : token
(** The token of an operation that mutated nothing (reads, stats). *)

val submit : t -> (unit -> 'a) -> 'a * token
(** Run one operation with interval-commit suppressed; returns its result
    and completion token. Exceptions propagate (with the commit mode
    restored). *)

val token_durable : t -> token -> bool
val mutation_seq : t -> int
(** Sequence number of the newest metadata mutation. *)

val durable_seq : t -> int
(** Mutation sequence covered by the last completed force;
    [token_durable] is [durable_seq >= token]. *)

val last_force_window : t -> int * int
(** The device-busy window of the last force (the server's, or one the
    bulk trigger started inside an op): from the service start of its
    first device request to the completion of its last; [(0, 0)] if it
    issued none or no force has run. Complete once the device has
    serviced the force's requests ({!Cedar_disk.Device.busy_until}).
    The server charges a parked op's append phase from it. *)

val commit_due_at : t -> int
(** Virtual time at which the half-second commit demon next fires
    (last force time + [commit_interval_us]) — what a scheduler that
    owns the clock sleeps toward when every session is parked. *)

(** {1 Telemetry monitor}

    A {!Cedar_obs.Monitor} sampling the metrics registry on the
    {!Params.monitor_interval_us} cadence, polled from
    {!run_due_demons} and at op boundaries. Off by default; while off
    the polls cost one branch on an option and allocate nothing, the
    same discipline as the trace. *)

val enable_monitor : ?interval_us:int -> t -> Cedar_obs.Monitor.t
(** Attach (or replace) the telemetry monitor and return it.
    [interval_us] defaults to {!Params.monitor_interval_us}; the ring
    and dist windows keep {!Cedar_obs.Monitor.create}'s defaults. Beyond
    the registry's raw counters and gauges, every sample computes the
    derived saturation gauges:

    - [sat.device_busy] — device busy-us this interval / interval;
    - [sat.log_third_fill] — the fraction of the current log third
      already consumed, in [0,1], at sample time; it reads exactly 1.0
      (never wrapping early to 0.0) while the head sits on a third
      boundary, since the entry happens only on the next append;
    - [sat.queue_depth] — sessions parked on this volume for a force
      (the server's [server.queue_depth] gauge);
    - [sat.ops_per_force] — acked server ops per non-empty force this
      interval (batcher occupancy), 0 when no force landed;
    - [sat.op_rate_s] — FSD ops per second;
    - [sat.reclaim_stall_rate_s], [sat.home_write_burst_rate_s];
    - [sat.phase_queue], [sat.phase_execute], [sat.phase_append],
      [sat.phase_parked] — the mean number of server ops inside each
      latency phase over the interval, from the server's
      [server.phase.*_us] counters;

    and watches the [server.commit_wait_us] and [server.op_latency_us]
    distributions (a parked op's wait for its force, and each op's
    end-to-end latency from its op record) for sliding-window
    summaries. Server-side names read as zero until a server registers
    them. *)

val monitor : t -> Cedar_obs.Monitor.t option

(** {1 Introspection} *)

val ops : t -> Cedar_fsbase.Fs_ops.t
val layout : t -> Layout.t
val params : t -> Params.t
(** The runtime parameters the volume booted with. *)

val shard : t -> int
(** The shard id the volume was formatted as (from the boot page via
    [params]); 0 for a standalone volume. *)

val device : t -> Cedar_disk.Device.t
val free_sectors : t -> int

val trace : t -> Cedar_obs.Trace.t
(** The volume's event trace (shared with {!Cedar_disk.Device.trace});
    enable it before driving operations to record spans and events. *)

val metrics : t -> Cedar_obs.Metrics.t
(** The volume's metrics registry, holding the FSD counters plus the
    gauges registered by the device, log and name-table store. *)

val log_stats : t -> Log.stats
val fnt_home_writes : t -> int
val fnt_repairs : t -> int
val fnt_stats : t -> Cedar_btree.Btree.stats
(** Shape of the name-table B-tree. *)

val fold_entries :
  t ->
  init:'a ->
  f:('a -> name:string -> version:int -> Cedar_fsbase.Entry.t -> 'a) ->
  'a
(** Fold over every name-table entry in key order. *)

val sector_is_free : t -> int -> bool

val drop_caches : t -> unit
(** Write dirty name-table pages home and evict the whole cache
    (cold-cache benchmarking). *)

val check : t -> (unit, string) result
(** Structural check: B-tree invariants, leader/name-table mutual checks
    for every file, no sector claimed twice or claimed yet free, and
    VAM/name-table agreement — the free count equals the data areas less
    the distinct claimed sectors, those of deletes awaiting commit and
    those the scavenger quarantined, so a leaked sector fails it. *)
