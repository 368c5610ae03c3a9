(** FSD tuning parameters.

    Layout-affecting fields ([fnt_page_sectors], [fnt_pages],
    [log_sectors]) are stamped into the boot page at format time and read
    back on boot; the rest are runtime knobs. *)

type t = {
  shard_id : int;
      (** which shard of a multi-volume set this volume serves, in
          [0, 255]; stamped into the boot page at format time and into
          every log record header, so a reboot re-derives it and
          recovery rejects another shard's leftovers. 0 — the only
          value a single-volume deployment ever sees — preserves the
          historical on-disk behaviour. *)
  commit_interval_us : int;
      (** group-commit force period; the paper forces twice a second *)
  fnt_page_sectors : int;  (** sectors per name-table page *)
  fnt_pages : int;  (** name-table page slots (per copy) *)
  log_sectors : int;  (** log region size, incl. 3 pointer sectors *)
  cache_pages : int;  (** FNT cache capacity (unpinned pages) *)
  max_record_data_sectors : int;
      (** cap on data sectors per log record; larger commits are split *)
  small_file_bytes : int;  (** files at most this big use the small area *)
  max_runs_per_file : int;
  default_keep : int;  (** versions kept per name; 0 = unlimited *)
  log_vam : bool;
      (** the extension §5.3 weighs and rejects: also log VAM changes, so
          recovery can skip the name-table scan ("would greatly decrease
          worst case crash recovery time from about twenty five seconds
          to about two seconds"). Off by default, as in the paper. *)
  track_tolerant_log : bool;
      (** §3's "more stringent requirements (e.g., loss of a whole track)
          can be met within the framework": log records place every
          element's copy a full track after its primary, so losing any
          [sectors_per_track] consecutive sectors is survivable. Costs
          more log space for small records; caps records at
          [sectors_per_track - 2] data sectors. Off by default. *)
  cpu_op_us : int;  (** CPU charge per metadata operation *)
  cpu_page_us : int;  (** CPU charge per page moved or scanned *)
  scrub_interval_us : int;
      (** online scrub demon period; each expiry while the volume idles
          verifies a few FNT page pairs and leaders. 0 disables. *)
  scrub_pages_per_pass : int;  (** FNT page pairs verified per pass *)
  scrub_leaders_per_pass : int;  (** leaders verified per pass *)
  blackbox_every_n_forces : int;
      (** checkpoint the black-box flight recorder every this many
          non-empty forces (1 = every force, the historical behavior).
          High-client-count runs force often; a larger cadence keeps the
          recorder's I/O out of the commit path most of the time. Clean
          shutdown always checkpoints regardless. *)
  home_write_fill : float;
      (** once the current log third is at least this full, the
          background demon starts pre-flushing dirty pages whose
          survival horizon is the next third, in bounded batches between
          group commits — so reclamation at the third entry finds little
          synchronous work left. 1.0 disables the demon (entry-time
          reclamation remains). *)
  home_writes_per_pass : int;
      (** page/leader home-write budget per background demon pass; 0
          disables the demon. *)
  monitor_interval_us : int;
      (** telemetry sampling cadence for the monitor demon once it is
          enabled via [Fsd.enable_monitor]; the demon itself is off by
          default and costs one branch per demon dispatch while off.
          Must be at least 1. *)
  disk_sched : Cedar_disk.Device.policy;
      (** request-queue service policy applied when [disk_qdepth] ≥ 2
          ([Fifo] | [Elevator] | [Sstf]); irrelevant while the queue is
          off. *)
  disk_qdepth : int;
      (** device request-queue depth. ≥ 2 is applied to the device at
          the end of boot via [Device.set_queue] and lets that many
          commands (data, label, log, and background home writes alike)
          float outstanding and be serviced in [disk_sched] order. 0
          (default) and 1 mean no queue: the device keeps the timing it
          was created with, servicing every command at issue. In
          [0, 128]. *)
}

val blackbox_slot_sectors : int
(** Sectors per black-box flight-recorder slot: one CRC'd header sector
    plus payload sectors holding the tail of the event trace. *)

val blackbox_slots : int
(** Number of alternating black-box generation slots (two, so a torn
    checkpoint write never destroys the previous generation). *)

val blackbox_sectors : int
(** Total sectors reserved for the black-box region after the boot
    pages ([blackbox_slot_sectors * blackbox_slots]). Fixed — not a
    tuning field — so [cedar blackbox] can find it before any other
    metadata is trusted. *)

val default : t
(** Sized for {!Cedar_disk.Geometry.trident_t300}. *)

val for_geometry : Cedar_disk.Geometry.t -> t
(** [default] rescaled so the metadata regions fit small test volumes. *)

val validate : Cedar_disk.Geometry.t -> t -> (unit, string) result
