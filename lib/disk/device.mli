(** Sector-level disk simulator with a mechanical timing model.

    The simulator tracks arm position and rotational phase (derived from
    the virtual clock) and charges each command seek time, rotational
    latency, and transfer time. It therefore exhibits the phenomena the
    paper's §6 model reasons about — lost revolutions on
    read-then-rewrite, free rides for sectors that "have just gone past the
    head", cheap same-cylinder transfers — without any per-operation
    special-casing.

    Failure model (§5.3): at most one fault at a time, damaging one or two
    consecutive sectors. Torn multi-sector writes are injected with
    {!plan_write_crash}; reads of damaged sectors raise {!Error}. *)

type t

type fault_kind =
  | Damaged  (** media error: read fails *)
  | Label_mismatch of { expected : Label.t; found : Label.t }

type tear =
  | Tear_none  (** power fails before the head reaches the sector *)
  | Tear_zero  (** the interrupted sector reads back as zeroes *)
  | Tear_garbage  (** the interrupted sector reads back as noise *)
  | Tear_damage of int
      (** 0–2 sectors become media errors (the legacy §5.3 model) *)
(** What the crash leaves behind at the first unwritten sector of the
    interrupted command. *)

exception Error of { sector : int; kind : fault_kind }

exception Crash_during_write of { sector : int }
(** Raised when an injected write fault fires; the test harness treats this
    as the machine halting mid-write. *)

val create :
  ?id:int ->
  ?depth:int ->
  ?trace:Cedar_obs.Trace.t ->
  ?metrics:Cedar_obs.Metrics.t ->
  clock:Cedar_util.Simclock.t ->
  Geometry.t ->
  t
(** [depth] (default 0) selects the timing engine; see {!set_queue}.
    A fresh trace (disabled) and metrics registry are created unless
    supplied; the device registers its [Iostats] fields as
    ["device.*"] gauges, a ["device.qdepth"] occupancy gauge, and a
    ["device.seek_cyl"] seek-distance dist in the registry. Higher
    layers share the device's trace and registry via {!trace} /
    {!metrics}. [id] (default 0) is stamped into this device's trace
    events — a multi-volume set numbers its devices by volume index. *)

val geometry : t -> Geometry.t
val clock : t -> Cedar_util.Simclock.t
val stats : t -> Iostats.t

val trace : t -> Cedar_obs.Trace.t
(** The volume-wide event trace. Disabled (and allocation-free on the
    I/O path) until [Trace.enable]; every device command then emits a
    [Dev_read]/[Dev_write] event carrying its simulated latency, plus
    [Dev_seek] for arm movement. *)

val metrics : t -> Cedar_obs.Metrics.t
(** The volume-wide metrics registry; every layer above registers its
    instruments here. *)

(** {1 Timing engine}

    Every data command is a request, and one service function charges
    its mechanics (seek from the current arm position, rotation from the
    phase at service start, transfer) starting at
    [max now busy_horizon issue_time]. The engine depth only decides
    when a request is serviced and who owns the clock:

    - depth 0 (the default): serviced at issue, and the shared clock
      follows the device to the command's completion — commands on
      different devices serialise in simulated time. Every paper table
      runs here.
    - depth 1: serviced at issue on the device's own timeline; the
      shared clock is untouched, so commands on different devices
      overlap. A multi-volume set runs its devices here (several
      spindles).
    - depth ≥ 2: a request queue of that many slots. Data and label
      effects (contents, crash budget, the observer, count stats) still
      happen at issue, but a request is serviced lazily, at the point
      the {!policy} picks it — so seeks and arm position are charged in
      service order. A full queue services one request to free a slot
      before accepting the next. The pending requests sit in an array
      in issue order; the policy picks one by its index, the earliest
      issued on a tie, and the requests behind it close the gap. A
      serviced request's slot is reused by the next, so a command
      allocates no queue storage at any depth.

    The mechanical model and all [Iostats] accounting are the same at
    every depth. *)

type policy =
  | Fifo  (** service in issue order — a queue with no reordering *)
  | Elevator
      (** SCAN: keep sweeping in one direction, service the nearest
          request ahead of the arm, reverse when none remain *)
  | Sstf
      (** shortest-seek-time-first, with an aging bound: a request
          passed over 8 times is serviced before any nearest pick, so
          no request starves behind a hot cylinder *)

val policy_to_string : policy -> string

val policy_of_string : string -> policy option
(** ["fifo"], ["elevator"], ["sstf"]. *)

val set_queue : t -> policy:policy -> depth:int -> unit
(** Service every pending request, then set the engine depth and the
    queue's policy (which matters only at depth ≥ 2). [Fsd.boot] calls
    this for [Params.disk_qdepth] ≥ 2. Raises [Invalid_argument] if
    [depth < 0]. *)

val queue_length : t -> int
(** Requests currently pending (also the ["device.qdepth"] gauge). *)

val busy_until : t -> int
(** Completion time of this device's latest request: the virtual
    instant its result may be consumed. A synchronization barrier —
    every pending request is serviced (in policy order) first, which is
    what a group-commit force wants. Equals [Simclock.now] at depth 0. *)

(** {1 Op completion} *)

type completion = private {
  mutable outstanding : int;  (** requests still waiting in the queue *)
  mutable started_at : int;
      (** service start of its first serviced request; -1 until then *)
  mutable done_at : int;
      (** completion of its latest serviced request; 0 until then *)
  mutable seek_us : int;  (** arm time of its serviced requests *)
  mutable command_us : int;
      (** whole duration of its serviced requests, arm time included *)
}
(** The device requests one operation issued, for whoever waits on
    them. A completion is held by its waiter only: the device keeps no
    record of a request once it is serviced. Its fields cover the
    requests serviced so far; read them once none is [outstanding]
    (after {!completed_at} or {!busy_until}). *)

val track : t -> (unit -> 'a) -> 'a * completion
(** [track t f] runs [f] and returns its result with the completion of
    every request [f] issued on [t]. Tracks nest: a request counts
    toward every enclosing completion (a force inside an op is part of
    the op's device time too). At depth < 2 the requests are all
    complete when [f] returns. *)

val pending : completion -> bool
(** Whether some of its requests still wait in the queue. *)

val completed_at : t -> completion -> int
(** Service pending requests (in policy order) until none of the
    completion's requests is outstanding; then the completion time of
    the latest of them, 0 if it issued none. *)

(** {1 Plain sector I/O (used by FSD and the BSD baseline)}

    The image is held as fixed 64-sector chunks, each allocated zeroed
    on the first write into it, plus a bitmap of the sectors ever
    written. A command moves its run one chunk piece at a time. Every
    write copies the caller's bytes at issue, so the caller may reuse
    its buffer at once; a read returns a fresh buffer, or
    ({!read_run_into}) copies into the caller's. A write
    interrupted by a planted crash stores only the sectors before the
    crash point; the rest of the run keeps its old contents. *)

val read : t -> int -> bytes
(** [read t s] is a fresh copy of sector [s]'s contents (zeroes if never
    written). Raises [Error] if the sector is damaged. *)

val write : t -> int -> bytes -> unit
(** [write t s b]. [b] must be exactly one sector; the device keeps its
    own copy, so the caller may reuse [b]. Writing a damaged sector
    repairs it (re-written media reads back fine). *)

val read_run : t -> sector:int -> count:int -> bytes
(** One command transferring [count] consecutive sectors; result is a
    fresh buffer holding their concatenation. *)

val read_run_into : t -> sector:int -> count:int -> bytes -> pos:int -> unit
(** [read_run_into t ~sector ~count buf ~pos] is {!read_run}'s command,
    checked and charged alike, copying the sectors into [buf] from byte
    [pos] instead of into a fresh buffer. Raises [Invalid_argument]
    unless [count > 0] and the run fits in [buf] from [pos], and [Error]
    on a damaged sector before touching [buf]. *)

val write_run : t -> sector:int -> bytes -> unit
(** One command writing [Bytes.length / sector_bytes] consecutive sectors,
    each copied once from its offset in the buffer. *)

val write_sectors : t -> sector:int -> count:int -> ?pos:int -> bytes -> unit
(** [write_sectors t ~sector ~count ~pos b] is one command writing the
    [count] sectors of [b] that start at byte [pos] (default 0): a
    buffer the caller reuses for runs of different lengths and places.
    Raises [Invalid_argument] unless [count > 0], [pos >= 0] and
    [pos + count * sector_bytes <= Bytes.length b]. *)

(** {1 Labeled I/O (used by CFS; models Trident microcode)} *)

val read_label : t -> int -> Label.t
(** Reads just the label field of a sector; costs a (short) disk access.
    Damaged sectors raise [Error]. *)

val write_labels : t -> sector:int -> Label.t list -> unit
(** One command (re)writing the label fields of consecutive sectors —
    how CFS claims or frees pages. *)

val verified_read : t -> int -> expect:Label.t -> bytes
(** Microcode check-then-transfer: raises [Error] with [Label_mismatch] if
    the on-disk label differs from [expect]. *)

val verified_read_run : t -> sector:int -> expect:Label.t list -> bytes
(** One command verifying and reading several consecutive sectors. *)

val verified_write_run : t -> sector:int -> expect:Label.t list -> bytes -> unit
(** One command verifying and writing several consecutive sectors; the
    [i]-th label is checked against sector [sector + i] before its data is
    transferred. *)

val scan_labels :
  t -> from:int -> count:int -> (int -> Label.t option -> unit) -> unit
(** Sequential label scan (the scavenger). Charged as full-track reads.
    Damaged sectors yield [None] instead of raising. *)

(** {1 Fault injection} *)

val damage : t -> int -> unit
(** Mark a sector as a media error until rewritten. *)

val corrupt : t -> int -> rng:Cedar_util.Rng.t -> unit
(** Silently replace a sector's contents with random bytes (readable but
    wrong; caught only by checksums or replica comparison). *)

val is_damaged : t -> int -> bool

val plan_write_crash : t -> after_sectors:int -> damage_tail:int -> unit
(** Arm a fault: after [after_sectors] more sectors have been written, the
    current command stops; [damage_tail] (1 or 2) further sectors of the
    command are damaged; [Crash_during_write] is raised. Equivalent to
    {!plan_write_crash_tear} with [Tear_damage damage_tail]. *)

val plan_write_crash_tear : t -> after_sectors:int -> tear:tear -> unit
(** Arm a fault with an explicit tear mode for the sector the command was
    interrupted at: [Tear_none] leaves it untouched (clean prefix),
    [Tear_zero]/[Tear_garbage] store a zeroed/noise sector first (a torn
    write that still reads back without a media error), [Tear_damage n]
    marks [n] sectors as media errors. *)

val cancel_write_crash : t -> unit

(** {1 Observation} *)

val set_observer : t -> (rw:[ `R | `W ] -> sector:int -> count:int -> unit) option -> unit
(** Callback invoked on every data command, used by tests to assert I/O
    patterns. *)

val written_ever : t -> int -> bool
(** Whether a sector has ever been written (distinguishes zeroed-but-real
    from never-touched in tests). *)

(** {1 Persistence (CLI disk images)} *)

val dump : t -> out_channel -> unit
(** Stream the image to the channel: the geometry, then every written
    sector as a (sector, bytes) record in ascending sector order, then
    the labels and the damaged set. Never-written sectors are not
    listed. *)

val load :
  ?id:int ->
  ?trace:Cedar_obs.Trace.t ->
  ?metrics:Cedar_obs.Metrics.t ->
  clock:Cedar_util.Simclock.t ->
  in_channel ->
  t
(** Read an image written by {!dump}, one record at a time. Records may
    come in any order (a repeated sector keeps its last). Raises
    [Cedar_util.Bytebuf.Decode_error] on a bad magic, an implausible
    geometry, a truncated record or a sector number outside the
    geometry. *)
