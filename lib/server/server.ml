(* Concurrent multi-client file server over a set of volumes: a
   deterministic cooperative scheduler on the shared virtual clock, with
   one real group-commit batcher per volume.

   Each client session replays a [Concurrent.script]. Operations run to
   completion (cooperative, never preempted mid-op) on the volume that
   owns the file name ([Volume_set.route], a stable name-prefix hash); a
   session that performed a metadata mutation then *parks* on the owning
   volume's batcher and is only acknowledged once a log force on that
   volume covers its transaction — §5.4's "the process doing the commit
   waits", generalised to N clients over V independent logs. Each
   volume's batcher forces on the paper's two triggers:

   - time: that volume's half-second commit demon
     ([Params.commit_interval_us]);
   - explicit: a client [Force] step (which forces every live volume);

   plus the shutdown drain ([force_drain]) once only parked sessions
   with exhausted scripts remain. FSD's own bulk trigger still forces
   mid-op when the pending batch nears one record, so every force stays
   one atomic log write. No op is ever refused: a session has at most
   one op in flight, so the parked sessions on a volume never outnumber
   the sessions.

   Crash containment: a planted device crash
   ([Device.Crash_during_write]) quarantines the crashed volume, however
   many the set holds: its parked sessions abort (their unacked
   mutations are the §5.4 "may be lost" set), later ops routed to it
   abort their sessions, and every other volume keeps serving —
   recovery is per volume, which is the point of giving each volume its
   own log. Once no live volume remains the machine has halted
   ([run_to_crash] returns [Crashed]).

   Determinism: sessions are stepped round-robin by index, volumes are
   visited in index order, the only clock is [Simclock], and the only
   randomness is the script generator's seeded [Rng] — two runs from
   the same seed produce byte-identical reports.

   Event-driven: no scheduling step scans the sessions. One transition
   function ([set_state]) keeps every set the scheduler consults
   current: the ready set, each volume's parked set, the Iowait set,
   the done and drain-ready counts, and a min-heap of thinking
   sessions' wakes. A volume's demons run only when an op or a force
   touched it since their last pass, or once [Fsd.demons_due_at]
   comes: a skipped pass would have done nothing. *)

open Cedar_util
open Cedar_obs
open Cedar_fsd
open Cedar_volumes
open Cedar_workload

type config = {
  on_force : (int -> unit) option;
  on_ack : (client:int -> op:Concurrent.op -> unit) option;
}

let default_config = { on_force = None; on_ack = None }

(* An executed op that is not acknowledged yet (see [complete]). *)
type waiter = {
  w_vol : int;
  w_op : Concurrent.op;
  w_io : Cedar_disk.Device.completion;  (* its own device requests *)
  w_mutation : bool;  (* a metadata mutation: its ack is journaled *)
}

type state =
  | Ready
  | Thinking of { until : int }
  | Parked of { w : waiter; token : Fsd.token }
      (* A mutation waiting for a log force on its volume to cover
         [token]. *)
  | Iowait of waiter
      (* Some of the op's device requests still sit in its volume's
         request queue. The scheduler resolves these lazily — once no
         session is runnable — so requests from many sessions accumulate
         in the queue first, which is exactly the window a reordering
         policy exploits. *)
  | Done

type session = {
  client : int;
  label : string;  (* "sessionNN", precomputed: the op-span label *)
  mutable steps : Concurrent.step list;
  mutable state : state;
  mutable ops : int;
  mutable mutations : int;
  mutable errors : int;
  mutable aborted : string option;  (* non-Fs_error exception text *)
  mutable wait_total_us : int;
  mutable wait_max_us : int;
  (* The current op's lifecycle instants, from which [settle] splits
     its latency (plain ints: kept with tracing off too). *)
  mutable opseq : int;  (* lifecycle number of the op at script head *)
  mutable arrival_us : int;  (* when that op became runnable *)
  mutable t_exec_start : int;  (* Fsd.submit called; queue wait over *)
  mutable t_exec_end : int;  (* Fsd.submit returned; ack waits start *)
}

(* Per-volume scheduler state. Every instrument is registered in the
   volume's own registry view ([Fsd.metrics], "volN."-scoped when the
   set has several volumes, the historical unprefixed names when it has
   one) so that each volume's monitor demon derives its own sat.*
   gauges and two coexisting volumes can never clobber each other. *)
type vol = {
  v_id : int;
  v_fsd : Fsd.t;
  v_ops : Cedar_fsbase.Fs_ops.t;  (* [Fsd.ops v_fsd] *)
  v_dev : Cedar_disk.Device.t;
  mutable v_crash : int option;
      (* the sector a planted crash fired at; the volume is quarantined *)
  mutable v_last_durable : int;
  mutable v_forces : int;  (* server-initiated forces on this volume *)
  mutable v_forces0 : int;  (* log forces at run start *)
  mutable v_acked : int;
  v_parked : Bitmap.t;  (* sessions in [Parked] on this volume, by index *)
  mutable v_touched : bool;
      (* an op or a force reached it since its last demon pass *)
  mutable v_demons_due : int;  (* [Fsd.demons_due_at] after that pass *)
  v_commit_wait_us : Stats.t;
  v_batch_size : Stats.t;
  (* Per-op end-to-end latency (arrival to ack), every op kind. *)
  v_op_latency_us : Stats.t;
  c_acked : Metrics.counter;
  (* Cumulative per-phase microseconds across all ops, charged from
     each op's record in [settle] (tracing on or off), read by the
     monitor's sat.phase_* rate gauges. *)
  c_phase_queue_us : Metrics.counter;
  c_phase_execute_us : Metrics.counter;
  c_phase_append_us : Metrics.counter;
  c_phase_parked_us : Metrics.counter;
}

(* A min-heap of thinking sessions' wakes: [(at, session index)] pairs
   in two growable int arrays, so a push or a pop allocates nothing. An
   entry is not removed when its session moves on; whoever reads the
   heap drops the stale ones it finds on top. *)
module Wakes = struct
  type t = { mutable at : int array; mutable key : int array; mutable len : int }

  let create () = { at = Array.make 64 0; key = Array.make 64 0; len = 0 }
  let is_empty h = h.len = 0
  let min_at h = h.at.(0)
  let min_key h = h.key.(0)

  let set h i ~at ~key =
    h.at.(i) <- at;
    h.key.(i) <- key

  let push h ~at ~key =
    if h.len = Array.length h.at then begin
      h.at <- Array.append h.at h.at;
      h.key <- Array.append h.key h.key
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && h.at.((!i - 1) / 2) > at do
      let p = (!i - 1) / 2 in
      set h !i ~at:h.at.(p) ~key:h.key.(p);
      i := p
    done;
    set h !i ~at ~key

  let pop h =
    h.len <- h.len - 1;
    let at = h.at.(h.len) and key = h.key.(h.len) in
    let i = ref 0 and settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < h.len && h.at.(l + 1) < h.at.(l) then l + 1 else l in
      if c < h.len && h.at.(c) < at then begin
        set h !i ~at:h.at.(c) ~key:h.key.(c);
        i := c
      end
      else settled := true
    done;
    if h.len > 0 then set h !i ~at ~key
end

type t = {
  vset : Volume_set.t;
  vols : vol array;
  clock : Simclock.t;
  trace : Trace.t;  (* shared by every volume *)
  cfg : config;
  sessions : session array;
  mutable cursor : int;  (* round-robin search start *)
  (* Kept current by [set_state], so no scheduling step scans the
     sessions: *)
  ready : Bitmap.t;  (* sessions in [Ready] *)
  iowait : Bitmap.t;  (* sessions in [Iowait] *)
  mutable n_done : int;
  mutable n_drained : int;  (* sessions [Parked] with exhausted scripts *)
  wakes : Wakes.t;
  mutable forces : int;  (* server-initiated (time/explicit/drain), all vols *)
  mutable acked_rev : (int * Concurrent.op) list;  (* ack journal, newest first *)
}

type session_report = {
  r_client : int;
  r_ops : int;
  r_mutations : int;
  r_errors : int;
  r_aborted : string option;
  r_wait_total_us : int;
  r_wait_max_us : int;
}

type volume_report = {
  vr_volume : int;
  vr_server_forces : int;
  vr_log_forces : int;
  vr_acked : int;
  vr_crashed : bool;
}

type report = {
  clients : int;
  duration_us : int;
  total_ops : int;
  mutations_acked : int;
  server_forces : int;
  log_forces : int;
  ops_per_force : float;
  total_dropped : int;
  total_errors : int;
  total_aborted : int;
  wait_n : int;
  wait_mean_us : float;
  wait_p50_us : float;
  wait_p99_us : float;
  wait_max_us : float;
  batch_n : int;
  batch_mean : float;
  batch_max : float;
  per_session : session_report list;
  per_volume : volume_report list;
}

let now t = Simclock.now t.clock
let single t = Array.length t.vols = 1

let dead v = v.v_crash <> None

(* Which volume an operation belongs to. [Force] fans out to every live
   volume; its accounting (spans, error counts) is charged to the lowest
   live one, so a crash cuts a forcing session off only when no volume
   is left to serve it. *)
let target_vid t (op : Concurrent.op) =
  if single t then 0
  else
    match op with
    | Create { name; _ } | Open name | Read name | Delete name -> Volume_set.route t.vset name
    | Read_page { name; _ } -> Volume_set.route t.vset name
    | List prefix -> Volume_set.route t.vset prefix
    | Force ->
      Option.value (Array.find_index (fun v -> not (dead v)) t.vols) ~default:0

(* ------------------------------------------------------------------ *)
(* Session transitions. *)

(* The one place a session changes state: it leaves the set its old
   state keeps it in and joins the new one's. A session's script does
   not change while it is parked, so whether it counts as drain-ready
   reads the same on the way in and on the way out. *)
let set_state t s st =
  (match s.state with
  | Ready -> Bitmap.clear t.ready s.client
  | Iowait _ -> Bitmap.clear t.iowait s.client
  | Parked { w; _ } ->
    Bitmap.clear t.vols.(w.w_vol).v_parked s.client;
    if s.steps = [] then t.n_drained <- t.n_drained - 1
  | Thinking _ | Done -> ());
  s.state <- st;
  match st with
  | Ready -> Bitmap.set t.ready s.client
  | Thinking { until } -> Wakes.push t.wakes ~at:until ~key:s.client
  | Iowait _ -> Bitmap.set t.iowait s.client
  | Parked { w; _ } ->
    Bitmap.set t.vols.(w.w_vol).v_parked s.client;
    if s.steps = [] then t.n_drained <- t.n_drained + 1
  | Done -> t.n_done <- t.n_done + 1

(* End a session for good, recording why. *)
let abort t s reason =
  set_state t s Done;
  s.aborted <- Some reason;
  s.steps <- []

(* The lowest member of [set] at or above [from], or -1. *)
let next_member set ~from ~upto =
  match Bitmap.find_run_set set ~from ~upto ~len:1 with Some i -> i | None -> -1

(* [f] on every session in [set], in ascending index; [f] may take the
   session it is given out of [set]. *)
let iter_set t set f =
  let n = Array.length t.sessions in
  let rec from i =
    let i = next_member set ~from:i ~upto:n in
    if i >= 0 then begin
      f t.sessions.(i);
      from (i + 1)
    end
  in
  from 0

(* ------------------------------------------------------------------ *)
(* Crash quarantine. *)

(* A planted crash on volume [v] halts that volume only. Sessions parked
   on it will never be acked — their mutations are exactly the
   unacknowledged set §5.4 allows to be lost — so they abort now;
   sessions later routed to it abort when they step. The [Fsd.t] must
   not be touched again until the harness reboots the device. *)
let quarantine t v ~sector =
  v.v_crash <- Some sector;
  let reason = Printf.sprintf "volume %d crashed" v.v_id in
  iter_set t v.v_parked (fun s -> abort t s reason);
  iter_set t t.iowait (fun s ->
      match s.state with Iowait w when w.w_vol = v.v_id -> abort t s reason | _ -> ())

(* Run [f] on volume [v]'s FSD, quarantining [v] if a planted crash
   fires. [f] takes the FSD itself, so a call allocates no closure. *)
let guarded t v f =
  try f v.v_fsd
  with Cedar_disk.Device.Crash_during_write { sector } -> quarantine t v ~sector

(* ------------------------------------------------------------------ *)
(* The batcher. *)

let force_vol t v =
  t.forces <- t.forces + 1;
  v.v_forces <- v.v_forces + 1;
  v.v_touched <- true;
  (match t.cfg.on_force with Some f -> f t.forces | None -> ());
  guarded t v Fsd.force

(* An explicit client [Force]: flush every live volume, index order. *)
let force_all t =
  Array.iter (fun v -> if not (dead v) then force_vol t v) t.vols

(* The one place an op's latency is split: build its record from the
   session's lifecycle instants, charge the online phase counters from
   it and, with tracing on, emit it. Queue and execute are differences
   of those instants; the post-execute wait is [append_us] plus
   parked. *)
let settle t v s op ~end_us ~append_us ~seek_us ~transfer_us =
  let r =
    {
      Trace.client = s.client;
      opseq = s.opseq;
      op = Concurrent.op_kind op;
      arrived_us = s.arrival_us;
      end_us;
      queue_us = s.t_exec_start - s.arrival_us;
      admission_us = 0;
      execute_us = s.t_exec_end - s.t_exec_start;
      seek_us;
      transfer_us;
      append_us;
      parked_us = end_us - s.t_exec_end - append_us;
      dropped = false;
    }
  in
  Metrics.add v.c_phase_queue_us r.queue_us;
  Metrics.add v.c_phase_execute_us r.execute_us;
  Metrics.add v.c_phase_append_us r.append_us;
  Metrics.add v.c_phase_parked_us r.parked_us;
  if Trace.enabled t.trace then Trace.emit t.trace ~at:end_us (Trace.Op_done r)

(* The one completion rule (§5.4). An op is acknowledged at the latest
   of its execute end, the service completion of its own device
   requests and, if it parked, the completion of the force that covered
   it ([forced]: the device's busy horizon once the force has drained
   it). This is the only place an op is acknowledged: its record, its
   latency sample and, for a mutation, the ack journal and commit-wait
   accounting all happen here. *)
let complete t s w ~forced =
  let v = t.vols.(w.w_vol) in
  let io = w.w_io in
  let io_done = Cedar_disk.Device.completed_at v.v_dev io in
  let done_at =
    Int.max s.t_exec_end (Int.max io_done (Option.value forced ~default:0))
  in
  let parked = Option.is_some forced in
  let wait = done_at - s.t_exec_end in
  (* A parked op's append: the part of its wait during which the
     covering force kept the device busy. *)
  let append_us =
    if parked then begin
      let f0, f1 = Fsd.last_force_window v.v_fsd in
      Int.max 0 (Int.min f1 done_at - Int.max f0 s.t_exec_end)
    end
    else 0
  in
  if w.w_mutation then begin
    (* The commit wait is the park window; a mutation a mid-op force
       (the bulk-trigger backstop) already covered never parked. *)
    Stats.add v.v_commit_wait_us (float_of_int (if parked then wait else 0));
    if parked then begin
      s.wait_total_us <- s.wait_total_us + wait;
      if wait > s.wait_max_us then s.wait_max_us <- wait
    end;
    s.mutations <- s.mutations + 1;
    v.v_acked <- v.v_acked + 1;
    Metrics.inc v.c_acked;
    t.acked_rev <- (s.client, w.w_op) :: t.acked_rev;
    match t.cfg.on_ack with Some f -> f ~client:s.client ~op:w.w_op | None -> ()
  end;
  settle t v s w.w_op ~end_us:done_at ~append_us
    ~seek_us:io.Cedar_disk.Device.seek_us
    ~transfer_us:(io.Cedar_disk.Device.command_us - io.Cedar_disk.Device.seek_us);
  Stats.add v.v_op_latency_us (float_of_int (done_at - s.arrival_us));
  s.arrival_us <- done_at;
  set_state t s (if done_at > now t then Thinking { until = done_at } else Ready)

(* Wake every parked session the last force on each volume covered, in
   session-index order. One durable advance on one volume = one batch;
   its size is the number of sessions released together, the quantity
   Hagmann's group commit amortises that volume's force over. *)
let poll_wakes t =
  for i = 0 to Array.length t.vols - 1 do
    let v = t.vols.(i) in
    if not (dead v) then begin
      let d = Fsd.durable_seq v.v_fsd in
      if d > v.v_last_durable then begin
        v.v_last_durable <- d;
        let woken = ref 0 in
        iter_set t v.v_parked (fun s ->
            match s.state with
            | Parked { w; token } when Fsd.token_durable v.v_fsd token ->
              incr woken;
              complete t s w ~forced:(Some (Cedar_disk.Device.busy_until v.v_dev))
            | _ -> ());
        if !woken > 0 then Stats.add v.v_batch_size (float_of_int !woken)
      end
    end
  done

(* Run at every point where the scheduler regains control: fire each
   volume's commit demon if its interval elapsed inside the last op,
   run the other demons (scrub, home-writer, monitor) on every volume
   touched since its last pass or whose demon deadline has come, then
   release whoever the forces covered. *)
let schedule_point t =
  for i = 0 to Array.length t.vols - 1 do
    let v = t.vols.(i) in
    if (not (dead v)) && now t >= Fsd.commit_due_at v.v_fsd then force_vol t v
  done;
  for i = 0 to Array.length t.vols - 1 do
    let v = t.vols.(i) in
    if (not (dead v)) && (v.v_touched || now t >= v.v_demons_due) then begin
      guarded t v Fsd.run_due_demons;
      if not (dead v) then begin
        v.v_touched <- false;
        v.v_demons_due <- Fsd.demons_due_at v.v_fsd
      end
    end
  done;
  poll_wakes t

(* ------------------------------------------------------------------ *)
(* Session stepping. *)

let exec_op t v (op : Concurrent.op) =
  match op with Force -> force_all t | op -> Concurrent.exec v.v_ops op

(* [Fs_error] is a client error (bad name, missing file): count it and
   move on. A planted device crash quarantines the volume. Anything else
   is a server-side bug; it must not wedge the round-robin scheduler
   mid-span, so the session is terminated with the exception recorded
   as a typed abort. *)
let run_op t v s op =
  s.ops <- s.ops + 1;
  v.v_touched <- true;
  s.t_exec_start <- now t;
  (* The span label is precomputed per session and the name is a field
     of the op, so a tracing-off run allocates nothing for the span. *)
  let token, io =
    Trace.span t.trace t.clock ~op:s.label ~name:(Concurrent.op_name op)
      (fun () ->
        Cedar_disk.Device.track v.v_dev (fun () ->
            match Fsd.submit v.v_fsd (fun () -> exec_op t v op) with
            | (), tok -> tok
            | exception Cedar_fsbase.Fs_error.Fs_error _ ->
              s.errors <- s.errors + 1;
              Fsd.always_durable
            | exception Cedar_disk.Device.Crash_during_write { sector } ->
              quarantine t v ~sector;
              abort t s (Printf.sprintf "volume %d crashed" v.v_id);
              Fsd.always_durable
            | exception e ->
              abort t s
                (Printf.sprintf "%s: %s" (Concurrent.op_name op) (Printexc.to_string e));
              Fsd.always_durable))
  in
  s.t_exec_end <- now t;
  match s.state with
  | Done -> ()
  | _ ->
    let w =
      {
        w_vol = v.v_id;
        w_op = op;
        w_io = io;
        w_mutation = token <> Fsd.always_durable;
      }
    in
    (* Reads, lists, explicit forces and client errors are always
       durable; so is a mutation a mid-op force already covered. *)
    if not (Fsd.token_durable v.v_fsd token) then set_state t s (Parked { w; token })
    else if Cedar_disk.Device.pending io then set_state t s (Iowait w)
    else complete t s w ~forced:None

let step t s =
  match s.steps with
  | [] -> set_state t s Done
  | step :: rest -> (
    match step with
    | Concurrent.Think us ->
      s.steps <- rest;
      let until = now t + us in
      set_state t s (Thinking { until });
      (* The next op becomes runnable when the think ends; scheduler
         delay past that deadline is its queue wait. *)
      s.arrival_us <- until
    | Concurrent.At at ->
      (* Open-loop arrival: wait until the absolute deadline, but a
         session already behind schedule issues immediately — offered
         load is pinned to the clock, so the backlog is preserved. *)
      s.steps <- rest;
      if at > now t then begin
        set_state t s (Thinking { until = at });
        s.arrival_us <- at
      end
      (* else: behind schedule — arrival_us stays at the previous op's
         completion; the backlog time counts as queue wait. *)
    | Concurrent.Op op -> (
      let v = t.vols.(target_vid t op) in
      if dead v then begin
        (* The owning volume crashed out from under this session: there
           is no one to serve the op, or any later op routed the same
           way. Typed abort, like any other server-side termination. *)
        abort t s (Printf.sprintf "volume %d crashed" v.v_id)
      end
      else begin
        s.opseq <- s.opseq + 1;
        if Trace.enabled t.trace then
          Trace.emit t.trace ~at:(now t)
            (Trace.Op_submitted { client = s.client; opseq = s.opseq });
        s.steps <- rest;
        run_op t v s op
      end))

(* ------------------------------------------------------------------ *)
(* The scheduler. *)

(* Whether heap entry [(at, i)] still holds: session [i] is still
   thinking toward [at]. *)
let current t ~at i =
  match t.sessions.(i).state with Thinking { until } -> until = at | _ -> false

(* Move every thinking session whose wake has come to the ready set. *)
let rec promote_due t =
  let h = t.wakes in
  if (not (Wakes.is_empty h)) && Wakes.min_at h <= now t then begin
    let at = Wakes.min_at h and i = Wakes.min_key h in
    Wakes.pop h;
    if current t ~at i then set_state t t.sessions.(i) Ready;
    promote_due t
  end

(* Round-robin: the first ready session at or after the cursor, wrapping
   around, so no session can monopolise the scheduler — after k steps
   every runnable session has run at least once. *)
let next_runnable t =
  promote_due t;
  let n = Array.length t.sessions in
  let i =
    match next_member t.ready ~from:t.cursor ~upto:n with
    | -1 -> next_member t.ready ~from:0 ~upto:t.cursor
    | i -> i
  in
  if i < 0 then None
  else begin
    t.cursor <- (i + 1) mod n;
    Some t.sessions.(i)
  end

let all_done t = t.n_done = Array.length t.sessions

(* The earliest thinking session's wake, or [max_int], dropping the
   stale entries on top of the heap. *)
let rec next_wake t =
  let h = t.wakes in
  if Wakes.is_empty h then max_int
  else
    let at = Wakes.min_at h in
    if current t ~at (Wakes.min_key h) then at
    else begin
      Wakes.pop h;
      next_wake t
    end

(* A volume's next wake: its commit deadline or, with a monitor
   attached, the monitor's next sample if sooner, so samples land on
   their cadence instead of at the next commit or think edge. *)
let wake_at v =
  let due = Fsd.commit_due_at v.v_fsd in
  match Fsd.monitor v.v_fsd with
  | Some m -> Int.min due (Cedar_obs.Monitor.due_at m)
  | None -> due

(* Every live session is either thinking toward a known time or parked
   waiting for some volume's commit demon; the next interesting instant
   is the earliest of those wakes and every live volume's. *)
let next_event_time t =
  Array.fold_left
    (fun acc v -> if dead v then acc else Int.min acc (wake_at v))
    (next_wake t) t.vols

(* All remaining work is parked sessions whose scripts are exhausted:
   nothing new can join those batches, so flush them now rather than
   sleeping out the rest of the commit interval (shutdown semantics). *)
let only_drain_left t =
  (not (all_done t)) && t.n_done + t.n_drained = Array.length t.sessions

(* Resolve every Iowait session, in index order (which keeps the drain
   deterministic). Runs only once no session is runnable — the point of
   lazy resolution is that requests from many sessions pile up in the
   device queue first, giving a reordering policy something to reorder.
   Returns whether any resolved. *)
let resolve_iowait t =
  let any = ref false in
  iter_set t t.iowait (fun s ->
      match s.state with
      | Iowait w ->
        any := true;
        complete t s w ~forced:None
      | _ -> ());
  !any

(* Flush every live volume still owing acks, index order. *)
let force_drain t =
  Array.iter
    (fun v ->
      let parked = next_member v.v_parked ~from:0 ~upto:(Array.length t.sessions) >= 0 in
      if (not (dead v)) && parked then force_vol t v)
    t.vols

let create_volumes ?(config = default_config) vset scripts =
  if Array.length scripts = 0 then invalid_arg "Server.create_volumes: no scripts";
  let clock = Volume_set.clock vset in
  let t0 = Simclock.now clock in
  let sessions =
    Array.mapi
      (fun client steps ->
        {
          client;
          label = Printf.sprintf "session%02d" client;
          steps;
          state = Ready;
          ops = 0;
          mutations = 0;
          errors = 0;
          aborted = None;
          wait_total_us = 0;
          wait_max_us = 0;
          opseq = 0;
          arrival_us = t0;
          t_exec_start = t0;
          t_exec_end = t0;
        })
      scripts
  in
  let vols =
    Array.init (Volume_set.count vset) (fun i ->
        let fsd = Volume_set.vol vset i in
        let m = Fsd.metrics fsd in
        let dev = Volume_set.device vset i in
        {
          v_id = i;
          v_fsd = fsd;
          v_ops = Fsd.ops fsd;
          v_dev = dev;
          v_crash = None;
          v_last_durable = Fsd.durable_seq fsd;
          v_forces = 0;
          v_forces0 = 0;
          v_acked = 0;
          v_parked = Bitmap.create (Array.length sessions);
          v_touched = false;  (* [run] sets it *)
          v_demons_due = max_int;
          v_commit_wait_us = Metrics.dist m "server.commit_wait_us";
          v_batch_size = Metrics.dist m "server.batch_size";
          v_op_latency_us = Metrics.dist m "server.op_latency_us";
          c_acked = Metrics.counter m "server.acked";
          c_phase_queue_us = Metrics.counter m "server.phase.queue_us";
          c_phase_execute_us = Metrics.counter m "server.phase.execute_us";
          c_phase_append_us = Metrics.counter m "server.phase.append_us";
          c_phase_parked_us = Metrics.counter m "server.phase.parked_us";
        })
  in
  let t =
    {
      vset;
      vols;
      clock;
      trace = Volume_set.trace vset;
      cfg = config;
      sessions;
      cursor = 0;
      ready = Bitmap.create (Array.length sessions);
      iowait = Bitmap.create (Array.length sessions);
      n_done = 0;
      n_drained = 0;
      wakes = Wakes.create ();
      forces = 0;
      acked_rev = [];
    }
  in
  Bitmap.set_run t.ready ~pos:0 ~len:(Array.length sessions);
  Array.iter
    (fun v ->
      Metrics.gauge (Fsd.metrics v.v_fsd) "server.queue_depth" (fun () ->
          Bitmap.count v.v_parked))
    vols;
  t

(* Log forces on a volume so far, from its metrics registry. *)
let fsd_forces v = Option.get (Metrics.read (Fsd.metrics v.v_fsd) "fsd.forces")

let run t =
  let t0 = now t in
  Array.iter (fun v -> v.v_forces0 <- fsd_forces v) t.vols;
  (* Every volume's demons run at the first scheduling point. *)
  Array.iter (fun v -> v.v_touched <- true) t.vols;
  let rec loop () =
    if not (all_done t) then begin
      (match next_runnable t with
      | Some s -> step t s
      | None ->
        if resolve_iowait t then ()
        else if only_drain_left t then force_drain t
        else Simclock.advance_to t.clock (next_event_time t));
      schedule_point t;
      loop ()
    end
  in
  loop ();
  (* Background demon writes may still sit in a request queue; service
     them so the device stats the caller reads cover the whole run. *)
  Array.iter (fun v -> ignore (Cedar_disk.Device.busy_until v.v_dev : int)) t.vols;
  let duration_us = now t - t0 in
  let vol_log_forces v = fsd_forces v - v.v_forces0 in
  let log_forces = Array.fold_left (fun n v -> n + vol_log_forces v) 0 t.vols in
  let total f = Array.fold_left (fun n s -> n + f s) 0 t.sessions in
  let mutations_acked = total (fun s -> s.mutations) in
  (* Merged wait/batch statistics across volumes (for one volume this is
     that volume's own series, so the report is unchanged). *)
  let merged per_vol =
    if Array.length t.vols = 1 then per_vol t.vols.(0)
    else begin
      let d = Stats.create () in
      Array.iter
        (fun v ->
          let src = per_vol v in
          List.iter (Stats.add d) (Stats.recent src (Stats.n src)))
        t.vols;
      d
    end
  in
  let wait = Metrics.summarize (merged (fun v -> v.v_commit_wait_us)) in
  let batch = merged (fun v -> v.v_batch_size) in
  {
    clients = Array.length t.sessions;
    duration_us;
    total_ops = total (fun s -> s.ops);
    mutations_acked;
    server_forces = t.forces;
    log_forces;
    ops_per_force =
      (if log_forces = 0 then 0.
       else float_of_int mutations_acked /. float_of_int log_forces);
    total_dropped = 0;
    total_errors = total (fun s -> s.errors);
    total_aborted = total (fun s -> if s.aborted = None then 0 else 1);
    wait_n = wait.Metrics.n;
    wait_mean_us = wait.Metrics.mean;
    wait_p50_us = wait.Metrics.p50;
    wait_p99_us = wait.Metrics.p99;
    wait_max_us = wait.Metrics.max;
    batch_n = Stats.n batch;
    batch_mean = Stats.mean batch;
    batch_max = (if Stats.n batch = 0 then 0. else Stats.max batch);
    per_session =
      Array.to_list
        (Array.map
           (fun s ->
             {
               r_client = s.client;
               r_ops = s.ops;
               r_mutations = s.mutations;
               r_errors = s.errors;
               r_aborted = s.aborted;
               r_wait_total_us = s.wait_total_us;
               r_wait_max_us = s.wait_max_us;
             })
           t.sessions);
    per_volume =
      Array.to_list
        (Array.map
           (fun v ->
             {
               vr_volume = v.v_id;
               vr_server_forces = v.v_forces;
               vr_log_forces = vol_log_forces v;
               vr_acked = v.v_acked;
               vr_crashed = dead v;
             })
           t.vols);
  }

let serve_volumes ?config vset scripts = run (create_volumes ?config vset scripts)
let acked t = List.rev t.acked_rev

type outcome = Completed of report | Crashed of { sector : int }

let run_to_crash t =
  let r = run t in
  if Array.exists (fun v -> not (dead v)) t.vols then Completed r
  else Crashed { sector = Option.get t.vols.(0).v_crash }

(* Deterministic rendering: field order is fixed here, sessions are in
   client order, so byte-identical reports mean identical runs. The
   "volumes" array appears only for a multi-volume server — the
   single-volume JSON is byte-for-byte the historical shape. *)
let report_json r =
  let session s =
    Jsonb.Obj
      [
        ("client", Jsonb.Int s.r_client);
        ("ops", Jsonb.Int s.r_ops);
        ("mutations", Jsonb.Int s.r_mutations);
        ("errors", Jsonb.Int s.r_errors);
        ( "aborted",
          match s.r_aborted with None -> Jsonb.Null | Some e -> Jsonb.Str e );
        ("wait_total_us", Jsonb.Int s.r_wait_total_us);
        ("wait_max_us", Jsonb.Int s.r_wait_max_us);
      ]
  in
  let volume v =
    Jsonb.Obj
      [
        ("volume", Jsonb.Int v.vr_volume);
        ("server_forces", Jsonb.Int v.vr_server_forces);
        ("log_forces", Jsonb.Int v.vr_log_forces);
        ("acked", Jsonb.Int v.vr_acked);
        ("crashed", Jsonb.Bool v.vr_crashed);
      ]
  in
  Jsonb.Obj
    ([
       ("clients", Jsonb.Int r.clients);
       ("duration_us", Jsonb.Int r.duration_us);
       ("total_ops", Jsonb.Int r.total_ops);
       ("mutations_acked", Jsonb.Int r.mutations_acked);
       ("server_forces", Jsonb.Int r.server_forces);
       ("log_forces", Jsonb.Int r.log_forces);
       ("ops_per_force", Jsonb.Float r.ops_per_force);
       ("errors", Jsonb.Int r.total_errors);
       ("aborted", Jsonb.Int r.total_aborted);
       ( "commit_wait_us",
         Jsonb.Obj
           [
             ("n", Jsonb.Int r.wait_n);
             ("mean", Jsonb.Float r.wait_mean_us);
             ("p50", Jsonb.Float r.wait_p50_us);
             ("p99", Jsonb.Float r.wait_p99_us);
             ("max", Jsonb.Float r.wait_max_us);
           ] );
       ( "batch_size",
         Jsonb.Obj
           [
             ("n", Jsonb.Int r.batch_n);
             ("mean", Jsonb.Float r.batch_mean);
             ("max", Jsonb.Float r.batch_max);
           ] );
       ("sessions", Jsonb.Arr (List.map session r.per_session));
     ]
    @
    if List.length r.per_volume > 1 then
      [ ("volumes", Jsonb.Arr (List.map volume r.per_volume)) ]
    else [])
