open Cedar_util

type fault_kind =
  | Damaged
  | Label_mismatch of { expected : Label.t; found : Label.t }

type tear =
  | Tear_none
  | Tear_zero
  | Tear_garbage
  | Tear_damage of int

exception Error of { sector : int; kind : fault_kind }
exception Crash_during_write of { sector : int }

module Trace = Cedar_obs.Trace
module Metrics = Cedar_obs.Metrics

type policy = Fifo | Elevator | Sstf

let policy_to_string = function
  | Fifo -> "fifo"
  | Elevator -> "elevator"
  | Sstf -> "sstf"

let policy_of_string = function
  | "fifo" -> Some Fifo
  | "elevator" -> Some Elevator
  | "sstf" -> Some Sstf
  | _ -> None

(* SSTF starvation bound: a request passed over this many times is
   serviced before any nearest-first pick (oldest aged request first). *)
let sstf_age_limit = 8

(* What an op waits on: how many of its requests are still queued, when
   the first serviced one started and the last one completed, and their
   arm and command time. *)
type completion = {
  mutable outstanding : int;
  mutable started_at : int;
  mutable done_at : int;
  mutable seek_us : int;
  mutable command_us : int;
}

(* A request slot: filled at issue and reused once serviced, so a
   command allocates nothing. *)
type request = {
  mutable req_sector : int;
  mutable req_count : int;
  mutable req_write : bool;
  mutable req_enq_at : int; (* virtual clock at issue *)
  mutable req_span : int; (* trace span of the issuing op, attributed at service *)
  mutable req_io : completion list;
      (* every enclosing [track]'s, innermost first; [] once serviced *)
  mutable req_passes : int; (* times passed over by the policy *)
}

let empty_slot () =
  {
    req_sector = 0;
    req_count = 0;
    req_write = false;
    req_enq_at = 0;
    req_span = 0;
    req_io = [];
    req_passes = 0;
  }

type t = {
  id : int; (* device id stamped into trace events; volume index in a set *)
  geom : Geometry.t;
  clock : Simclock.t;
  chunks : bytes array;
      (* chunk [i] holds sectors [i * chunk_sectors, (i + 1) * chunk_sectors);
         [Bytes.empty] until its first write, which allocates it zeroed *)
  written : Bitmap.t; (* sectors ever written *)
  labels : (int, Label.t) Hashtbl.t; (* absent = Label.free *)
  damaged : (int, unit) Hashtbl.t;
  stats : Iostats.t;
  trace : Trace.t;
  metrics : Metrics.t;
  seek_dist : Stats.t; (* cylinders moved per command, in service order *)
  mutable head_cyl : int;
  mutable write_crash : (int * tear) option; (* sectors until trigger, tear *)
  mutable observer : (rw:[ `R | `W ] -> sector:int -> count:int -> unit) option;
  (* The timing engine (see [set_queue]): 0 = the shared clock follows
     this device; 1 = the device runs on its own timeline, servicing each
     request at issue; >= 2 = up to [depth] requests wait in [queue] and
     are serviced lazily, in the order [qpolicy] picks them. *)
  mutable depth : int;
  mutable busy_horizon : int; (* completion time of the last serviced request *)
  mutable qpolicy : policy;
  mutable queue : request array;
      (* slots: the first [qlen] are pending, in issue order; the next
         [submit] fills slot [qlen] *)
  mutable qlen : int;
  mutable tracking : completion list; (* open [track]s, innermost first *)
  mutable sweep_up : bool; (* elevator arm direction *)
}

let register_gauges t =
  let metrics = t.metrics and s = t.stats in
  Metrics.gauge metrics "device.ios" (fun () -> s.Iostats.ios);
  Metrics.gauge metrics "device.reads" (fun () -> s.Iostats.reads);
  Metrics.gauge metrics "device.writes" (fun () -> s.Iostats.writes);
  Metrics.gauge metrics "device.sectors_read" (fun () -> s.Iostats.sectors_read);
  Metrics.gauge metrics "device.sectors_written" (fun () -> s.Iostats.sectors_written);
  Metrics.gauge metrics "device.label_ops" (fun () -> s.Iostats.label_ops);
  Metrics.gauge metrics "device.seeks" (fun () -> s.Iostats.seeks);
  Metrics.gauge metrics "device.busy_us" (fun () -> s.Iostats.busy_us);
  Metrics.gauge metrics "device.qdepth" (fun () -> t.qlen)

(* Sectors per chunk of the in-memory image: 32 KB at 512-byte sectors.
   Allocation is next-fit, so written sectors cluster and a chunk is
   rarely allocated for one sector. *)
let chunk_sectors = 64

let create ?(id = 0) ?(depth = 0) ?trace ?metrics ~clock geom =
  if depth < 0 then invalid_arg "Device.create: depth < 0";
  let total = Geometry.total_sectors geom in
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let stats = Iostats.create () in
  let t =
    {
      id;
      geom;
      clock;
      chunks = Array.make ((total + chunk_sectors - 1) / chunk_sectors) Bytes.empty;
      written = Bitmap.create total;
      labels = Hashtbl.create 4096;
      damaged = Hashtbl.create 16;
      stats;
      trace;
      metrics;
      seek_dist = Metrics.dist metrics "device.seek_cyl";
      head_cyl = 0;
      write_crash = None;
      observer = None;
      depth;
      busy_horizon = 0;
      qpolicy = Fifo;
      queue = [| empty_slot () |];
      qlen = 0;
      tracking = [];
      sweep_up = true;
    }
  in
  register_gauges t;
  t

let geometry t = t.geom
let clock t = t.clock
let stats t = t.stats
let trace t = t.trace
let metrics t = t.metrics

let check_sector t s =
  if s < 0 || s >= Geometry.total_sectors t.geom then
    invalid_arg (Printf.sprintf "Device: sector %d out of range" s)

(* ------------------------------------------------------------------ *)
(* Timing engine                                                       *)

(* Every data command becomes a request, and [service] is the one place
   its mechanics are charged. Service starts once the arm is free and
   the request has arrived: at [max now busy_horizon enq_at]. Rotational
   phase is derived from that start time, so the platter "keeps
   spinning" between commands: an operation issued right after another
   on the same track pays a full revolution unless the target sector is
   still ahead of the head — exactly the lost-revolution effect of §6.

   The engine depth only decides when a request is serviced and who
   owns the clock. At depth 0 it is serviced at issue and the shared
   clock follows the device to its completion; at depth 1 it is
   serviced at issue on the device's own timeline ([busy_horizon]) and
   the clock is untouched; at depth >= 2 it waits in the queue until
   the policy picks it, which is where seek distance and arm position
   are charged. *)

(* The mechanical cost of one command that begins service at [start],
   from the current arm position. Seek stats, [head_cyl] and the trace
   events are all charged here — i.e. in service order — and the events
   are stamped at [start] under [span], the span of the op that issued
   the command (not whatever op happens to be open at service time). *)
let mechanics t ~span ~start ~sector ~count ~write =
  let g = t.geom in
  let spt = g.Geometry.sectors_per_track in
  let spc = Geometry.sectors_per_cylinder g in
  let cyl = sector / spc in
  let dist = abs (cyl - t.head_cyl) in
  let seek = Geometry.seek_us g dist in
  Stats.add t.seek_dist (float_of_int dist);
  if dist > 0 then begin
    t.stats.seeks <- t.stats.seeks + 1;
    t.stats.seek_us <- t.stats.seek_us + seek;
    if Trace.enabled t.trace then
      Trace.emit_span t.trace ~span ~at:start
        (Trace.Dev_seek { dev = t.id; cylinders = dist; us = seek })
  end;
  t.head_cyl <- cyl;
  (* Wait for the first target sector to rotate under the head. *)
  let rot = Geometry.rotation_us g in
  let sector_t = Geometry.sector_time_us g in
  let target_start = (sector mod spt) * sector_t in
  let phase = (start + seek) mod rot in
  let latency = (target_start - phase + rot) mod rot in
  t.stats.rotation_us <- t.stats.rotation_us + latency;
  let transfer = ref sector_t in
  (* Transfer the remaining sectors, charging track-to-track seeks and
     head switches where a sector starts a new cylinder or track. *)
  for s = sector + 1 to sector + count - 1 do
    if s mod spc = 0 then begin
      (* Crossing a cylinder mid-run: short seek plus realignment. *)
      transfer := !transfer + Geometry.seek_us g 1 + (rot / 2);
      t.head_cyl <- s / spc
    end
    else if s mod spt = 0 then
      (* Head switch absorbed by format skew of one sector. *)
      transfer := !transfer + g.Geometry.head_switch_us + sector_t;
    transfer := !transfer + sector_t
  done;
  t.stats.transfer_us <- t.stats.transfer_us + !transfer;
  t.stats.busy_us <- t.stats.busy_us + seek + latency + !transfer;
  let dur = seek + latency + !transfer in
  if Trace.enabled t.trace then
    Trace.emit_span t.trace ~span ~at:start
      (if write then Trace.Dev_write { dev = t.id; sector; count; us = dur }
       else Trace.Dev_read { dev = t.id; sector; count; us = dur });
  (seek, dur)

(* Charge a command serviced from [start] to [finish] to every
   completion waiting on it. Services happen in time order: the first
   one is the earliest, the last one the latest. *)
let rec charge cs ~start ~finish ~seek ~dur =
  match cs with
  | [] -> ()
  | c :: rest ->
    if c.started_at < 0 then c.started_at <- start;
    c.outstanding <- c.outstanding - 1;
    c.done_at <- finish;
    c.seek_us <- c.seek_us + seek;
    c.command_us <- c.command_us + dur;
    charge rest ~start ~finish ~seek ~dur

let service t r =
  let start = Int.max (Int.max (Simclock.now t.clock) t.busy_horizon) r.req_enq_at in
  let seek, dur =
    mechanics t ~span:r.req_span ~start ~sector:r.req_sector
      ~count:r.req_count ~write:r.req_write
  in
  t.busy_horizon <- start + dur;
  if t.depth = 0 then Simclock.advance_to t.clock t.busy_horizon;
  charge r.req_io ~start ~finish:t.busy_horizon ~seek ~dur;
  r.req_io <- []

let cyl_of t sector = sector / Geometry.sectors_per_cylinder t.geom

(* The pending request nearest the arm among those [dir] admits (1: at
   or above the arm's cylinder, -1: at or below it, 0: any), the
   earliest issued on a tie; -1 if [dir] admits none. *)
let nearest t dir =
  let best = ref (-1) and best_d = ref max_int in
  for i = 0 to t.qlen - 1 do
    let delta = cyl_of t t.queue.(i).req_sector - t.head_cyl in
    if (dir = 0 || (dir > 0 && delta >= 0) || (dir < 0 && delta <= 0))
       && abs delta < !best_d
    then begin
      best := i;
      best_d := abs delta
    end
  done;
  !best

(* The earliest-issued pending request from slot [i] on that was passed
   over [sstf_age_limit] times, else the nearest one. *)
let rec aged_or_nearest t i =
  if i = t.qlen then nearest t 0
  else if t.queue.(i).req_passes >= sstf_age_limit then i
  else aged_or_nearest t (i + 1)

(* The index of the next request to service. Ties (equal distance) go
   to the earliest-issued request, i.e. FIFO order, keeping every
   policy deterministic. *)
let pick t =
  if t.qlen = 0 then invalid_arg "Device.pick: empty queue";
  if t.qlen = 1 then 0
  else
    match t.qpolicy with
    | Fifo -> 0
    | Sstf ->
      (* Aging: any request passed over [sstf_age_limit] times wins,
         oldest first — the starvation bound. *)
      aged_or_nearest t 0
    | Elevator -> (
      match nearest t (if t.sweep_up then 1 else -1) with
      | -1 ->
        (* Nothing left in this direction: reverse the sweep. *)
        t.sweep_up <- not t.sweep_up;
        (match nearest t (if t.sweep_up then 1 else -1) with -1 -> nearest t 0 | i -> i)
      | i -> i)

(* Service the picked request. The slots behind it close the gap, so
   the pending ones keep issue order, and its slot becomes the free one
   at [qlen]. *)
let service_next t =
  let i = pick t in
  let q = t.queue in
  let r = q.(i) in
  Array.blit q (i + 1) q i (t.qlen - i - 1);
  t.qlen <- t.qlen - 1;
  q.(t.qlen) <- r;
  for j = 0 to t.qlen - 1 do
    q.(j).req_passes <- q.(j).req_passes + 1
  done;
  service t r

let submit t ~sector ~count ~write =
  List.iter (fun c -> c.outstanding <- c.outstanding + 1) t.tracking;
  (* A full tag queue blocks the host: service until a slot frees up. *)
  if t.depth >= 2 then
    while t.qlen >= t.depth do
      service_next t
    done;
  if t.qlen = Array.length t.queue then
    t.queue <- Array.append t.queue (Array.init t.qlen (fun _ -> empty_slot ()));
  let r = t.queue.(t.qlen) in
  r.req_sector <- sector;
  r.req_count <- count;
  r.req_write <- write;
  r.req_enq_at <- Simclock.now t.clock;
  r.req_span <- Trace.current_span t.trace;
  r.req_io <- t.tracking;
  r.req_passes <- 0;
  if t.depth < 2 then service t r else t.qlen <- t.qlen + 1

let drain t =
  while t.qlen > 0 do
    service_next t
  done

let track t f =
  let c =
    { outstanding = 0; started_at = -1; done_at = 0; seek_us = 0; command_us = 0 }
  in
  let outer = t.tracking in
  t.tracking <- c :: outer;
  let x = Fun.protect ~finally:(fun () -> t.tracking <- outer) f in
  (x, c)

let pending c = c.outstanding > 0

let completed_at t c =
  while c.outstanding > 0 do
    service_next t
  done;
  c.done_at

let queue_length t = t.qlen

let set_queue t ~policy ~depth =
  if depth < 0 then invalid_arg "Device.set_queue: depth < 0";
  drain t;
  t.qpolicy <- policy;
  t.depth <- depth

let charge_read t ~sector ~count =
  t.stats.ios <- t.stats.ios + 1;
  t.stats.reads <- t.stats.reads + 1;
  t.stats.sectors_read <- t.stats.sectors_read + count;
  submit t ~sector ~count ~write:false;
  match t.observer with Some f -> f ~rw:`R ~sector ~count | None -> ()

let charge_write t ~sector ~count =
  t.stats.ios <- t.stats.ios + 1;
  t.stats.writes <- t.stats.writes + 1;
  t.stats.sectors_written <- t.stats.sectors_written + count;
  submit t ~sector ~count ~write:true;
  match t.observer with Some f -> f ~rw:`W ~sector ~count | None -> ()

(* A force is a synchronization barrier: everything outstanding is
   serviced (per policy) before the horizon is read. *)
let busy_until t =
  drain t;
  Int.max (Simclock.now t.clock) t.busy_horizon

(* ------------------------------------------------------------------ *)
(* Raw store                                                           *)

(* The chunk holding sector [s], allocated zeroed on first use. *)
let chunk_for_write t s =
  let i = s / chunk_sectors in
  let c = t.chunks.(i) in
  if Bytes.length c > 0 then c
  else begin
    let c = Bytes.make (chunk_sectors * t.geom.Geometry.sector_bytes) '\000' in
    t.chunks.(i) <- c;
    c
  end

(* Store [count] sectors from [sector], sector [i] from byte
   [pos + i * sector_bytes] of [b]: one blit per chunk the run touches. *)
let store t ~sector ~count b ~pos =
  let sb = t.geom.Geometry.sector_bytes in
  let s = ref sector and pos = ref pos and left = ref count in
  while !left > 0 do
    let off = !s mod chunk_sectors in
    let n = Int.min !left (chunk_sectors - off) in
    Bytes.blit b !pos (chunk_for_write t !s) (off * sb) (n * sb);
    s := !s + n;
    pos := !pos + (n * sb);
    left := !left - n
  done;
  Bitmap.set_run t.written ~pos:sector ~len:count

(* [count] stored sectors from [sector], copied once into [out] from
   byte [pos], one blit per chunk; never-written sectors read as zeroes. *)
let copy_into t ~sector ~count out ~pos =
  let sb = t.geom.Geometry.sector_bytes in
  let s = ref sector and pos = ref pos and left = ref count in
  while !left > 0 do
    let off = !s mod chunk_sectors in
    let n = Int.min !left (chunk_sectors - off) in
    let c = t.chunks.(!s / chunk_sectors) in
    if Bytes.length c > 0 then Bytes.blit c (off * sb) out !pos (n * sb)
    else Bytes.fill out !pos (n * sb) '\000';
    s := !s + n;
    pos := !pos + (n * sb);
    left := !left - n
  done

let copy_out t ~sector ~count =
  let out = Bytes.create (count * t.geom.Geometry.sector_bytes) in
  copy_into t ~sector ~count out ~pos:0;
  out

(* The damaged set is empty unless a fault was injected, so the common
   path pays one length test per command, not a lookup per sector. *)
let ensure_ok t ~sector ~count =
  if Hashtbl.length t.damaged > 0 then
    for s = sector to sector + count - 1 do
      if Hashtbl.mem t.damaged s then raise (Error { sector = s; kind = Damaged })
    done

(* Rewritten media reads back fine. *)
let repair_run t ~sector ~count =
  if Hashtbl.length t.damaged > 0 then
    for s = sector to sector + count - 1 do
      Hashtbl.remove t.damaged s
    done

(* Write-crash bookkeeping: returns how many of [count] sectors may still
   be written before the fault fires, or [count] if no fault is armed. *)
let crash_budget t count =
  match t.write_crash with
  | None -> count
  | Some (remaining, _) -> Int.min remaining count

let consume_write_budget t n =
  match t.write_crash with
  | None -> ()
  | Some (remaining, tear) -> t.write_crash <- Some (remaining - n, tear)

(* Deterministic "noise off the head" for a torn sector: a function of the
   sector number only, so sweeps are reproducible. *)
let garbage_sector t sector =
  Bytes.init t.geom.Geometry.sector_bytes (fun i ->
      Char.chr (((sector * 131) + (i * 7) + 13) land 0xff))

let fire_crash t ~sector ~tear =
  t.write_crash <- None;
  (match tear with
  | Tear_none -> () (* power fails before the head reaches the sector *)
  | Tear_zero ->
      if sector < Geometry.total_sectors t.geom then begin
        store t ~sector ~count:1 (Bytes.make t.geom.Geometry.sector_bytes '\000') ~pos:0;
        repair_run t ~sector ~count:1
      end
  | Tear_garbage ->
      if sector < Geometry.total_sectors t.geom then begin
        store t ~sector ~count:1 (garbage_sector t sector) ~pos:0;
        repair_run t ~sector ~count:1
      end
  | Tear_damage tail ->
      for i = 0 to tail - 1 do
        let s = sector + i in
        if s < Geometry.total_sectors t.geom then Hashtbl.replace t.damaged s ()
      done);
  raise (Crash_during_write { sector })

(* ------------------------------------------------------------------ *)
(* Plain sector I/O                                                    *)

let read_run_into t ~sector ~count buf ~pos =
  if count <= 0 || pos < 0 || pos + (count * t.geom.Geometry.sector_bytes) > Bytes.length buf
  then invalid_arg "Device.read_run_into";
  check_sector t sector;
  check_sector t (sector + count - 1);
  charge_read t ~sector ~count;
  ensure_ok t ~sector ~count;
  copy_into t ~sector ~count buf ~pos

let read_run t ~sector ~count =
  if count <= 0 then invalid_arg "Device.read_run";
  let buf = Bytes.create (count * t.geom.Geometry.sector_bytes) in
  read_run_into t ~sector ~count buf ~pos:0;
  buf

let read t s = read_run t ~sector:s ~count:1

(* One command writing [count] sectors from [b], sector [i] from byte
   [pos + i * sector_bytes]. Only the first [budget] sectors reach the
   store; the rest of the run, even within the same chunk, stays as it
   was. *)
let write_sectors t ~sector ~count ?(pos = 0) b =
  if count <= 0 || pos < 0 || pos + (count * t.geom.Geometry.sector_bytes) > Bytes.length b
  then invalid_arg "Device.write_sectors: count";
  check_sector t sector;
  check_sector t (sector + count - 1);
  charge_write t ~sector ~count;
  let budget = crash_budget t count in
  store t ~sector ~count:budget b ~pos;
  repair_run t ~sector ~count:budget;
  consume_write_budget t budget;
  if budget < count then
    match t.write_crash with
    | Some (_, tear) -> fire_crash t ~sector:(sector + budget) ~tear
    | None -> assert false

let write_run t ~sector b =
  let sb = t.geom.Geometry.sector_bytes in
  if Bytes.length b = 0 || Bytes.length b mod sb <> 0 then
    invalid_arg "Device.write_run: not a whole number of sectors";
  write_sectors t ~sector ~count:(Bytes.length b / sb) b

let write t s b =
  if Bytes.length b <> t.geom.Geometry.sector_bytes then
    invalid_arg "Device.write: not one sector";
  write_sectors t ~sector:s ~count:1 b

(* ------------------------------------------------------------------ *)
(* Labeled I/O                                                         *)

let label_of t s =
  match Hashtbl.find_opt t.labels s with Some l -> l | None -> Label.free

let read_label t s =
  check_sector t s;
  (* A label read is a positioning plus a (sub-sector) transfer; charge one
     sector time as the microcode must see the whole sector pass by. *)
  charge_read t ~sector:s ~count:1;
  t.stats.label_ops <- t.stats.label_ops + 1;
  ensure_ok t ~sector:s ~count:1;
  label_of t s

let write_labels t ~sector labels =
  let count = List.length labels in
  if count = 0 then invalid_arg "Device.write_labels";
  check_sector t sector;
  check_sector t (sector + count - 1);
  charge_write t ~sector ~count;
  t.stats.label_ops <- t.stats.label_ops + count;
  List.iteri (fun i l -> Hashtbl.replace t.labels (sector + i) l) labels;
  repair_run t ~sector ~count

let check_label t s ~expect =
  let found = label_of t s in
  if not (Label.equal found expect) then
    raise (Error { sector = s; kind = Label_mismatch { expected = expect; found } })

let verified_read t s ~expect =
  check_sector t s;
  charge_read t ~sector:s ~count:1;
  t.stats.label_ops <- t.stats.label_ops + 1;
  ensure_ok t ~sector:s ~count:1;
  check_label t s ~expect;
  copy_out t ~sector:s ~count:1

let verified_read_run t ~sector ~expect =
  let count = List.length expect in
  if count = 0 then invalid_arg "Device.verified_read_run";
  check_sector t sector;
  check_sector t (sector + count - 1);
  charge_read t ~sector ~count;
  t.stats.label_ops <- t.stats.label_ops + count;
  ensure_ok t ~sector ~count;
  List.iteri (fun i l -> check_label t (sector + i) ~expect:l) expect;
  copy_out t ~sector ~count

let verified_write_run t ~sector ~expect b =
  let sb = t.geom.Geometry.sector_bytes in
  let count = List.length expect in
  if count = 0 || Bytes.length b <> count * sb then
    invalid_arg "Device.verified_write_run";
  check_sector t sector;
  check_sector t (sector + count - 1);
  List.iteri (fun i l -> check_label t (sector + i) ~expect:l) expect;
  t.stats.label_ops <- t.stats.label_ops + count;
  write_sectors t ~sector ~count b

let scan_labels t ~from ~count f =
  check_sector t from;
  check_sector t (from + count - 1);
  (* The scavenger reads labels a whole track at a time. *)
  let spt = t.geom.Geometry.sectors_per_track in
  let s = ref from in
  let remaining = ref count in
  while !remaining > 0 do
    let track_left = spt - (!s mod spt) in
    let n = min track_left !remaining in
    charge_read t ~sector:!s ~count:n;
    t.stats.label_ops <- t.stats.label_ops + n;
    for i = 0 to n - 1 do
      let sec = !s + i in
      let l = if Hashtbl.mem t.damaged sec then None else Some (label_of t sec) in
      f sec l
    done;
    s := !s + n;
    remaining := !remaining - n
  done

(* ------------------------------------------------------------------ *)
(* Fault injection & observation                                       *)

let damage t s =
  check_sector t s;
  Hashtbl.replace t.damaged s ()

let corrupt t s ~rng =
  check_sector t s;
  let b = Bytes.init t.geom.Geometry.sector_bytes (fun _ -> Char.chr (Rng.int rng 256)) in
  store t ~sector:s ~count:1 b ~pos:0

let is_damaged t s = Hashtbl.mem t.damaged s

let plan_write_crash_tear t ~after_sectors ~tear =
  if after_sectors < 0 then invalid_arg "Device.plan_write_crash_tear";
  (match tear with
  | Tear_damage tail when tail < 0 || tail > 2 ->
      invalid_arg "Device.plan_write_crash_tear: damage tail"
  | _ -> ());
  t.write_crash <- Some (after_sectors, tear)

let plan_write_crash t ~after_sectors ~damage_tail =
  plan_write_crash_tear t ~after_sectors ~tear:(Tear_damage damage_tail)

let cancel_write_crash t = t.write_crash <- None
let set_observer t f = t.observer <- f
let written_ever t s =
  s >= 0 && s < Bitmap.length t.written && Bitmap.get t.written s

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)

let magic = 0x43445631 (* "CDV1" *)

(* An image streams as little-endian u32s and raw bytes: magic, the nine
   geometry fields, the written sectors as (sector, bytes) records in
   ascending order, the labels as (sector, 13 bytes), the damaged
   sectors. *)
let dump t oc =
  let u32 = Bytes.create 4 in
  let put v =
    Bytes.set_int32_le u32 0 (Int32.of_int v);
    output oc u32 0 4
  in
  let g = t.geom in
  List.iter put
    [
      magic;
      g.Geometry.cylinders;
      g.Geometry.heads;
      g.Geometry.sectors_per_track;
      g.Geometry.sector_bytes;
      g.Geometry.rpm;
      g.Geometry.min_seek_us;
      g.Geometry.avg_seek_us;
      g.Geometry.max_seek_us;
      g.Geometry.head_switch_us;
    ];
  let sb = g.Geometry.sector_bytes in
  put (Bitmap.count t.written);
  Array.iteri
    (fun i c ->
      (* A never-allocated chunk holds no written sector. *)
      if Bytes.length c > 0 then
        for off = 0 to chunk_sectors - 1 do
          let s = (i * chunk_sectors) + off in
          if s < Bitmap.length t.written && Bitmap.get t.written s then begin
            put s;
            output oc c (off * sb) sb
          end
        done)
    t.chunks;
  put (Hashtbl.length t.labels);
  Hashtbl.iter
    (fun s l ->
      put s;
      output_bytes oc (Label.encode l))
    t.labels;
  put (Hashtbl.length t.damaged);
  Hashtbl.iter (fun s () -> put s) t.damaged

(* No simulated disk comes near this; a header claiming more is not an
   image, and would only make [create] allocate without bound. *)
let max_image_sectors = 1 lsl 26

let load ?id ?trace ?metrics ~clock ic =
  let fail fmt = Printf.ksprintf (fun s -> raise (Bytebuf.Decode_error s)) fmt in
  let u32 = Bytes.create 4 in
  let really_read b pos len what =
    try really_input ic b pos len with End_of_file -> fail "truncated %s" what
  in
  let get what =
    really_read u32 0 4 what;
    Int32.to_int (Bytes.get_int32_le u32 0) land 0xffffffff
  in
  let m = get "header" in
  if m <> magic then fail "bad disk image magic: expected %#x, got %#x" magic m;
  let field what lo hi =
    let v = get "header" in
    if v < lo || v > hi then fail "implausible %s %d" what v;
    v
  in
  let dim what = field what 1 max_image_sectors in
  let cylinders = dim "cylinder count" in
  let heads = dim "head count" in
  let sectors_per_track = dim "sectors per track" in
  let sector_bytes = field "sector size" 16 65536 in
  let rpm = dim "rpm" in
  let min_seek_us = get "header" in
  let avg_seek_us = get "header" in
  let max_seek_us = get "header" in
  let head_switch_us = get "header" in
  if cylinders * heads > max_image_sectors
     || cylinders * heads * sectors_per_track > max_image_sectors
  then fail "implausible geometry: more than %d sectors" max_image_sectors;
  let geom =
    {
      Geometry.cylinders;
      heads;
      sectors_per_track;
      sector_bytes;
      rpm;
      min_seek_us;
      avg_seek_us;
      max_seek_us;
      head_switch_us;
    }
  in
  let t = create ?id ?trace ?metrics ~clock geom in
  let total = Geometry.total_sectors geom in
  let sector what =
    let s = get what in
    if s >= total then fail "%s names sector %d of %d" what s total;
    s
  in
  (* Records may come in any order; a repeated sector keeps its last. *)
  for _ = 1 to get "sector count" do
    let s = sector "sector record" in
    really_read (chunk_for_write t s) ((s mod chunk_sectors) * sector_bytes) sector_bytes
      "sector record";
    Bitmap.set t.written s
  done;
  let label = Bytes.create 13 in
  for _ = 1 to get "label count" do
    let s = sector "label record" in
    really_read label 0 13 "label record";
    Hashtbl.replace t.labels s (Label.decode label)
  done;
  for _ = 1 to get "damaged count" do
    Hashtbl.replace t.damaged (sector "damaged record") ()
  done;
  t
