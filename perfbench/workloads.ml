(* The benchmark workloads, driven through the library's public
   entry points: [Volume_set.create_fresh] builds the volumes,
   [Server.run_to_crash] serves the scripts, and [Fsd.try_boot] restarts
   each volume afterwards.

   One repetition ("rep") of a workload is: set up (format and boot the
   volumes, populate, generate scripts), then the timed phase, then the
   correctness checks. Every workload ends each serve with a power cut —
   the live [Fsd.t] is abandoned without shutdown — and reboots every
   volume, so restart time is measured on every workload; on [crash-restart]
   the cut is a planted mid-write device fault instead, repeated cycle
   after cycle on one populated volume.

   A traced rep additionally keeps what the per-layer ledger needs: the
   Critpath fold of each serve, the order in which ops executed, and the
   device command stream. Tracing never moves the virtual clock, so a
   traced rep must reproduce the untraced one's server report byte for
   byte; the harness checks that. *)

open Cedar_disk
open Cedar_fsd
module C = Cedar_workload.Concurrent
module S = Cedar_server.Server
module V = Cedar_volumes.Volume_set
module Oracle = Cedar_server.Oracle
module Crit = Cedar_obs.Critpath
module Trace = Cedar_obs.Trace
module Metrics = Cedar_obs.Metrics
module J = Cedar_obs.Jsonb

type kind = Makedo | Openloop | Crash_restart

type t = {
  name : string;
  kind : kind;
  loop : string;  (** closed or open *)
  clients : int;
  volumes : int;
  rate : float option;  (** open-loop aggregate arrivals per second *)
}

let all =
  [
    {
      name = "makedo-8vol";
      kind = Makedo;
      loop = "closed";
      clients = 64;
      volumes = 8;
      rate = None;
    };
    {
      name = "openloop-1vol";
      kind = Openloop;
      loop = "open";
      clients = 32;
      volumes = 1;
      rate = Some 12.0;
    };
    (* Runnable by name, but not listed in BENCHMARK.json: see README. *)
    {
      name = "crash-restart";
      kind = Crash_restart;
      loop = "closed";
      clients = 4;
      volumes = 1;
      rate = None;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Workload parameters.                                                *)

let openloop_arrivals = 6000
let populate_files = 2000
let cycles = 64
let trace_capacity = 1 lsl 21

(* Host seconds one rep takes, roughly, on the 2-vCPU machine the
   benchmark was tuned on. A run makes [seconds / nominal_rep_s] reps:
   the count follows from the settings, not from how fast the machine
   happens to run, so every run compares the same number of reps. *)
let nominal_rep_s w = match w.kind with Makedo -> 3.0 | Openloop -> 4.0 | Crash_restart -> 2.0

(* Restart host time is a median over at least this many boots per rep;
   workloads with fewer volumes also boot copies of volume 0's crashed
   device. *)
let boots_per_rep = 8

(* A served rep's host time is also taken in windows that end at every
   [window_forces]-th server force. Reps run the same inputs, so window
   [i] is the same work in every rep and the harness can compare reps
   window by window (see [Main.end_to_end]). *)
let window_forces = 16

(* Splits a timed stretch into windows. Reference samples (Calib) fall
   between windows, and their own time is in no window. *)
type windows = { mutable start : float; mutable lens : float list; refs : Calib.sampler }

let open_windows refs = { start = Host.cpu_s (); lens = []; refs }

let next_window w =
  let t = Host.cpu_s () in
  w.lens <- (t -. w.start) :: w.lens;
  Calib.tick w.refs;
  w.start <- Host.cpu_s ()

let close_windows w =
  w.lens <- (Host.cpu_s () -. w.start) :: w.lens;
  Array.of_list (List.rev w.lens)

(* [f ()] and its host seconds; a reference sample may precede it. *)
let timed_with_ref refs f =
  Calib.tick refs;
  Host.time f

(* Scratch disk image (in the working directory) for device copies. *)
let scratch_image = ".perfbench-scratch.img"

let copy_device device =
  let oc = open_out_bin scratch_image in
  Device.dump device oc;
  close_out oc;
  let ic = open_in_bin scratch_image in
  let copy = Device.load ~clock:(Cedar_util.Simclock.create ()) ic in
  close_in ic;
  Sys.remove scratch_image;
  copy

(* Black-box checkpoints are written only while tracing is on, so with
   their default cadence a traced run would do I/O an untraced one never
   does and its virtual clock would drift. They are switched off here;
   everything else is the stock configuration. *)
let params_of w =
  let p = { Params.default with Params.blackbox_every_n_forces = max_int } in
  match w.kind with
  | Makedo | Crash_restart -> p
  | Openloop -> { p with Params.disk_qdepth = 8; disk_sched = Device.Elevator }

let keep = Params.default.Params.default_keep

let prefix_script p script =
  let name n = p ^ n in
  List.map
    (function
      | C.Op (C.Create c) -> C.Op (C.Create { c with name = name c.name })
      | C.Op (C.Open n) -> C.Op (C.Open (name n))
      | C.Op (C.Read n) -> C.Op (C.Read (name n))
      | C.Op (C.Read_page r) -> C.Op (C.Read_page { r with name = name r.name })
      | C.Op (C.Delete n) -> C.Op (C.Delete (name n))
      | C.Op (C.List n) -> C.Op (C.List (name n))
      | step -> step)
    script

(* One crash-restart cycle: each client reads [cycle_reads] populated
   files, then runs a short closed-loop churn burst under the cycle's own
   directory (so cycles never share names), with the fixed crash
   coordinate planted in it. The reads give read latency enough samples
   for its p99; the churn alone reads only a few dozen times a rep. *)
let cycle_reads = 4

let populate_name i = Printf.sprintf "pop/d%02d/f%04d" (i mod 20) i

type cycle = {
  scripts : C.script array;
  force : int;  (** force interval the fault lands in *)
  write : int;  (** sector write within that interval *)
  tear : Device.tear;
}

let tears = [| Device.Tear_none; Device.Tear_zero; Device.Tear_garbage; Device.Tear_damage 1 |]

let cycle_of ~seed ~clients k =
  let spec =
    {
      C.default_churn with
      C.slots = 6;
      churn_ops = 30;
      churn_keep = keep;
      churn_think_us = 4_000;
      force_every = 6;
      churn_seed = (seed * 1000) + k;
    }
  in
  let rng = Cedar_util.Rng.create ((seed * 7919) + k) in
  let read_rng = Cedar_util.Rng.create ((seed * 104_729) + k) in
  let reads () =
    List.init cycle_reads (fun _ ->
        C.Op (C.Read (populate_name (Cedar_util.Rng.int read_rng populate_files))))
  in
  {
    scripts =
      Array.map
        (fun s -> reads () @ prefix_script (Printf.sprintf "k%03d/" k) s)
        (C.churn_scripts spec ~clients);
    force = 6 + Cedar_util.Rng.int rng 6;
    write = Cedar_util.Rng.int rng 4;
    tear = tears.(k mod Array.length tears);
  }

let populate_sizes ~seed =
  let rng = Cedar_util.Rng.create (seed + 104_729) in
  Array.init populate_files (fun _ -> Cedar_util.Rng.int_in rng ~lo:500 ~hi:8_000)

(* ------------------------------------------------------------------ *)
(* Set-up.                                                             *)

type inputs = Serve of C.script array | Cycles of cycle array * int array

type prepared = { vset : V.t; inputs : inputs; gen_s : float }

let generate w ~seed =
  match w.kind with
  | Makedo ->
    Serve
      (C.shard_scripts
         (C.makedo_scripts { C.default_spec with C.seed } ~clients:w.clients)
         ~volumes:w.volumes)
  | Openloop ->
    Serve
      (C.open_loop
         {
           C.default_open with
           C.ol_rate_per_s = Option.get w.rate;
           ol_ops = openloop_arrivals;
           ol_keep = keep;
           ol_seed = seed;
         }
         ~clients:w.clients)
  | Crash_restart ->
    Cycles (Array.init cycles (cycle_of ~seed ~clients:w.clients), populate_sizes ~seed)

let populate vset sizes =
  let fs = V.vol vset 0 in
  Array.iteri
    (fun i bytes ->
      ignore (Fsd.create fs ~name:(populate_name i) (C.content ~fill:i bytes) : Cedar_fsbase.Fs_ops.info);
      if i mod 64 = 63 then Fsd.force fs)
    sizes;
  Fsd.force fs

(* [create_fresh] boots with the default runtime knobs; a second boot
   gives every volume the workload's own. *)
let setup w ~seed =
  let inputs, gen_s = Host.time (fun () -> generate w ~seed) in
  let clock = Cedar_util.Simclock.create () in
  let vset = V.create_fresh ~params:(params_of w) ~clock w.volumes in
  for i = 0 to w.volumes - 1 do
    match Fsd.try_boot ~params:(params_of w) (V.device vset i) with
    | `Ok (fs, _) -> V.replace vset i fs
    | `Needs_scavenge why -> failwith ("fresh volume needs scavenge: " ^ why)
  done;
  (match inputs with Cycles (_, sizes) -> populate vset sizes | Serve _ -> ());
  { vset; inputs; gen_s }

(* ------------------------------------------------------------------ *)
(* Per-volume counters, read around a serve and before the restart     *)
(* re-registers the FSD's instruments.                                 *)

type counters = {
  c_forces : int;  (** non-empty log forces *)
  c_piggybacks : int;
  c_bursts : int;
  c_stalls : int;
  c_log_sectors : int;
  c_third_entries : int;
  c_fnt_home_writes : int;
  c_rejects : int;
  c_retries : int;
  c_dropped : int;
  c_io : Iostats.t;
  c_dirty_n : int;
}

let counters vset i =
  let fs = V.vol vset i in
  let r name = Option.value (Metrics.read (Fsd.metrics fs) name) ~default:0 in
  let ls = Fsd.log_stats fs in
  {
    c_forces = r "fsd.forces";
    c_piggybacks = r "fsd.leader_piggybacks";
    c_bursts = r "fsd.home_write_bursts";
    c_stalls = r "fsd.reclaim_stalls";
    c_log_sectors = ls.Log.total_sectors;
    c_third_entries = ls.Log.third_entries;
    c_fnt_home_writes = Fsd.fnt_home_writes fs;
    c_rejects = r "server.rejects.queue_full" + r "server.rejects.backpressure";
    c_retries = r "server.retries";
    c_dropped = r "server.dropped";
    c_io = Iostats.copy (Device.stats (V.device vset i));
    c_dirty_n =
      (match Metrics.read_dist (Fsd.metrics fs) "fnt.dirty_page_age_us" with
      | Some d -> Cedar_util.Stats.n d
      | None -> 0);
  }

(* Totals over a rep's serves; [forces] per volume. *)
type vstats = {
  forces : int array;
  mutable piggybacks : int;
  mutable home_write_bursts : int;
  mutable reclaim_stalls : int;
  mutable log_sectors : int;
  mutable third_entries : int;
  mutable fnt_home_writes : int;
  mutable rejects : int;
  mutable retries : int;
  mutable dropped : int;
  mutable busy_us : int;
  mutable seeks : int;
  mutable seek_us : int;
  mutable sectors_written : int;
  mutable dirty_age_us : float list;
}

let zero_vstats volumes =
  {
    forces = Array.make volumes 0;
    piggybacks = 0;
    home_write_bursts = 0;
    reclaim_stalls = 0;
    log_sectors = 0;
    third_entries = 0;
    fnt_home_writes = 0;
    rejects = 0;
    retries = 0;
    dropped = 0;
    busy_us = 0;
    seeks = 0;
    seek_us = 0;
    sectors_written = 0;
    dirty_age_us = [];
  }

let total_forces vs = Array.fold_left ( + ) 0 vs.forces

(* Add volume [i]'s counter growth since [before]. *)
let add_vstats acc vset i ~before =
  let a = counters vset i and b = before in
  acc.forces.(i) <- acc.forces.(i) + a.c_forces - b.c_forces;
  acc.piggybacks <- acc.piggybacks + a.c_piggybacks - b.c_piggybacks;
  acc.home_write_bursts <- acc.home_write_bursts + a.c_bursts - b.c_bursts;
  acc.reclaim_stalls <- acc.reclaim_stalls + a.c_stalls - b.c_stalls;
  acc.log_sectors <- acc.log_sectors + a.c_log_sectors - b.c_log_sectors;
  acc.third_entries <- acc.third_entries + a.c_third_entries - b.c_third_entries;
  acc.fnt_home_writes <- acc.fnt_home_writes + a.c_fnt_home_writes - b.c_fnt_home_writes;
  acc.rejects <- acc.rejects + a.c_rejects - b.c_rejects;
  acc.retries <- acc.retries + a.c_retries - b.c_retries;
  acc.dropped <- acc.dropped + a.c_dropped - b.c_dropped;
  let io = Iostats.diff ~after:a.c_io ~before:b.c_io in
  acc.busy_us <- acc.busy_us + io.Iostats.busy_us;
  acc.seeks <- acc.seeks + io.Iostats.seeks;
  acc.seek_us <- acc.seek_us + io.Iostats.seek_us;
  acc.sectors_written <- acc.sectors_written + io.Iostats.sectors_written;
  match Metrics.read_dist (Fsd.metrics (V.vol vset i)) "fnt.dirty_page_age_us" with
  | Some d -> acc.dirty_age_us <- Cedar_util.Stats.recent d (a.c_dirty_n - b.c_dirty_n) @ acc.dirty_age_us
  | None -> ()

(* Sum of [n] over every distribution in the registry: samples retained. *)
let retained_samples vset =
  List.fold_left
    (fun acc (_, v) -> match v with Metrics.Dist { n; _ } -> acc + n | Metrics.Int _ -> acc)
    0
    (Metrics.snapshot (V.metrics vset))

(* ------------------------------------------------------------------ *)
(* One rep.                                                            *)

type restart = {
  total_us : int;
  log_replay_us : int;
  vam_us : int;
  replayed_records : int;
  host_s : float;
}

type traced = {
  folds : Crit.t list;  (** one per serve (cycle) *)
  exec : C.op list;  (** ops in the order the server executed them *)
  dev_cmds : (bool * int * int) list;  (** (write, sector, count) in service order *)
  dues : (int * int, int) Hashtbl.t list;  (** per serve: (client, opseq) -> due time *)
  trace_dropped : int;
}

type rep = {
  serve_host_s : float;  (** host seconds in [Server.run_to_crash] *)
  windows_s : float array;
      (** [serve_host_s] split into the same stretches of work in every
          rep: at every [window_forces]-th server force, or one entry per
          cycle on crash-restart *)
  timed_host_s : float;  (** serve plus restart: the timed phase *)
  sim_us : int;  (** simulated duration of the timed phase *)
  minor_words : float;  (** allocated during the serves *)
  witness : string;  (** deterministic digest of what the server reported *)
  restarts : restart list;
  copy_boots_s : float list;  (** host seconds of boots of crashed-device copies *)
  ref_samples_s : float list;
      (** Calib samples taken between the rep's windows and before each
          boot: the machine's speed while the rep ran *)
  reports : S.report list;  (** completed serves *)
  vstats : vstats;
  retained : int;
  failures : string list;
  crashes_fired : int;
  traced : traced option;
}

let session_label_client op =
  let p = "session" in
  let lp = String.length p in
  if String.length op > lp && String.sub op 0 lp = p then
    int_of_string_opt (String.sub op lp (String.length op - lp))
  else None

(* What a traced serve leaves behind: the Critpath fold, the executed op
   order (each session span is the next op of that client's script),
   the device command stream and, for open-loop scripts, each op's due
   time keyed by its lifecycle number. *)
let collect_trace tr scripts =
  let entries = Trace.to_list tr in
  let remaining = Array.copy scripts in
  let rec next_op c =
    match remaining.(c) with
    | [] -> None
    | C.Op op :: rest ->
      remaining.(c) <- rest;
      Some op
    | (C.Think _ | C.At _) :: rest ->
      remaining.(c) <- rest;
      next_op c
  in
  let exec = ref [] and cmds = ref [] in
  List.iter
    (fun (e : Trace.entry) ->
      match e.Trace.event with
      | Trace.Op_begin { op; _ } -> (
        match session_label_client op with
        | Some c -> Option.iter (fun o -> exec := o :: !exec) (next_op c)
        | None -> ())
      | Trace.Dev_read { sector; count; _ } -> cmds := (false, sector, count) :: !cmds
      | Trace.Dev_write { sector; count; _ } -> cmds := (true, sector, count) :: !cmds
      | _ -> ())
    entries;
  let dues = Hashtbl.create 1024 in
  Array.iteri
    (fun c script ->
      let seq = ref 0 and due = ref (-1) in
      List.iter
        (function
          | C.At t -> due := t
          | C.Op _ ->
            incr seq;
            if !due >= 0 then Hashtbl.replace dues (c, !seq) !due;
            due := -1
          | C.Think _ -> ())
        script)
    scripts;
  (Crit.fold entries, List.rev !exec, List.rev !cmds, dues, Trace.dropped tr)

(* [on_crashed] sees the first crashed device (volume 0) before it is
   rebooted; the ledger copies it to time log recovery. *)
let reboot ?on_crashed w vset refs i =
  (match on_crashed with
  | Some f when i = 0 -> f (V.device vset 0) (Fsd.layout (V.vol vset 0))
  | Some _ | None -> ());
  match timed_with_ref refs (fun () -> Fsd.try_boot ~params:(params_of w) (V.device vset i)) with
  | `Ok (fs, br), host_s ->
    V.replace vset i fs;
    Ok
      {
        total_us = br.Fsd.total_us;
        log_replay_us = br.Fsd.log_replay_us;
        vam_us = br.Fsd.vam_us;
        replayed_records = br.Fsd.replayed_records;
        host_s;
      }
  | `Needs_scavenge why, _ -> Error (Printf.sprintf "volume %d needs scavenge: %s" i why)

(* Every name the scripts touch must hold exactly the fold of its
   client's mutations. *)
let check_serve vset scripts fail =
  Array.iteri
    (fun c script ->
      let muts = Oracle.muts_of_script script in
      let state = Oracle.state_after ~keep muts (List.length muts) in
      List.iter
        (fun name ->
          List.iter
            (fun d -> fail (Printf.sprintf "client %d: %s" c d))
            (Oracle.diff (V.vol vset (V.route vset name)) state [ name ]))
        (Oracle.mut_names muts))
    scripts;
  V.iter
    (fun i fs ->
      match Fsd.check fs with
      | Ok () -> ()
      | Error m -> fail (Printf.sprintf "volume %d structural check: %s" i m))
    vset

let serve_rep ?on_crashed w p scripts ~traced =
  let vset = p.vset in
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  let tr = V.trace vset in
  if traced then Trace.enable ~capacity:trace_capacity tr;
  let clock = V.clock vset in
  let sim0 = Cedar_util.Simclock.now clock in
  let refs = Calib.sampler () in
  let win = ref None in
  let mark k = if k mod window_forces = 0 then Option.iter next_window !win in
  let config = { S.default_config with S.on_force = Some mark } in
  let server = S.create_volumes ~config p.vset scripts in
  let before = Array.init (V.count vset) (counters vset) in
  Gc.compact ();
  Calib.take refs;
  let w0 = Gc.minor_words () in
  win := Some (open_windows refs);
  let outcome = S.run_to_crash server in
  let windows_s = close_windows (Option.get !win) in
  let minor_words = Gc.minor_words () -. w0 in
  Calib.take refs;
  let serve_host_s = Array.fold_left ( +. ) 0. windows_s in
  let sim_us = Cedar_util.Simclock.now clock - sim0 in
  let trace_out =
    if traced then begin
      Trace.disable tr;
      let fold, exec, dev_cmds, dues, trace_dropped = collect_trace tr scripts in
      Trace.clear tr;
      Some { folds = [ fold ]; exec; dev_cmds; dues = [ dues ]; trace_dropped }
    end
    else None
  in
  let report =
    match outcome with
    | S.Completed r -> Some r
    | S.Crashed { sector } ->
      fail (Printf.sprintf "unplanned crash at sector %d" sector);
      None
  in
  Option.iter
    (fun r ->
      if r.S.total_errors > 0 then fail (Printf.sprintf "%d client errors" r.S.total_errors);
      if r.S.total_dropped > 0 then fail (Printf.sprintf "%d dropped ops" r.S.total_dropped);
      if r.S.total_aborted > 0 then fail (Printf.sprintf "%d aborted sessions" r.S.total_aborted))
    report;
  let vstats = zero_vstats (V.count vset) in
  for i = 0 to V.count vset - 1 do
    add_vstats vstats vset i ~before:before.(i)
  done;
  let retained = retained_samples vset in
  let copy_boots =
    List.init (max 0 (boots_per_rep - V.count vset)) (fun _ ->
        let copy = copy_device (V.device vset 0) in
        snd (timed_with_ref refs (fun () -> ignore (Fsd.try_boot ~params:(params_of w) copy))))
  in
  let restarts =
    List.filter_map
      (fun i ->
        match reboot ?on_crashed w vset refs i with
        | Ok r -> Some r
        | Error m ->
          fail m;
          None)
      (List.init (V.count vset) Fun.id)
  in
  check_serve vset scripts fail;
  let restart_host = List.fold_left (fun a r -> a +. r.host_s) 0. restarts in
  {
    copy_boots_s = copy_boots;
    ref_samples_s = refs.Calib.samples;
    serve_host_s;
    windows_s;
    timed_host_s = serve_host_s +. restart_host;
    sim_us;
    minor_words;
    witness =
      (match report with Some r -> J.to_string (S.report_json r) | None -> "crashed");
    restarts;
    reports = Option.to_list report;
    vstats;
    retained;
    failures = List.rev !failures;
    crashes_fired = 0;
    traced = trace_out;
  }

(* Recovered state of one crashed cycle: each client's namespace must be
   the fold of a prefix of its mutations at least as long as its acked
   count (a crash between a force and the acks it releases may leave a
   committed-but-unacked tail, which §5.4 allows). Returns the prefix
   lengths found, so later cycles can check they stayed put. *)
let check_cycle fs (cy : cycle) acked fail =
  Array.mapi
    (fun c script ->
      let muts = Oracle.muts_of_script script in
      let names = Oracle.mut_names muts in
      let n_acked = List.length (List.filter (fun (c', _) -> c' = c) acked) in
      let len = List.length muts in
      let rec search i =
        if i > len then None
        else if Oracle.matches_prefix fs ~keep muts names i then Some i
        else search (i + 1)
      in
      match search n_acked with
      | Some i -> (muts, names, i)
      | None ->
        fail
          (Printf.sprintf "cycle client %d: no prefix >= %d acked mutations explains the recovered state" c
             n_acked);
        (muts, names, n_acked))
    cy.scripts

let crash_rep ?on_crashed w p (cycles_in : cycle array) sizes ~traced =
  let vset = p.vset in
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  let tr = V.trace vset in
  if traced then Trace.enable ~capacity:trace_capacity tr;
  let clock = V.clock vset in
  let sim0 = Cedar_util.Simclock.now clock in
  let vstats = zero_vstats 1 in
  let serve_host = ref 0. and cycle_hosts = ref [] and minor_words = ref 0. and fired = ref 0 in
  let restarts = ref [] and reports = ref [] and witness = Buffer.create 256 in
  let folds = ref [] and exec = ref [] and cmds = ref [] and dues = ref [] and dropped = ref 0 in
  let settled = ref [] in
  let refs = Calib.sampler () in
  let on_crashed = ref on_crashed in
  Gc.compact ();
  Array.iter
    (fun cy ->
      let device = V.device vset 0 in
      let plan = Crash_plan.attach device in
      Crash_plan.arm plan ~force:cy.force ~write:cy.write ~tear:cy.tear;
      let config = { S.default_config with S.on_force = Some (fun _ -> Crash_plan.note_force plan) } in
      let server = S.create_volumes ~config vset cy.scripts in
      let before = counters vset 0 in
      let w0 = Gc.minor_words () in
      let outcome, host = timed_with_ref refs (fun () -> S.run_to_crash server) in
      minor_words := !minor_words +. (Gc.minor_words () -. w0);
      serve_host := !serve_host +. host;
      cycle_hosts := host :: !cycle_hosts;
      Crash_plan.detach plan;
      Device.cancel_write_crash device;
      (match outcome with
      | S.Crashed { sector } ->
        incr fired;
        Buffer.add_string witness (Printf.sprintf "crash@%d " sector)
      | S.Completed r ->
        reports := r :: !reports;
        Buffer.add_string witness (J.to_string (S.report_json r)));
      let acked = S.acked server in
      Buffer.add_string witness (Printf.sprintf "acked=%d;" (List.length acked));
      if traced then begin
        let fold, ex, dc, du, dr = collect_trace tr cy.scripts in
        Trace.clear tr;
        folds := fold :: !folds;
        exec := List.rev_append ex !exec;
        cmds := List.rev_append dc !cmds;
        dues := du :: !dues;
        dropped := !dropped + dr
      end;
      add_vstats vstats vset 0 ~before;
      (* Boot I/O is not part of the served command stream. *)
      Trace.disable tr;
      (match reboot ?on_crashed:!on_crashed w vset refs 0 with
      | Ok r -> restarts := r :: !restarts
      | Error m -> fail m);
      if traced then Trace.enable tr;
      on_crashed := None;
      settled := check_cycle (V.vol vset 0) cy acked fail :: !settled)
    cycles_in;
  Trace.disable tr;
  let sim_us = Cedar_util.Simclock.now clock - sim0 in
  let retained = retained_samples vset in
  (* Durability across later crashes: every cycle's recovered prefix and
     every populated file must still be there after the last restart. *)
  let fs = V.vol vset 0 in
  List.iter
    (fun per_client ->
      Array.iteri
        (fun c (muts, names, i) ->
          if not (Oracle.matches_prefix fs ~keep muts names i) then
            fail (Printf.sprintf "client %d: recovered prefix %d lost by a later crash" c i))
        per_client)
    !settled;
  Array.iteri
    (fun i bytes ->
      match Oracle.actual_file fs ~name:(populate_name i) with
      | Ok (Some b) when Bytes.equal b (C.content ~fill:i bytes) -> ()
      | Ok _ | Error _ -> fail (Printf.sprintf "populated file %s lost or wrong" (populate_name i)))
    sizes;
  (match Fsd.check fs with Ok () -> () | Error m -> fail ("structural check: " ^ m));
  let restarts = List.rev !restarts in
  {
    copy_boots_s = [];
    ref_samples_s = refs.Calib.samples;
    serve_host_s = !serve_host;
    windows_s = Array.of_list (List.rev !cycle_hosts);
    timed_host_s = !serve_host +. List.fold_left (fun a r -> a +. r.host_s) 0. restarts;
    sim_us;
    minor_words = !minor_words;
    witness = Buffer.contents witness;
    restarts;
    reports = List.rev !reports;
    vstats;
    retained;
    failures = List.rev !failures;
    crashes_fired = !fired;
    traced =
      (if traced then
         Some
           {
             folds = List.rev !folds;
             exec = List.rev !exec;
             dev_cmds = List.rev !cmds;
             dues = List.rev !dues;
             trace_dropped = !dropped;
           }
       else None);
  }

let run_rep ?on_crashed w p ~traced =
  match p.inputs with
  | Serve scripts -> serve_rep ?on_crashed w p scripts ~traced
  | Cycles (cys, sizes) -> crash_rep ?on_crashed w p cys sizes ~traced

(* ------------------------------------------------------------------ *)
(* Simulated-clock latencies from a traced rep.                        *)

type sample = { kind : string; latency_us : int; commit_wait_us : int option }

(* Arrival is the end of think time (Critpath's arrival) for closed
   loops and the script's due time for open loops: a session that falls
   behind issues late, and that lateness is part of the op's latency. *)
let samples_of (tr : traced) =
  List.concat
    (List.map2
       (fun (fold : Crit.t) dues ->
         List.filter_map
           (fun (r : Crit.op_record) ->
             if r.Crit.dropped then None
             else
               let arrived =
                 match Hashtbl.find_opt dues (r.Crit.client, r.Crit.opseq) with
                 | Some due -> due
                 | None -> r.Crit.arrived_us
               in
               let commit_wait_us =
                 match r.Crit.op with
                 | "create" | "delete" -> Some (r.Crit.append_us + r.Crit.parked_us)
                 | _ -> None
               in
               Some { kind = r.Crit.op; latency_us = r.Crit.end_us - arrived; commit_wait_us })
           fold.Crit.ops)
       tr.folds tr.dues)

(* Share of open-loop arrivals issued behind schedule: the session's
   previous op was still unacknowledged at the arrival's due time. *)
let late_arrivals (tr : traced) =
  List.fold_left2
    (fun (late, total) (fold : Crit.t) dues ->
      let acked = Hashtbl.create 1024 in
      List.iter (fun (r : Crit.op_record) -> Hashtbl.replace acked (r.Crit.client, r.Crit.opseq) r.Crit.end_us) fold.Crit.ops;
      Hashtbl.fold
        (fun (c, seq) due (late, total) ->
          match Hashtbl.find_opt acked (c, seq - 1) with
          | Some prev when prev > due -> (late + 1, total + 1)
          | Some _ | None -> (late, total + 1))
        dues (late, total))
    (0, 0) tr.folds tr.dues
