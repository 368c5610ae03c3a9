(* Systematic crash-injection sweep for the concurrent server path.

   One recording pass replays the deterministic reference workload
   (Concurrent.crash_reference) on a fresh volume with a Crash_plan
   attached, purely to learn how many sector writes each force interval
   contains. The sweep then re-runs the identical workload once per
   (force interval, sector-write offset, tear mode) coordinate, killing
   the device at exactly that write, and checks the §5.4 contract on the
   rebooted volume:

   - every acknowledged mutation is present with byte-exact content, and
     every unacknowledged one is wholly absent — precisely: each
     client's recovered namespace equals the fold of some prefix of its
     mutating ops no shorter than its acked count (the crash can fall
     between a force and the acks it releases, so committed-but-unacked
     is legal; a lost ack'd op or a partially applied op is not);
   - the rebuilt VAM agrees with the name table: the empty volume's free
     count minus the distinct sectors the recovered entries claim equals
     the recovered free count (Fsd.check separately audits the converse
     direction and leader/entry agreement);
   - the black-box region decodes to exactly the generation of the last
     checkpoint that completed before the crash — a torn checkpoint
     write must fall back to the older slot, never abort the decode.

   With [scavenge] set the harness additionally destroys both copies of
   the entire name table after the crash, forcing recovery through
   Scavenge.run. The scavenger rebuilds from leader pages, which are
   written synchronously at create and survive deletes it cannot prove,
   so the oracle weakens to: boot succeeds, the structural check passes,
   everything present is byte-exact, and every acked create whose name
   the script never deletes is present. *)

open Cedar_util
open Cedar_disk
open Cedar_fsd
open Cedar_workload
module Metrics = Cedar_obs.Metrics
module Trace = Cedar_obs.Trace
module Jsonb = Cedar_obs.Jsonb

type workload =
  | Reference  (** the unique-name crash_reference script, all intervals *)
  | Wrap of Concurrent.churn_spec
      (** churn sized to wrap the log; the sweep targets only the force
          intervals in the wrap window (a third entry, or adjacent) *)

type cfg = {
  clients : int;
  tears : Device.tear list;
  max_forces : int option;  (** sweep only intervals [0 .. k-1] *)
  scavenge : bool;  (** destroy both FNT copies before every reboot *)
  workload : workload;
}

let all_tears =
  [ Device.Tear_none; Device.Tear_zero; Device.Tear_garbage; Device.Tear_damage 1 ]

let default_cfg =
  {
    clients = 2;
    tears = all_tears;
    max_forces = None;
    scavenge = false;
    workload = Reference;
  }

(* Sized for [Geometry.tiny_test] (37-sector thirds): two clients'
   worth wraps the log more than once while keeping the sweep's
   (interval x write x tear) product affordable. Forcing every
   mutation keeps intervals small, so each third entry is bracketed by
   crash points only a few sector writes apart. *)
let default_wrap_spec =
  {
    Concurrent.default_churn with
    Concurrent.slots = 4;
    churn_ops = 30;
    bytes_min = 200;
    bytes_max = 900;
    churn_think_us = 1_000;
    force_every = 1;
  }

let workload_name = function Reference -> "reference" | Wrap _ -> "wrap"

let tear_name = function
  | Device.Tear_none -> "none"
  | Device.Tear_zero -> "zero"
  | Device.Tear_garbage -> "garbage"
  | Device.Tear_damage n -> Printf.sprintf "damage%d" n

let tear_of_name = function
  | "none" -> Some Device.Tear_none
  | "zero" -> Some Device.Tear_zero
  | "garbage" -> Some Device.Tear_garbage
  | "damage" -> Some (Device.Tear_damage 1)
  | _ -> None

type path = Replay | Twin_repair | Scavenged

type violation = {
  v_force : int;
  v_write : int;
  v_tear : string;
  v_what : string;
}

type summary = {
  sw_clients : int;
  sw_workload : string;
  sw_scavenge : bool;
  sw_writes_per_interval : int array;
  sw_intervals : int list;  (** force intervals actually swept *)
  sw_points : int;  (** (interval, write) coordinates enumerated *)
  sw_runs : int;  (** crash runs executed (points × tear modes) *)
  sw_replay : int;
  sw_twin_repair : int;
  sw_scavenged : int;
  sw_violations : violation list;
}

(* ------------------------------------------------------------------ *)
(* Volume construction and calibration.                                *)

type base = {
  geom : Geometry.t;
  params : Params.t;
  layout : Layout.t;
  scripts : Concurrent.script array;
  muts : Oracle.mut list array;  (* per client *)
  names : string list array;  (* per client *)
  writes : int array;  (* per force interval, from the recording pass *)
  wrap_intervals : int list;
      (* intervals in which the log entered a third, plus neighbours *)
  baseline_free : int;  (* free sectors of the empty volume *)
  first_gen : int64;  (* generation of the first blackbox checkpoint *)
}

let fresh_volume base =
  let clock = Simclock.create () in
  let device = Device.create ~clock base.geom in
  (* Checkpoints (and so the black-box oracle) exist only while tracing. *)
  Trace.enable (Device.trace device);
  Fsd.format device base.params;
  let fs, _ = Fsd.boot device in
  (device, fs)

let checkpoints_done device =
  match Metrics.read (Device.metrics device) "fsd.blackbox_checkpoints" with
  | Some n -> n
  | None -> 0

let server_config plan =
  {
    Server.default_config with
    Server.on_force = Some (fun _ -> Crash_plan.note_force plan);
  }

(* The wrap window: every force interval in which the log entered a
   third, widened by one interval each side — the entry's home-write
   burst and pointer rewrite happen inside it, while the appends that
   arm and immediately follow the entry land in the neighbours. A run
   with [f] forces has [f + 1] intervals (interval [f] is the open one
   after the last force); [samples.(k)] is the third-entry count just
   before force [k + 1] fired and [total] the count at the end, so
   interval [i] saw [after i - before i] entries. *)
let wrap_window ~samples ~total =
  let f = Array.length samples in
  let before i = if i = 0 then 0 else samples.(i - 1) in
  let after i = if i < f then samples.(i) else total in
  let window = Hashtbl.create 13 in
  for i = 0 to f do
    if after i - before i > 0 then begin
      Hashtbl.replace window i ();
      if i > 0 then Hashtbl.replace window (i - 1) ();
      if i < f then Hashtbl.replace window (i + 1) ()
    end
  done;
  List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) window [])

let calibrate ~clients ~workload geom =
  let params = Params.for_geometry geom in
  let scripts =
    match workload with
    | Reference -> Concurrent.crash_reference ~clients
    | Wrap spec ->
      if spec.Concurrent.churn_keep <> params.Params.default_keep then
        invalid_arg
          "Faultsweep.calibrate: churn_keep must match the volume's \
           default_keep";
      Concurrent.churn_scripts spec ~clients
  in
  let muts = Array.map Oracle.muts_of_script scripts in
  let names = Array.map Oracle.mut_names muts in
  let baseline_free =
    let clock = Simclock.create () in
    let device = Device.create ~clock geom in
    Fsd.format device params;
    let fs, _ = Fsd.boot device in
    Fsd.free_sectors fs
  in
  let pre =
    {
      geom;
      params;
      layout = Layout.compute geom params;
      scripts;
      muts;
      names;
      writes = [||];
      wrap_intervals = [];
      baseline_free;
      first_gen = 1L;
    }
  in
  let device, fs = fresh_volume pre in
  let plan = Crash_plan.attach device in
  let samples = ref [] in
  let config =
    {
      (server_config plan) with
      Server.on_force =
        Some
          (fun _ ->
            samples := (Fsd.log_stats fs).Log.third_entries :: !samples;
            Crash_plan.note_force plan);
    }
  in
  let r =
    Server.serve_volumes ~config (Cedar_volumes.Volume_set.of_fsd fs) scripts
  in
  Crash_plan.detach plan;
  if r.Server.total_errors > 0 || r.Server.total_rejected > 0
     || r.Server.total_aborted > 0 || r.Server.total_dropped > 0
  then
    invalid_arg
      "Faultsweep.calibrate: the reference workload must replay clean";
  let total_entries = (Fsd.log_stats fs).Log.third_entries in
  let wrap_intervals =
    match workload with
    | Reference -> []
    | Wrap _ ->
      let samples = Array.of_list (List.rev !samples) in
      let w = wrap_window ~samples ~total:total_entries in
      if w = [] then
        invalid_arg
          "Faultsweep.calibrate: the churn workload never entered a third \
           (no wrap window to sweep)";
      w
  in
  let n = checkpoints_done device in
  let first_gen =
    match Blackbox.read device (Fsd.layout fs) with
    | Ok cp when n > 0 -> Int64.sub cp.Blackbox.state.Blackbox.gen (Int64.of_int (n - 1))
    | Ok _ | Error _ -> 1L
  in
  {
    pre with
    layout = Fsd.layout fs;
    writes = Crash_plan.writes_per_interval plan;
    wrap_intervals;
    first_gen;
  }

(* ------------------------------------------------------------------ *)
(* Post-crash checks.                                                  *)

let destroy_fnt device (layout : Layout.t) =
  for k = 0 to layout.Layout.fnt_sectors - 1 do
    Device.damage device (layout.Layout.fnt_a_start + k);
    Device.damage device (layout.Layout.fnt_b_start + k)
  done

(* [n] checkpoints completed before the crash, so the slot holding
   generation [first_gen + n - 1] is intact and a decode must never come
   back older than it (or fail outright). Decoding one generation newer
   is legal: the crash may have interrupted checkpoint [n+1]'s slot
   command after every meaningful byte already landed — the torn tail
   was only padding, so both CRCs pass. *)
let check_blackbox base device add =
  let n = checkpoints_done device in
  let last = Int64.add base.first_gen (Int64.of_int (n - 1)) in
  match Blackbox.read device base.layout with
  | Ok cp ->
    let gen = cp.Blackbox.state.Blackbox.gen in
    let in_flight = Int64.add last 1L in
    if not (Int64.equal gen last || Int64.equal gen in_flight) then
      add
        (Printf.sprintf
           "blackbox gen %Ld after %d completed checkpoints, want %Ld or %Ld"
           gen n last in_flight)
  | Error m ->
    if n > 0 then
      add
        (Printf.sprintf "blackbox undecodable after %d completed checkpoints: %s" n m)

let check_vam base fs add =
  let claimed = Hashtbl.create 256 in
  Fsd.fold_entries fs ~init:() ~f:(fun () ~name:_ ~version:_ e ->
      if e.Cedar_fsbase.Entry.anchor >= 0 then begin
        Hashtbl.replace claimed e.Cedar_fsbase.Entry.anchor ();
        Cedar_fsbase.Run_table.iter_sectors e.Cedar_fsbase.Entry.runs (fun s ->
            Hashtbl.replace claimed s ())
      end);
  let free = Fsd.free_sectors fs in
  let want = base.baseline_free - Hashtbl.length claimed in
  if free <> want then
    add
      (Printf.sprintf "VAM free count %d disagrees with name table (want %d)"
         free want)

(* Strict oracle: each client's recovered namespace is the fold of a
   prefix of its mutating ops at least as long as its acked count —
   version-aware, so churn workloads that re-create live names are
   checked exactly (stack depth, newest content). *)
let check_clients base fs acked add =
  let keep = base.params.Params.default_keep in
  Array.iteri
    (fun client muts ->
      let names = base.names.(client) in
      let acked_count =
        List.length (List.filter (fun (c, _) -> c = client) acked)
      in
      let len = List.length muts in
      if acked_count > len then
        add (Printf.sprintf "client %d acked %d of %d muts" client acked_count len)
      else begin
        let rec search i =
          if i > len then false
          else Oracle.matches_prefix fs ~keep muts names i || search (i + 1)
        in
        if not (search acked_count) then
          add
            (Printf.sprintf
               "client %d: no mutation prefix >= %d acked ops explains the \
                recovered state"
               client acked_count)
      end)
    base.muts

(* Weakened oracle for scavenged volumes. The scavenger legitimately
   resurrects unacked creates (leaders are written synchronously, and
   the interrupted write may have been that create's own data — so even
   their content is unconstrained) and acked deletes (their FNT proof
   was destroyed with the table; their sectors may since have been
   reused, costing them to a newer claim). What it must never do is lose
   or corrupt an acked create the script never deletes: that file's data
   was fully on disk before the ack and nothing ever freed it. *)
let check_clients_scavenged base fs acked add =
  Array.iteri
    (fun client muts ->
      let deleted =
        List.filter_map (function Oracle.Mdelete n -> Some n | _ -> None) muts
      in
      let acked_creates =
        List.filter_map
          (fun (c, op) ->
            match op with
            | Concurrent.Create { name; _ } when c = client -> Some name
            | _ -> None)
          acked
      in
      List.iter
        (fun m ->
          match m with
          | Oracle.Mcreate { name; bytes; fill }
            when List.mem name acked_creates && not (List.mem name deleted)
            -> (
            match Oracle.actual_file fs ~name with
            | Ok None -> add (Printf.sprintf "scavenge lost acked create %s" name)
            | Ok (Some b) ->
              if not (Bytes.equal b (Concurrent.content ~fill bytes)) then
                add (Printf.sprintf "scavenged content of %s is wrong" name)
            | Error m -> add (Printf.sprintf "%s unreadable: %s" name m))
          | Oracle.Mcreate _ | Oracle.Mdelete _ -> ())
        muts)
    base.muts

(* Every recovered name must come from the reference scripts. *)
let check_no_aliens base fs add =
  let known = Hashtbl.create 64 in
  Array.iter
    (fun names -> List.iter (fun n -> Hashtbl.replace known n ()) names)
    base.names;
  Fsd.fold_entries fs ~init:() ~f:(fun () ~name ~version:_ _ ->
      if not (Hashtbl.mem known name) then
        add (Printf.sprintf "recovered a name no script created: %s" name))

(* ------------------------------------------------------------------ *)
(* The sweep.                                                          *)

let run_point cfg base ~force ~write ~tear =
  let device, fs = fresh_volume base in
  let plan = Crash_plan.attach device in
  Crash_plan.arm plan ~force ~write ~tear;
  let server =
    Server.create_volumes ~config:(server_config plan)
      (Cedar_volumes.Volume_set.of_fsd fs) base.scripts
  in
  let violations = ref [] in
  let add what =
    violations :=
      { v_force = force; v_write = write; v_tear = tear_name tear; v_what = what }
      :: !violations
  in
  let path =
    match Server.run_to_crash server with
    | Server.Completed _ ->
      add "armed crash never fired";
      None
    | Server.Crashed _ ->
      Crash_plan.detach plan;
      Device.cancel_write_crash device;
      let acked = Server.acked server in
      check_blackbox base device add;
      if cfg.scavenge then destroy_fnt device base.layout;
      let booted =
        match Fsd.try_boot device with
        | `Ok (fs2, _) ->
          if not cfg.scavenge && Fsd.fnt_repairs fs2 > 0 then
            Some (fs2, Twin_repair)
          else Some (fs2, Replay)
        | `Needs_scavenge reason ->
          if not cfg.scavenge then
            add ("log replay insufficient, wanted scavenge: " ^ reason);
          ignore (Scavenge.run device : Scavenge.report);
          (match Fsd.boot device with
          | fs2, _ -> Some (fs2, Scavenged)
          | exception e ->
            add ("boot after scavenge raised " ^ Printexc.to_string e);
            None)
        | exception e ->
          add ("reboot raised " ^ Printexc.to_string e);
          None
      in
      (match booted with
      | None -> None
      | Some (fs2, path) ->
        (match Fsd.check fs2 with
        | Ok () -> ()
        | Error m -> add ("structural check failed: " ^ m));
        check_no_aliens base fs2 add;
        (if cfg.scavenge || path = Scavenged then
           match cfg.workload with
           | Reference -> check_clients_scavenged base fs2 acked add
           | Wrap _ ->
             (* Churn deletes and re-creates most of its names, so the
                "acked create never deleted" witness the scavenged
                oracle rests on does not exist; structural soundness
                and no-alien-names are all that can be demanded. *)
             ()
         else begin
           check_clients base fs2 acked add;
           check_vam base fs2 add
         end);
        (* Convergence clause: a record whose images were already
           written home must never be replayed into stale state. A
           clean shutdown resets the log pointer past everything
           recovery just applied, so a second boot must replay nothing
           and reproduce the namespace byte-for-byte — if replay and
           the home-write path disagree about who owns a page, this is
           where it shows. *)
        let digest = Oracle.volume_digest fs2 in
        (match Fsd.shutdown fs2 with
        | () -> (
          match Fsd.boot device with
          | fs3, br ->
            if br.Fsd.replayed_records <> 0 then
              add
                (Printf.sprintf
                   "second boot after clean shutdown replayed %d record(s)"
                   br.Fsd.replayed_records);
            if Oracle.volume_digest fs3 <> digest then
              add "clean shutdown + reboot changed the recovered namespace";
            (match Fsd.check fs3 with
            | Ok () -> ()
            | Error m -> add ("structural check failed after clean reboot: " ^ m))
          | exception e ->
            add ("reboot after clean shutdown raised " ^ Printexc.to_string e))
        | exception e ->
          add ("clean shutdown after recovery raised " ^ Printexc.to_string e));
        Some path)
  in
  (path, List.rev !violations)

let sweep ?geom cfg =
  if cfg.clients < 1 then invalid_arg "Faultsweep.sweep: clients < 1";
  if cfg.tears = [] then invalid_arg "Faultsweep.sweep: no tear modes";
  let geom =
    match geom with
    | Some g -> g
    | None -> (
      match cfg.workload with
      | Reference -> Geometry.small_test
      | Wrap _ -> Geometry.tiny_test)
  in
  let base = calibrate ~clients:cfg.clients ~workload:cfg.workload geom in
  let bound =
    match cfg.max_forces with
    | Some k -> min k (Array.length base.writes)
    | None -> Array.length base.writes
  in
  let intervals =
    match cfg.workload with
    | Reference -> List.init bound Fun.id
    | Wrap _ -> List.filter (fun i -> i < bound) base.wrap_intervals
  in
  let points = ref 0 and runs = ref 0 in
  let replay = ref 0 and twin = ref 0 and scav = ref 0 in
  let violations = ref [] in
  List.iter
    (fun force ->
      for write = 0 to base.writes.(force) - 1 do
        incr points;
        List.iter
          (fun tear ->
            incr runs;
            let path, vs = run_point cfg base ~force ~write ~tear in
            (match path with
            | Some Replay -> incr replay
            | Some Twin_repair -> incr twin
            | Some Scavenged -> incr scav
            | None -> ());
            violations := List.rev_append vs !violations)
          cfg.tears
      done)
    intervals;
  {
    sw_clients = cfg.clients;
    sw_workload = workload_name cfg.workload;
    sw_scavenge = cfg.scavenge;
    sw_writes_per_interval = base.writes;
    sw_intervals = intervals;
    sw_points = !points;
    sw_runs = !runs;
    sw_replay = !replay;
    sw_twin_repair = !twin;
    sw_scavenged = !scav;
    sw_violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let violation_json v =
  Jsonb.Obj
    [
      ("force", Jsonb.Int v.v_force);
      ("write", Jsonb.Int v.v_write);
      ("tear", Jsonb.Str v.v_tear);
      ("what", Jsonb.Str v.v_what);
    ]

let summary_json s =
  Jsonb.Obj
    [
      ("clients", Jsonb.Int s.sw_clients);
      ("workload", Jsonb.Str s.sw_workload);
      ("scavenge", Jsonb.Bool s.sw_scavenge);
      ( "writes_per_interval",
        Jsonb.Arr
          (Array.to_list (Array.map (fun n -> Jsonb.Int n) s.sw_writes_per_interval))
      );
      ("intervals", Jsonb.Arr (List.map (fun i -> Jsonb.Int i) s.sw_intervals));
      ("points", Jsonb.Int s.sw_points);
      ("runs", Jsonb.Int s.sw_runs);
      ( "recovery_paths",
        Jsonb.Obj
          [
            ("replay", Jsonb.Int s.sw_replay);
            ("twin_repair", Jsonb.Int s.sw_twin_repair);
            ("scavenge", Jsonb.Int s.sw_scavenged);
          ] );
      ("violations", Jsonb.Arr (List.map violation_json s.sw_violations));
    ]

let pp ppf s =
  Format.fprintf ppf "crash sweep: %d client(s), %s workload%s@." s.sw_clients
    s.sw_workload
    (if s.sw_scavenge then " (scavenge mode)" else "");
  Format.fprintf ppf "  force intervals: %d  writes per interval: [%s]@."
    (Array.length s.sw_writes_per_interval)
    (String.concat " "
       (Array.to_list (Array.map string_of_int s.sw_writes_per_interval)));
  Format.fprintf ppf "  intervals swept: [%s]@."
    (String.concat " " (List.map string_of_int s.sw_intervals));
  Format.fprintf ppf "  points swept: %d  crash runs: %d@." s.sw_points s.sw_runs;
  Format.fprintf ppf
    "  recovery paths: log-replay %d, twin-repair %d, scavenge %d@." s.sw_replay
    s.sw_twin_repair s.sw_scavenged;
  match s.sw_violations with
  | [] -> Format.fprintf ppf "  violations: none@."
  | vs ->
    Format.fprintf ppf "  violations: %d@." (List.length vs);
    List.iter
      (fun v ->
        Format.fprintf ppf "    force %d write %d tear %s: %s@." v.v_force
          v.v_write v.v_tear v.v_what)
      vs
