(* The crash-contract harness: one clean run and one verdict, shared by
   the log-wrap endurance run (cedar churn) and the crash-injection sweep
   (cedar faultsweep).

   The clean run serves the deterministic workload once on a fresh
   volume, with a Crash_plan attached that only counts the sector writes
   of each force interval. The sweep re-runs the identical workload once
   per (force interval, sector-write offset, tear mode) coordinate,
   killing the device at exactly that write and rebooting it. The clean
   run's volume and every rebooted one get the same verdict, §5.4's
   contract (acked => durable, unacked => absent, recovery converges);
   each check below says what it catches. With [scavenge] set the sweep
   also destroys both copies of the name table after every crash,
   forcing recovery through Scavenge.run, and the oracle gives way to
   the scavenger's weaker promise. *)

open Cedar_util
open Cedar_disk
open Cedar_fsd
open Cedar_workload
module Jsonb = Cedar_obs.Jsonb
module Metrics = Cedar_obs.Metrics
module Volume_set = Cedar_volumes.Volume_set

type workload =
  | Reference  (** the unique-name crash_reference script, all intervals *)
  | Wrap of Concurrent.churn_spec
      (** the churn workload, which wraps the log; the sweep targets only
          the force intervals in the wrap window (a third entry, or
          adjacent) *)

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
(* The workload and its volume.                                        *)

type base = {
  geom : Geometry.t;
  params : Params.t;
  layout : Layout.t;
  workload : workload;
  scripts : Concurrent.script array;
  muts : Oracle.mut list array;  (* per client *)
  names : string list array;  (* per client *)
  writes : int array;  (* per force interval, from the clean run *)
  wrap_intervals : int list;
      (* intervals in which the log entered a third, plus neighbours *)
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

(* ------------------------------------------------------------------ *)
(* The verdict.                                                        *)

let destroy_fnt device (layout : Layout.t) =
  for k = 0 to layout.Layout.fnt_sectors - 1 do
    Device.damage device (layout.Layout.fnt_a_start + k);
    Device.damage device (layout.Layout.fnt_b_start + k)
  done

(* Strict oracle: each client's namespace is the fold of a prefix of its
   mutating ops at least as long as its acked count — version-aware, so
   churn workloads that re-create live names are checked exactly (stack
   depth, newest content). With every mutation acked the one prefix
   allowed is the whole list, and each mismatch is reported by name. *)
let check_clients base fs acked add =
  let keep = base.params.Params.default_keep in
  Array.iteri
    (fun client muts ->
      let names = base.names.(client) in
      let acked_count =
        List.length (List.filter (fun (c, _) -> c = client) acked)
      in
      let len = List.length muts in
      let rec search i =
        i <= len && (Oracle.matches_prefix fs ~keep muts names i || search (i + 1))
      in
      if acked_count > len then
        add (Printf.sprintf "client %d acked %d of %d muts" client acked_count len)
      else if acked_count = len then
        List.iter add (Oracle.diff fs (Oracle.state_after ~keep muts len) names)
      else if not (search acked_count) then
        add
          (Printf.sprintf
             "client %d: no mutation prefix >= %d acked ops explains the \
              recovered state"
             client acked_count))
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

(* Every name on the volume must come from the scripts. *)
let check_no_aliens base fs add =
  let known = Hashtbl.create 64 in
  Array.iter
    (fun names -> List.iter (fun n -> Hashtbl.replace known n ()) names)
    base.names;
  Fsd.fold_entries fs ~init:() ~f:(fun () ~name ~version:_ _ ->
      if not (Hashtbl.mem known name) then
        add (Printf.sprintf "recovered a name no script created: %s" name))

(* Convergence clause: a record whose images were already written home
   must never be replayed into stale state. A clean shutdown resets the
   log pointer past everything recovery applied, so the next boot must
   replay nothing and reproduce the namespace byte-for-byte — if replay
   and the home-write path disagree about who owns a page, this is where
   it shows. Returns that boot's replay count (-1 if the shutdown or the
   boot raised) and whether the digest held. *)
let converge device fs add =
  let digest = Oracle.volume_digest fs in
  match
    Fsd.shutdown fs;
    Fsd.boot device
  with
  | fs', br ->
    let replayed = br.Fsd.replayed_records in
    if replayed <> 0 then
      add
        (Printf.sprintf "second boot after clean shutdown replayed %d record(s)"
           replayed);
    let same = Oracle.volume_digest fs' = digest in
    if not same then add "clean shutdown + reboot changed the recovered namespace";
    (match Fsd.check fs' with
    | Ok () -> ()
    | Error m -> add ("structural check failed after clean reboot: " ^ m));
    (replayed, same)
  | exception e ->
    add ("clean shutdown + reboot raised " ^ Printexc.to_string e);
    (-1, false)

(* The one verdict on volume [fs], booted from [device], after a run in
   which the server acked [acked]. Violations on [fs] go to [add], those
   of the convergence clause to [add_after]; its replay count and digest
   match are returned. [Fsd.check] includes VAM/name-table agreement, so
   a leaked sector (allocated, claimed by no entry) fails it.
   [scavenged] trades the oracle for the scavenger's weaker promise. *)
let verdict base device fs ~acked ~scavenged ~add ~add_after =
  (match Fsd.check fs with
  | Ok () -> ()
  | Error m -> add ("structural check failed: " ^ m));
  check_no_aliens base fs add;
  (if not scavenged then check_clients base fs acked add
   else
     match base.workload with
     | Reference -> check_clients_scavenged base fs acked add
     | Wrap _ ->
       (* Churn deletes and re-creates most of its names, so the "acked
          create never deleted" witness the scavenged oracle rests on
          does not exist; structural soundness and no alien names are
          all that can be demanded. *)
       ());
  converge device fs add_after

(* ------------------------------------------------------------------ *)
(* The clean run.                                                      *)

type clean_run = {
  c_report : Server.report;
  c_third_entries : int;
  c_log_records : int;
  c_home_write_bursts : int;
  c_reclaim_stalls : int;
  c_fnt_home_writes : int;
  c_violations : string list;
  c_replayed_after_shutdown : int;
  c_digest_match : bool;
  c_violations_after_reboot : string list;
}

let passed c = c.c_violations = [] && c.c_violations_after_reboot = []

let metric fs name =
  Option.value (Metrics.read (Fsd.metrics fs) name) ~default:0

(* Serve the workload once with no crash planted, on a volume formatted
   and booted exactly as every crash point's. The attached plan only
   counts each force interval's sector writes, and the third-entry count
   sampled at each force locates the wrap window. The plan is detached
   and the totals read before the verdict, so its clean shutdown counts
   in neither. *)
let clean_pass ?geom ~clients workload =
  if clients < 1 then invalid_arg "Faultsweep: clients < 1";
  let geom =
    match (geom, workload) with
    | Some g, _ -> g
    | None, Reference -> Geometry.small_test
    | None, Wrap _ -> Geometry.tiny_test
  in
  let params = Params.for_geometry geom in
  let scripts =
    match workload with
    | Reference -> Concurrent.crash_reference ~clients
    | Wrap spec ->
      if spec.Concurrent.churn_keep <> params.Params.default_keep then
        invalid_arg "Faultsweep: churn_keep must match the volume's default_keep";
      Concurrent.churn_scripts spec ~clients
  in
  let vset = Volume_set.create_fresh ~geom ~params ~clock:(Simclock.create ()) 1 in
  let device = Volume_set.device vset 0 and fs = Volume_set.vol vset 0 in
  let plan = Crash_plan.attach device in
  let samples = ref [] in
  let config =
    {
      Server.default_config with
      Server.on_force =
        Some
          (fun _ ->
            samples := (Fsd.log_stats fs).Log.third_entries :: !samples;
            Crash_plan.note_force plan);
    }
  in
  let server = Server.create_volumes ~config vset scripts in
  let report =
    match Server.run_to_crash server with
    | Server.Completed r -> r
    | Server.Crashed _ -> invalid_arg "Faultsweep: the clean run crashed"
  in
  Crash_plan.detach plan;
  let stats = Fsd.log_stats fs in
  let third_entries = stats.Log.third_entries and log_records = stats.Log.records in
  let bursts = metric fs "fsd.home_write_bursts" in
  let stalls = metric fs "fsd.reclaim_stalls" in
  let fnt_homes = Fsd.fnt_home_writes fs in
  let muts = Array.map Oracle.muts_of_script scripts in
  let base =
    {
      geom;
      params;
      layout = Fsd.layout fs;
      workload;
      scripts;
      muts;
      names = Array.map Oracle.mut_names muts;
      writes = Crash_plan.writes_per_interval plan;
      wrap_intervals =
        wrap_window ~samples:(Array.of_list (List.rev !samples)) ~total:third_entries;
    }
  in
  let found = ref [] and after = ref [] in
  let add r v = r := v :: !r in
  (* The serve itself must be clean, or the oracle is ambiguous. *)
  if report.Server.total_errors > 0 then
    add found (Printf.sprintf "%d client error(s)" report.Server.total_errors);
  if report.Server.total_aborted > 0 then
    add found (Printf.sprintf "%d aborted session(s)" report.Server.total_aborted);
  let replayed, digest_match =
    verdict base device fs ~acked:(Server.acked server) ~scavenged:false
      ~add:(add found) ~add_after:(add after)
  in
  ( base,
    {
      c_report = report;
      c_third_entries = third_entries;
      c_log_records = log_records;
      c_home_write_bursts = bursts;
      c_reclaim_stalls = stalls;
      c_fnt_home_writes = fnt_homes;
      c_violations = List.rev !found;
      c_replayed_after_shutdown = replayed;
      c_digest_match = digest_match;
      c_violations_after_reboot = List.rev !after;
    } )

let clean_run ?geom ~clients workload = snd (clean_pass ?geom ~clients workload)

(* ------------------------------------------------------------------ *)
(* The sweep.                                                          *)

let run_point cfg base ~force ~write ~tear =
  let vset =
    Volume_set.create_fresh ~geom:base.geom ~params:base.params
      ~clock:(Simclock.create ()) 1
  in
  let device = Volume_set.device vset 0 in
  let plan = Crash_plan.attach device in
  Crash_plan.arm plan ~force ~write ~tear;
  let config =
    {
      Server.default_config with
      Server.on_force = Some (fun _ -> Crash_plan.note_force plan);
    }
  in
  let server = Server.create_volumes ~config vset base.scripts in
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
    | Server.Crashed _ -> (
      Crash_plan.detach plan;
      Device.cancel_write_crash device;
      let acked = Server.acked server in
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
      match booted with
      | None -> None
      | Some (fs2, path) ->
        let scavenged = cfg.scavenge || path = Scavenged in
        ignore (verdict base device fs2 ~acked ~scavenged ~add ~add_after:add : int * bool);
        Some path)
  in
  (path, List.rev !violations)

exception Refused of string

let sweep ?geom cfg =
  if cfg.tears = [] then invalid_arg "Faultsweep.sweep: no tear modes";
  let base, clean = clean_pass ?geom ~clients:cfg.clients cfg.workload in
  if not (passed clean) then
    raise
      (Refused
         ("the clean run fails the verdict: "
         ^ List.hd (clean.c_violations @ clean.c_violations_after_reboot)));
  let bound =
    match cfg.max_forces with
    | Some k -> min k (Array.length base.writes)
    | None -> Array.length base.writes
  in
  let intervals =
    match cfg.workload with
    | Reference -> List.init bound Fun.id
    | Wrap _ ->
      if base.wrap_intervals = [] then
        raise
          (Refused
             "the churn workload never entered a third (no wrap window to \
              sweep)");
      List.filter (fun i -> i < bound) base.wrap_intervals
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

let strings vs = Jsonb.Arr (List.map (fun v -> Jsonb.Str v) vs)

let clean_run_json c =
  Jsonb.Obj
    [
      ("server", Server.report_json c.c_report);
      ("third_entries", Jsonb.Int c.c_third_entries);
      ("log_records", Jsonb.Int c.c_log_records);
      ("home_write_bursts", Jsonb.Int c.c_home_write_bursts);
      ("reclaim_stalls", Jsonb.Int c.c_reclaim_stalls);
      ("fnt_home_writes", Jsonb.Int c.c_fnt_home_writes);
      ("violations", strings c.c_violations);
      ("replayed_after_shutdown", Jsonb.Int c.c_replayed_after_shutdown);
      ("digest_match", Jsonb.Bool c.c_digest_match);
      ("violations_after_reboot", strings c.c_violations_after_reboot);
      ("clean", Jsonb.Bool (passed c));
    ]

let pp_clean_run ppf c =
  Format.fprintf ppf "churn endurance: %d client(s), %d ops acked@."
    c.c_report.Server.clients c.c_report.Server.mutations_acked;
  Format.fprintf ppf
    "  log: %d records, %d third entries (%.1f full wraps)@." c.c_log_records
    c.c_third_entries
    (float_of_int c.c_third_entries /. 3.0);
  Format.fprintf ppf
    "  home writes: %d pages (%d background bursts, %d reclaim stalls)@."
    c.c_fnt_home_writes c.c_home_write_bursts c.c_reclaim_stalls;
  Format.fprintf ppf "  reboot: replayed %d record(s), namespace %s@."
    c.c_replayed_after_shutdown
    (if c.c_digest_match then "identical" else "CHANGED");
  match c.c_violations @ c.c_violations_after_reboot with
  | [] -> Format.fprintf ppf "  violations: none@."
  | vs ->
    Format.fprintf ppf "  violations: %d@." (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "    %s@." v) vs
