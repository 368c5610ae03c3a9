(* Concurrent multi-client server and group-commit batcher:
   determinism, batching amortisation, fairness under a bulk writer,
   the shutdown drain's single batch, crash atomicity of acknowledged
   transactions, the run_due_demons split, the script-file parser, the
   one completion rule and the op ledger. *)

open Cedar_util
open Cedar_disk
open Cedar_fsd
module C = Cedar_workload.Concurrent
module S = Cedar_server.Server
module Obs = Cedar_obs

(* An FSD counter, read from the volume's metrics registry. *)
let fsd_count fs name =
  Option.get (Obs.Metrics.read (Fsd.metrics fs) ("fsd." ^ name))

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let fresh_fs ?(geom = Geometry.small_test) ?params () =
  let clock = Simclock.create () in
  let device = Device.create ~clock geom in
  let params =
    match params with Some p -> p | None -> Params.for_geometry geom
  in
  Fsd.format device params;
  let fs, _ = Fsd.boot device in
  (device, fs)

(* A small hand-rolled script: [creates] files with [think] between
   steps, names "c<NN>/f<i>" so every client writes its own namespace. *)
let create_script ~client ~creates ~bytes ~think =
  List.concat_map
    (fun i ->
      [
        C.Think think;
        C.Op (C.Create { name = Printf.sprintf "c%02d/f%d" client i; bytes; fill = i });
      ])
    (List.init creates (fun i -> i))

let script_names script =
  List.filter_map
    (function C.Op (C.Create { name; _ }) -> Some name | _ -> None)
    script

(* ------------------------------------------------------------------ *)
(* Determinism: the seed contract                                       *)

(* The three device timings the scheduler must treat alike: one
   synchronous volume, two volumes on their own timelines, and one
   volume behind an elevator request queue. *)
let fresh_set ?params volumes =
  Cedar_volumes.Volume_set.create_fresh ~geom:Geometry.small_test ?params
    ~clock:(Simclock.create ()) volumes

let queued_params =
  {
    (Params.for_geometry Geometry.small_test) with
    Params.disk_qdepth = 4;
    disk_sched = Device.Elevator;
  }

let run_report ~traced ?params volumes =
  let vset = fresh_set ?params volumes in
  if traced then Obs.Trace.enable (Cedar_volumes.Volume_set.trace vset);
  let spec = { C.default_spec with C.modules = 4; rounds = 1; think_us = 30_000 } in
  let scripts = C.makedo_scripts spec ~clients:8 in
  let scripts =
    if volumes > 1 then C.shard_scripts scripts ~volumes else scripts
  in
  Obs.Jsonb.to_string (S.report_json (S.serve_volumes vset scripts))

(* Two same-seed runs, one of them traced, must report byte-identical
   results on every device timing: the trace records what the volumes
   do and must never add work of its own. *)
let test_determinism () =
  List.iter
    (fun (what, params, volumes) ->
      let untraced = run_report ~traced:false ?params volumes in
      let traced = run_report ~traced:true ?params volumes in
      check bool
        (what ^ ": same seed, traced and untraced reports byte-identical")
        true
        (String.equal untraced traced))
    [
      ("synchronous volume", None, 1);
      ("own-timeline volumes", None, 2);
      ("queued volume", Some { queued_params with Params.disk_qdepth = 8 }, 1);
    ]

(* ------------------------------------------------------------------ *)
(* Group commit amortisation: more clients per force                    *)

let ops_per_force clients =
  let _, fs = fresh_fs () in
  let spec = { C.default_spec with C.modules = 4; rounds = 1; think_us = 60_000 } in
  let r =
    S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs)
      (C.makedo_scripts spec ~clients)
  in
  check int "no errors" 0 r.S.total_errors;
  r.S.ops_per_force

let test_batching_amortizes () =
  let one = ops_per_force 1 in
  let eight = ops_per_force 8 in
  check bool
    (Printf.sprintf "8 clients amortise better (1: %.2f, 8: %.2f)" one eight)
    true
    (eight > one *. 2.)

(* Every mutating op must be acknowledged exactly once. *)
let test_all_mutations_acked () =
  let _, fs = fresh_fs () in
  let scripts =
    Array.init 3 (fun client ->
        create_script ~client ~creates:5 ~bytes:700 ~think:40_000)
  in
  let acks = ref 0 in
  let config =
    { S.default_config with S.on_ack = Some (fun ~client:_ ~op:_ -> incr acks) }
  in
  let r = S.serve_volumes ~config (Cedar_volumes.Volume_set.of_fsd fs) scripts in
  check int "15 mutations acked" 15 r.S.mutations_acked;
  check int "ack hook fired per mutation" 15 !acks;
  check int "every op ran" 15 r.S.total_ops;
  Array.iter
    (fun s -> check bool "session drained" true (Fsd.exists fs ~name:s))
    [| "c00/f4"; "c01/f4"; "c02/f4" |]

(* ------------------------------------------------------------------ *)
(* Fairness: a bulk writer must not starve small sessions               *)

let test_fairness_no_starvation () =
  let _, fs = fresh_fs () in
  (* Client 0 streams creates with almost no think time; clients 1-3 do
     light metadata churn with human-scale pauses. *)
  let scripts =
    Array.init 4 (fun client ->
        if client = 0 then
          C.bulk_writer ~client ~files:30 ~bytes:2_000 ~think_us:2_000 ~seed:9
        else C.churn ~client ~ops:8 ~bytes:400 ~think_us:40_000 ~seed:(10 + client))
  in
  let r = S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs) scripts in
  check int "no errors" 0 r.S.total_errors;
  let interval = (Fsd.params fs).Params.commit_interval_us in
  List.iter
    (fun s ->
      if s.S.r_client > 0 then begin
        check bool
          (Printf.sprintf "session %d made progress" s.S.r_client)
          true (s.S.r_mutations > 0);
        (* Bounded commit wait: no small session ever waits longer than
           three commit intervals even while the bulk writer floods. *)
        check bool
          (Printf.sprintf "session %d wait bounded (max %d us)" s.S.r_client
             s.S.r_wait_max_us)
          true
          (s.S.r_wait_max_us < 3 * interval)
      end)
    r.S.per_session;
  check bool "p99 commit wait bounded" true
    (r.S.wait_p99_us < float_of_int (3 * interval))

(* ------------------------------------------------------------------ *)
(* Force triggers: the commit interval, Force and the shutdown drain    *)

(* No depth triggers a force and no op is refused: 80 sessions, each
   doing one create on one volume whose 60 s commit interval never comes
   due, all park, and the shutdown drain releases them with one force as
   a single batch of 80. Records of 64 data sectors keep FSD's bulk
   trigger (the pending batch nearing one record) from firing first. *)
let test_drain_releases_one_batch () =
  let params =
    {
      (Params.for_geometry Geometry.small_test) with
      Params.commit_interval_us = 60_000_000;
      max_record_data_sectors = 64;
    }
  in
  let scripts =
    Array.init 80 (fun client ->
        [
          C.Op
            (C.Create
               { name = Printf.sprintf "c%02d/f" client; bytes = 100; fill = client });
        ])
  in
  let r = S.serve_volumes (fresh_set ~params 1) scripts in
  check int "80 creates acked" 80 r.S.mutations_acked;
  check int "all 80 released together" 80 (int_of_float r.S.batch_max);
  check int "one batch" 1 r.S.batch_n;
  check int "one force, the drain's" 1 r.S.server_forces

(* ------------------------------------------------------------------ *)
(* Crash atomicity: acked present, unacked absent                       *)

let test_crash_atomicity () =
  let clock = Simclock.create () in
  let device = Device.create ~clock Geometry.small_test in
  Fsd.format device (Params.for_geometry Geometry.small_test);
  let fs, _ = Fsd.boot device in
  let acked = ref [] in
  let crash_force = 3 in
  let config =
    {
      S.on_force =
        Some
          (fun n ->
            if n = crash_force then
              Device.plan_write_crash device ~after_sectors:0 ~damage_tail:0);
      on_ack =
        Some (fun ~client:_ ~op -> acked := C.op_name op :: !acked);
    }
  in
  let scripts =
    Array.init 2 (fun client ->
        create_script ~client ~creates:8 ~bytes:900 ~think:180_000)
  in
  (match S.serve_volumes ~config (Cedar_volumes.Volume_set.of_fsd fs) scripts with
  | (_ : S.report) -> Alcotest.fail "expected the armed crash during force 3"
  | exception Device.Crash_during_write _ -> ());
  Device.cancel_write_crash device;
  check bool "some transactions were acked before the crash" true
    (List.length !acked > 0);
  (* Reboot: log replay must land exactly the acknowledged transactions. *)
  let fs2, _ = Fsd.boot device in
  List.iter
    (fun name ->
      check bool ("acked survives the crash: " ^ name) true
        (Fsd.exists fs2 ~name))
    !acked;
  let all_names =
    Array.to_list scripts |> List.concat_map script_names
  in
  let unacked = List.filter (fun n -> not (List.mem n !acked)) all_names in
  check bool "some transactions were still unacknowledged" true
    (List.length unacked > 0);
  List.iter
    (fun name ->
      check bool ("unacked never visible after recovery: " ^ name) false
        (Fsd.exists fs2 ~name))
    unacked

(* ------------------------------------------------------------------ *)
(* run_due_demons is exactly the demon half of Fsd.tick                 *)

let test_demons_split_equivalence () =
  let drive advance =
    let _, fs = fresh_fs () in
    ignore (Fsd.create fs ~name:"d/one" (Bytes.create 700));
    advance fs 700_000;
    (fsd_count fs "forces", Fsd.durable_seq fs, Fsd.mutation_seq fs)
  in
  let via_tick = drive (fun fs us -> Fsd.tick fs ~us) in
  let via_demons =
    drive (fun fs us ->
        Simclock.advance (Device.clock (Fsd.device fs)) us;
        Fsd.run_due_demons fs)
  in
  check bool "advance + run_due_demons ≡ tick" true (via_tick = via_demons)

(* ------------------------------------------------------------------ *)
(* Session interleaving is visible in the Chrome export                 *)

let test_session_trace_export () =
  let _, fs = fresh_fs () in
  Obs.Trace.enable (Device.trace (Fsd.device fs));
  let scripts =
    Array.init 2 (fun client ->
        create_script ~client ~creates:3 ~bytes:500 ~think:50_000)
  in
  ignore (S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs) scripts : S.report);
  let json =
    Obs.Jsonb.to_string
      (Obs.Export.chrome (Obs.Trace.to_list (Device.trace (Fsd.device fs))))
  in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "per-session track names" true
    (contains "session 0" && contains "session 1");
  check bool "session op spans" true (contains "\"session00\"");
  check bool "parked and append slices drawn on session tracks" true
    (contains "\"parked\"" && contains "\"append\"")

(* ------------------------------------------------------------------ *)
(* Script files                                                         *)

let test_script_parser () =
  let text =
    "# build one file, read it back\n\
     think 5000\n\
     create {c}/a.txt 2048\n\
     read-page {c}/a.txt 0\n\
     list {c}/\n\
     force\n\
     delete {c}/a.txt\n"
  in
  match C.parse_script text with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok script ->
    check int "six steps" 6 (List.length script);
    let inst = C.instantiate script ~client:3 in
    (match inst with
    | C.Think 5000
      :: C.Op (C.Create { name = "c03/a.txt"; bytes = 2048; _ })
      :: C.Op (C.Read_page { name = "c03/a.txt"; page = 0 })
      :: _ ->
      ()
    | _ -> Alcotest.fail "instantiation did not substitute {c}");
    (* And the instantiated script actually runs. *)
    let _, fs = fresh_fs () in
    let r =
      S.serve_volumes (Cedar_volumes.Volume_set.of_fsd fs)
        [| C.instantiate script ~client:0 |]
    in
    check int "parser script runs clean" 0 r.S.total_errors

let test_script_parser_rejects_garbage () =
  (match C.parse_script "create onlyname\n" with
  | Error m ->
    check bool "error names the line" true
      (String.length m >= 6 && String.sub m 0 6 = "line 1")
  | Ok _ -> Alcotest.fail "malformed create accepted");
  match C.parse_script "think soon\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric think accepted"

(* ------------------------------------------------------------------ *)
(* The completion rule                                                  *)

(* Replay every acknowledged op of a server trace from the raw events
   and pass [f] the trace index of its [Op_done], its record and:

   - its execute end (its session span's [Op_end]);
   - the end of its own device commands (service start plus duration
     of every [Dev_read]/[Dev_write] under that span), and their arm
     time ([Dev_seek]) and whole command time;
   - whether it parked: a [Mutation] under its span that no later
     [Log_force] in the span covered;
   - its device's horizon (the end of every command on it so far);
   - the busy window of the last force on its device: from the start
     of the first command under that [force] span to the end of the
     last.

   Client [c] runs on device [dev_of_client c]. Returns how many acks
   it replayed. *)
type replayed = {
  exec_end : int;
  io_end : int;
  seek : int;
  command : int;
  parked : bool;
  horizon : int;
  force_window : int * int;
}

let replay_acks ~dev_of_client entries f =
  let parent = Hashtbl.create 256 in
  let sessions = Hashtbl.create 256 in
  let forces = Hashtbl.create 64 in (* force span -> its commands' window *)
  let current = Hashtbl.create 16 in (* client -> its latest session span *)
  let exec_end = Hashtbl.create 256 in
  let io_end = Hashtbl.create 256 in
  let seek = Hashtbl.create 256 in
  let command = Hashtbl.create 256 in
  let horizon = Hashtbl.create 4 in
  let last_force = Hashtbl.create 4 in (* device -> newest force span on it *)
  let unforced = Hashtbl.create 16 in
  let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let raise_to tbl k v = Hashtbl.replace tbl k (max v (get tbl k)) in
  let add_to tbl k v = Hashtbl.replace tbl k (v + get tbl k) in
  let rec up_to mark span =
    if span = 0 || Hashtbl.mem mark span then span else up_to mark (get parent span)
  in
  let acks = ref 0 in
  List.iteri
    (fun i (e : Obs.Trace.entry) ->
      let at = e.Obs.Trace.at_us and span = e.Obs.Trace.span in
      match e.Obs.Trace.event with
      | Obs.Trace.Op_begin { op; _ } -> (
        Hashtbl.replace parent e.Obs.Trace.seq span;
        if op = "force" then Hashtbl.replace forces e.Obs.Trace.seq (max_int, 0);
        match Scanf.sscanf_opt op "session%d%!" Fun.id with
        | Some client ->
          Hashtbl.replace sessions e.Obs.Trace.seq ();
          Hashtbl.replace current client e.Obs.Trace.seq
        | None -> ())
      | Obs.Trace.Op_end _ when Hashtbl.mem sessions span ->
        Hashtbl.replace exec_end span at
      | Obs.Trace.Dev_read { dev; us; _ } | Obs.Trace.Dev_write { dev; us; _ } ->
        raise_to horizon dev (at + us);
        raise_to io_end (up_to sessions span) (at + us);
        add_to command (up_to sessions span) us;
        let force = up_to forces span in
        if force <> 0 then begin
          let f0, f1 = Hashtbl.find forces force in
          Hashtbl.replace forces force (min f0 at, max f1 (at + us));
          raise_to last_force dev force
        end
      | Obs.Trace.Dev_seek { us; _ } -> add_to seek (up_to sessions span) us
      | Obs.Trace.Mutation _ -> Hashtbl.replace unforced (up_to sessions span) ()
      | Obs.Trace.Log_force _ -> Hashtbl.remove unforced (up_to sessions span)
      | Obs.Trace.Op_done r ->
        incr acks;
        let op = Hashtbl.find current r.Obs.Trace.client in
        let dev = dev_of_client r.Obs.Trace.client in
        f i r ~at
          {
            exec_end = get exec_end op;
            io_end = get io_end op;
            seek = get seek op;
            command = get command op;
            parked = Hashtbl.mem unforced op;
            horizon = get horizon dev;
            force_window =
              (match Hashtbl.find_opt last_force dev with
              | Some force -> Hashtbl.find forces force
              | None -> (0, 0));
          }
      | _ -> ())
    entries;
  !acks

(* Recompute every acknowledgement by the one completion rule: the
   latest of the op's execute end, the end of its own device commands
   and, if it parked, the covering force's completion — the horizon of
   the op's device at the wake (every command on it the trace holds
   before the ack has ended by then) or the wake instant, whichever is
   later. [wakes] maps the trace index of a journaled ack to the clock
   at the journaling. *)
let check_ack_rule ~dev_of_client ~wakes entries =
  replay_acks ~dev_of_client entries (fun i r ~at a ->
      let forced =
        if a.parked then max (Hashtbl.find wakes i) a.horizon else 0
      in
      check int
        (Printf.sprintf "client %d op %d acked by the rule" r.Obs.Trace.client
           r.Obs.Trace.opseq)
        (max a.exec_end (max a.io_end forced))
        at)

(* Recompute the device-derived parts of every acked op's record from
   the raw device events: seek and transfer from its own commands, and
   append — for a parked op, the overlap of its post-execute wait with
   the busy window of the last force on its device; 0 for any other.
   Returns each acked op's record with whether it parked. *)
let check_device_split ~dev_of_client entries =
  let acked = ref [] in
  ignore
    (replay_acks ~dev_of_client entries (fun _ r ~at a ->
         let f0, f1 = a.force_window in
         let expect =
           if a.parked then max 0 (min f1 at - max f0 a.exec_end) else 0
         in
         let what = Printf.sprintf "client %d op %d" r.Obs.Trace.client r.Obs.Trace.opseq in
         check int (what ^ ": append from its force's commands") expect
           r.Obs.Trace.append_us;
         check int (what ^ ": seek from its commands") a.seek r.Obs.Trace.seek_us;
         check int (what ^ ": transfer from its commands") (a.command - a.seek)
           r.Obs.Trace.transfer_us;
         acked := (r, a.parked) :: !acked)
      : int);
  List.rev !acked

(* Serve [scripts] on [vset] with tracing on and check every ack against
   the rule; client [i] runs on volume [dev_of_client i]. *)
let check_rule_run ~dev_of_client vset scripts =
  let clock = Cedar_volumes.Volume_set.clock vset in
  let tr = Cedar_volumes.Volume_set.trace vset in
  Obs.Trace.enable ~capacity:(1 lsl 18) tr;
  (* The journaling hook runs just before the ack's [Op_done] is
     emitted, so the trace length then is that entry's index. *)
  let wakes = Hashtbl.create 256 in
  let config =
    {
      S.default_config with
      S.on_ack =
        Some
          (fun ~client:_ ~op:_ ->
            Hashtbl.replace wakes (Obs.Trace.length tr) (Simclock.now clock));
    }
  in
  let r = S.serve_volumes ~config vset scripts in
  Obs.Trace.disable tr;
  check int "trace kept every entry" 0 (Obs.Trace.dropped tr);
  let acks = check_ack_rule ~dev_of_client ~wakes (Obs.Trace.to_list tr) in
  check int "every op acked" r.S.total_ops acks;
  check bool "some ops parked for a force" true (r.S.wait_n > 0)

let makedo ~clients =
  C.makedo_scripts
    { C.default_spec with C.modules = 3; rounds = 1; think_us = 20_000 }
    ~clients

let test_rule_sync () =
  check_rule_run ~dev_of_client:(fun _ -> 0) (fresh_set 1) (makedo ~clients:3)

let test_rule_own_timelines () =
  check_rule_run
    ~dev_of_client:(fun c -> c mod 2)
    (fresh_set 2)
    (C.shard_scripts (makedo ~clients:4) ~volumes:2)

let test_rule_queued () =
  check_rule_run ~dev_of_client:(fun _ -> 0)
    (fresh_set ~params:queued_params 1)
    (makedo ~clients:4)

(* The op ledger: the server splits each op's latency once, so every
   online phase counter (kept with tracing off, read by the monitor's
   sat.phase_* gauges) equals the same phase summed over the traced
   records, exactly, whatever the device timing; and each record's
   append, seek and transfer match the raw device commands.
   Returns each acked op's record with whether it parked. *)
let check_ledger what ~dev_of_client vset scripts =
  let tr = Cedar_volumes.Volume_set.trace vset in
  Obs.Trace.enable ~capacity:(1 lsl 18) tr;
  ignore (S.serve_volumes vset scripts : S.report);
  Obs.Trace.disable tr;
  check int (what ^ ": trace kept every entry") 0 (Obs.Trace.dropped tr);
  let entries = Obs.Trace.to_list tr in
  let cp = Obs.Critpath.fold entries in
  check int (what ^ ": every lifecycle finished") 0 cp.Obs.Critpath.unfinished;
  List.iter
    (fun ph ->
      let name = "server.phase." ^ Obs.Critpath.phase_name ph ^ "_us" in
      let online = ref 0 in
      Cedar_volumes.Volume_set.iter
        (fun _ fs ->
          online := !online + Option.get (Obs.Metrics.read (Fsd.metrics fs) name))
        vset;
      check int
        (Printf.sprintf "%s: %s = the records' sum" what name)
        (List.fold_left
           (fun n r -> n + Obs.Critpath.phase_us r ph)
           0 cp.Obs.Critpath.ops)
        !online)
    Obs.Critpath.[ Queue; Execute; Append; Parked ];
  check_device_split ~dev_of_client entries

let creates acked =
  List.filter (fun ((r : Obs.Trace.op_record), _) -> r.Obs.Trace.op = "create") acked

let check_parked_append what acked =
  let parked = List.filter snd (creates acked) in
  check bool (what ^ ": some creates parked") true (parked <> []);
  List.iter
    (fun ((r : Obs.Trace.op_record), _) ->
      check bool
        (Printf.sprintf "%s: parked create c%d#%d has append > 0" what
           r.Obs.Trace.client r.Obs.Trace.opseq)
        true (r.Obs.Trace.append_us > 0))
    parked

let test_ledger () =
  check_parked_append "synchronous volume"
    (check_ledger "synchronous volume" ~dev_of_client:(fun _ -> 0) (fresh_set 1)
       (makedo ~clients:3));
  check_parked_append "own-timeline volumes"
    (check_ledger "own-timeline volumes"
       ~dev_of_client:(fun c -> c mod 2)
       (fresh_set 2)
       (C.shard_scripts (makedo ~clients:4) ~volumes:2));
  let queued =
    check_ledger "queued volume" ~dev_of_client:(fun _ -> 0)
      (fresh_set ~params:queued_params 1)
      (makedo ~clients:4)
  in
  check_parked_append "queued volume" queued;
  List.iter
    (fun ((r : Obs.Trace.op_record), _) ->
      check bool
        (Printf.sprintf "queued volume: create c%d#%d has seek + transfer > 0"
           r.Obs.Trace.client r.Obs.Trace.opseq)
        true
        (r.Obs.Trace.seek_us + r.Obs.Trace.transfer_us > 0))
    (creates queued)

(* An op that issues no device request is acked at its execute end, even
   while its device is still busy with another session's create: on a
   two-volume set the devices run on their own timelines, and the other
   session's I/O is no part of this op. *)
let test_no_io_op_acked_at_execute_end () =
  let vset = fresh_set 2 in
  let dir = Cedar_fsbase.Fname.shard_dir ~shards:2 0 in
  let scripts =
    [|
      [ C.Op (C.Create { name = dir ^ "/big"; bytes = 40_000; fill = 1 }) ];
      [ C.Op (C.List (dir ^ "/")) ];
    |]
  in
  let tr = Cedar_volumes.Volume_set.trace vset in
  Obs.Trace.enable ~capacity:(1 lsl 16) tr;
  ignore (S.serve_volumes vset scripts : S.report);
  Obs.Trace.disable tr;
  let entries = Obs.Trace.to_list tr in
  (* The List's session span, its execute end and its ack. *)
  let span =
    List.find_map
      (fun (e : Obs.Trace.entry) ->
        match e.Obs.Trace.event with
        | Obs.Trace.Op_begin { op = "session01"; _ } -> Some e.Obs.Trace.seq
        | _ -> None)
      entries
    |> Option.get
  in
  let find f = List.find_map f entries |> Option.get in
  let exec_end =
    find (fun (e : Obs.Trace.entry) ->
        match e.Obs.Trace.event with
        | Obs.Trace.Op_end _ when e.Obs.Trace.span = span -> Some e.Obs.Trace.at_us
        | _ -> None)
  in
  let acked =
    find (fun (e : Obs.Trace.entry) ->
        match e.Obs.Trace.event with
        | Obs.Trace.Op_done { Obs.Trace.client = 1; _ } -> Some e.Obs.Trace.at_us
        | _ -> None)
  in
  let busy_until =
    List.fold_left
      (fun h (e : Obs.Trace.entry) ->
        match e.Obs.Trace.event with
        | Obs.Trace.Dev_write { dev = 0; us; _ } | Obs.Trace.Dev_read { dev = 0; us; _ }
          when e.Obs.Trace.seq < span ->
          max h (e.Obs.Trace.at_us + us)
        | _ -> h)
      0 entries
  in
  check bool "the list issued no device request" true
    (List.for_all
       (fun (e : Obs.Trace.entry) ->
         match e.Obs.Trace.event with
         | Obs.Trace.Dev_read _ | Obs.Trace.Dev_write _ -> e.Obs.Trace.span <> span
         | _ -> true)
       entries);
  check bool
    (Printf.sprintf "the create kept the device busy (until %d) past the list's end (%d)"
       busy_until exec_end)
    true (busy_until > exec_end);
  check int "the list is acked at its execute end" exec_end acked

let suite =
  [
    Alcotest.test_case "same-seed runs are byte-identical" `Quick test_determinism;
    Alcotest.test_case "more clients amortise each force" `Slow
      test_batching_amortizes;
    Alcotest.test_case "every mutation acked exactly once" `Quick
      test_all_mutations_acked;
    Alcotest.test_case "bulk writer does not starve small sessions" `Quick
      test_fairness_no_starvation;
    Alcotest.test_case "shutdown drain releases 80 as one batch" `Quick
      test_drain_releases_one_batch;
    Alcotest.test_case "crash keeps acked, drops unacked" `Quick
      test_crash_atomicity;
    Alcotest.test_case "run_due_demons matches Fsd.tick" `Quick
      test_demons_split_equivalence;
    Alcotest.test_case "chrome export shows session interleaving" `Quick
      test_session_trace_export;
    Alcotest.test_case "script files parse and run" `Quick test_script_parser;
    Alcotest.test_case "script parser rejects malformed steps" `Quick
      test_script_parser_rejects_garbage;
    Alcotest.test_case "ack rule: synchronous volume" `Quick
      test_rule_sync;
    Alcotest.test_case "ack rule: own-timeline volumes" `Quick
      test_rule_own_timelines;
    Alcotest.test_case "ack rule: queued volume" `Quick
      test_rule_queued;
    Alcotest.test_case "no-I/O op acked at execute end" `Quick
      test_no_io_op_acked_at_execute_end;
    Alcotest.test_case "ledger exact on every timing" `Quick test_ledger;
  ]
